"""Peak memory must follow what is in flight, not how long the run is.

Runs four cold ``python -m repro`` commands -- the web-search churn at 1x
and 10x duration (671 / 6,710 flows) and the RDCN circuit at 19 / 190 ms
-- and reads each child's peak RSS from ``os.wait4``.  Finished flows
retire (docs/INVARIANTS.md, "Flow lifetime"), so ten times the flows may
cost only a stated fraction more; the check fails otherwise.

The rdcn pair is printed, not gated: per-packet delays are a counted
distribution, so the 10x run no longer pays per packet sent, but the
``+1.5 MiB`` its issue predicted is not met -- the three probe series
the command prints (19,001 samples each instead of 1,901) cost more than
that on their own.  A bound for it wants its own measurements.

This file imports nothing but ``os`` and ``sys`` on purpose: a spawned
child inherits its launcher's own high-water mark in ``ru_maxrss``, so a
launcher heavier than the command it measures would be measuring itself.

    python benchmarks/perf/check_memory_scaling.py
"""

import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

WEBSEARCH = (
    "run websearch --algorithm powertcp --set load=0.6 --set drain_ns=60000000 "
    "--set size_scale=0.0625 --set seed=1 --json "
    "--set duration_ns={duration_ns} --set max_flows={max_flows}"
)
RDCN = "run rdcn --algorithm powertcp --set dst_tor=2 --json --set duration_ns={duration_ns}"

#: 10x web-search may peak at this multiple of the 1x run
WEBSEARCH_RATIO = 1.35


def peak_rss_mib(command: str) -> float:
    """Peak RSS of one cold ``python -m repro <command>`` child, in MiB."""
    pid = os.posix_spawn(
        sys.executable,
        [sys.executable, "-m", "repro", *command.split()],
        # the complete environment: a shell variable cannot change a reading
        {"PYTHONPATH": os.path.join(REPO, "src"), "PYTHONHASHSEED": "0"},
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)],
    )
    _, status, usage = os.wait4(pid, 0)
    if status != 0:
        sys.exit(f"FAIL: `repro {command}` exited with wait status {status}")
    return usage.ru_maxrss / 1024.0  # Linux reports KiB


def main() -> int:
    ws_1x = peak_rss_mib(WEBSEARCH.format(duration_ns=60_000_000, max_flows=671))
    ws_10x = peak_rss_mib(WEBSEARCH.format(duration_ns=600_000_000, max_flows=6710))
    rdcn_1x = peak_rss_mib(RDCN.format(duration_ns=19_000_000))
    rdcn_10x = peak_rss_mib(RDCN.format(duration_ns=190_000_000))
    print(f"websearch  1x (671 flows)   {ws_1x:6.1f} MiB")
    print(f"websearch 10x (6,710 flows) {ws_10x:6.1f} MiB  "
          f"({ws_10x / ws_1x:.2f}x, limit {WEBSEARCH_RATIO}x)")
    print(f"rdcn  19 ms                 {rdcn_1x:6.1f} MiB")
    print(f"rdcn 190 ms                 {rdcn_10x:6.1f} MiB  "
          f"(+{rdcn_10x - rdcn_1x:.1f}, not gated)")
    if ws_10x > WEBSEARCH_RATIO * ws_1x:
        print("FAIL: websearch peak RSS grows with the number of finished flows")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
