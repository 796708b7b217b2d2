"""Peak memory must follow what is in flight, not how long or how wide the run is.

Runs cold ``python -m repro`` commands and reads each child's peak RSS
from ``os.wait4``; fails if any of three gates is missed:

* time, flows -- the web-search churn at 1x and 10x duration (671 /
  6,710 flows).  Finished flows retire (docs/INVARIANTS.md, "Flow
  lifetime"), so the 10x run may peak at 1.35x the 1x run at most;
* time, samples -- the RDCN circuit at 19 and 190 ms.  Per-packet delays
  are a counted distribution and ``repro run --json`` streams its
  document, so what 190 ms adds is the probe series it prints: at most
  +6.0 MiB;
* fan-in -- one fig. 4 incast cell at 64:1 and 255:1 for PowerTCP, DCQCN
  and HOMA.  A port builds its priority queues and its ECN generator on
  first use, so 191 more senders (384 more ports) may add at most
  +2.5 MiB per law.

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
INCAST = (
    "run incast --algorithm {algorithm} --set fanout={fanout} "
    "--set burst_bytes=60500 --set duration_ns=9000000"
)

#: 10x web-search may peak at this multiple of the 1x run
WEBSEARCH_RATIO = 1.35
#: rdcn at 190 ms may peak this many MiB above 19 ms
RDCN_GROWTH_MIB = 6.0
#: a 255:1 incast cell may peak this many MiB above its 64:1 cell
FANIN_GROWTH_MIB = 2.5
FANIN_LAWS = ("powertcp", "dcqcn", "homa")


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
    failures = []
    ws_1x = peak_rss_mib(WEBSEARCH.format(duration_ns=60_000_000, max_flows=671))
    ws_10x = peak_rss_mib(WEBSEARCH.format(duration_ns=600_000_000, max_flows=6710))
    print(f"websearch  1x (671 flows)    {ws_1x:6.1f} MiB")
    print(f"websearch 10x (6,710 flows)  {ws_10x:6.1f} MiB  "
          f"({ws_10x / ws_1x:.2f}x, limit {WEBSEARCH_RATIO}x)")
    if ws_10x > WEBSEARCH_RATIO * ws_1x:
        failures.append("websearch peak RSS grows with the number of finished flows")

    rdcn_1x = peak_rss_mib(RDCN.format(duration_ns=19_000_000))
    rdcn_10x = peak_rss_mib(RDCN.format(duration_ns=190_000_000))
    print(f"rdcn  19 ms                  {rdcn_1x:6.1f} MiB")
    print(f"rdcn 190 ms                  {rdcn_10x:6.1f} MiB  "
          f"(+{rdcn_10x - rdcn_1x:.1f}, limit +{RDCN_GROWTH_MIB})")
    if rdcn_10x - rdcn_1x > RDCN_GROWTH_MIB:
        failures.append("rdcn peak RSS grows with simulated time")

    for law in FANIN_LAWS:
        narrow = peak_rss_mib(INCAST.format(algorithm=law, fanout=64))
        wide = peak_rss_mib(INCAST.format(algorithm=law, fanout=255))
        print(f"incast {law:9s}  64:1      {narrow:6.1f} MiB")
        print(f"incast {law:9s} 255:1      {wide:6.1f} MiB  "
              f"(+{wide - narrow:.1f}, limit +{FANIN_GROWTH_MIB})")
        if wide - narrow > FANIN_GROWTH_MIB:
            failures.append(f"{law} incast peak RSS grows with fan-in, not traffic")

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
