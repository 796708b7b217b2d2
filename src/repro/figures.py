"""The paper's figures as one table.

Every committed series ``benchmarks/results/<series>.txt`` is one
:class:`Figure` in :data:`FIGURES`:

* ``run(algorithms=None, overrides=None, results_dir=None)`` makes the
  series' calls: a grid over a registered scenario run inline (``jobs=1``,
  so raw experiment results stay attached), a fluid-model sweep, or a
  hand-wired dumbbell.  ``algorithms`` / ``overrides`` are ``repro fig``'s
  ``--algorithms`` / ``--set``; ``results_dir`` persists each grid's
  sweep document as ``<results_dir>/<name>_sweep.json``.
* ``format(results)`` returns the series' lines, ``paper: ...`` prose
  included (it is part of the committed bytes).
* ``claims`` are the paper's statements the results must satisfy, each a
  :class:`Claim` with an id and a paper locus.

Three readers share the table: ``python -m repro fig <series|figure>``,
``benchmarks/test_figures.py`` (emits the 26 files and checks every
claim) and ``tests/test_figure_byte_identity.py``.  The fluid model is
imported inside the runs that need it, never at module scope.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass
from typing import Any, Callable, List, Tuple

from repro.analysis.stats import percentile
from repro.experiments.rdcn import scaled_prebuffer_ns, scaled_rdcn
from repro.registry import Registry
from repro.units import GBPS, MSEC, USEC


class ClaimFailed(AssertionError):
    """Claims do not hold; the message names each one's id and locus."""


@dataclass(frozen=True)
class Claim:
    """A paper statement about one figure's results."""

    id: str
    locus: str  # where the paper makes it: "fig. 4 top", "Theorem 2"
    check: Callable[[Any], bool]

    def __str__(self) -> str:
        return f"claim {self.id} ({self.locus})"


@dataclass(frozen=True)
class Figure:
    """One committed series: how to run it, print it and judge it."""

    series: str  # benchmarks/results/<series>.txt
    figure: str  # the `repro fig` group id: "fig4", "ablation", ...
    locus: str
    run: Callable[..., Any]
    format: Callable[[Any], List[str]]
    claims: Tuple[Claim, ...] = ()

    def text(self, results) -> str:
        """The series' bytes, as committed."""
        return "\n".join(self.format(results)) + "\n"

    def check(self, results) -> None:
        """Evaluate every claim; one ClaimFailed names all that fail."""
        failed = [str(claim) for claim in self.claims if not claim.check(results)]
        if failed:
            raise ClaimFailed("does not hold: " + "; ".join(failed))


def _claims(prefix, locus, **checks) -> Tuple[Claim, ...]:
    """One Claim per keyword, id ``<prefix>.<keyword, _ as ->``."""
    return tuple(
        Claim(f"{prefix}.{name.replace('_', '-')}", locus, check)
        for name, check in checks.items()
    )


def _every(items, check) -> bool:
    """A claim over every swept value (an assert inside a loop)."""
    return all(check(item) for item in items)


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def _fixed(fn, takes_algorithms=False):
    """run() of a series outside any scenario: ``--set`` has nothing to
    override, and ``--algorithms`` applies only where ``fn`` loops over
    algorithms."""

    def run(algorithms=None, overrides=None, results_dir=None):
        if overrides or (algorithms and not takes_algorithms):
            raise ValueError(
                "this series is not backed by a scenario: "
                f"{'--set' if takes_algorithms else '--algorithms/--set'} "
                "does not apply"
            )
        return fn(algorithms) if takes_algorithms else fn()

    return run


def _fluid(module, function, **kwargs):
    """run() of one ``repro.fluid.<module>`` call, imported when it runs."""
    return _fixed(lambda: getattr(
        importlib.import_module(f"repro.fluid.{module}"), function)(**kwargs))


def _sweep(scenario, grid, base, algorithms=None, overrides=None,
           results_dir=None, persist=None):
    """One grid of a registered scenario, run inline -> its cells.

    ``algorithms`` replaces the grid's algorithm axis; on a grid without
    one it must name one algorithm, which replaces the pinned base
    algorithm.  ``overrides`` update the base config.
    """
    from repro.scenarios.sweep import run_sweep

    grid, base = dict(grid), dict(base, **(overrides or {}))
    if algorithms and "algorithm" in grid:
        grid["algorithm"] = list(algorithms)
    elif algorithms and len(algorithms) == 1:
        base["algorithm"] = algorithms[0]
    elif algorithms:
        raise ValueError("this series has no algorithm axis: "
                         "--algorithms takes one name")
    sweep = run_sweep(scenario, grid, base=base)
    if results_dir and persist:
        os.makedirs(results_dir, exist_ok=True)
        sweep.persist(os.path.join(results_dir, f"{persist}_sweep.json"))
    return sweep.cells


def _grid(scenario, grid, base, key="algorithm", persist=None):
    """run() over one scenario grid -> {key: raw result}.

    ``key`` is an axis name or a function of the cell's params; ``base``
    may be a function returning the dict, for configs holding mutable
    objects that each run must build afresh.
    """
    keyof = key if callable(key) else (lambda params: params[key])

    def run(algorithms=None, overrides=None, results_dir=None):
        cells = _sweep(scenario, grid, base() if callable(base) else base,
                       algorithms, overrides, results_dir, persist)
        return {keyof(cell.params): cell.result.raw for cell in cells}

    return run


def fmt_gbps(bps: float) -> str:
    """Format a bandwidth in Gbps."""
    return f"{bps / 1e9:6.2f}G"


def fmt_kb(nbytes: float) -> str:
    """Format a byte count in KB."""
    return f"{nbytes / 1000:8.1f}KB"


def _ordered(matrix, index) -> list:
    """The distinct values at one key position, in grid order."""
    return list(dict.fromkeys(key[index] for key in matrix))


# ----------------------------------------------------------------------
# Fig. 2 — reaction curves of the control-law taxonomy (fluid model)
# ----------------------------------------------------------------------
B_BPS = 100 * GBPS / 8.0  # bytes/s
TAU = 20e-6
BDP = B_BPS * TAU
FIG2A_RATES = [0, 1, 2, 3, 4, 5, 6, 7, 8]
FIG2B_QUEUE_FRACS = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]


def _md_format(header, xs, x_format):
    """fig. 2a/2b: multiplicative decrease of both laws per x value."""

    def format(series):
        return [header] + [
            f"{x:{x_format}}  {series['queue-length'][i]:14.2f}  "
            f"{series['rtt-gradient'][i]:15.2f}"
            for i, x in enumerate(xs)
        ]

    return format


def _fig2c_format(cases):
    lines = [f"{'case':45s} {'voltage':>8s} {'current':>8s} {'power':>8s}"]
    for c in cases:
        lines.append(
            f"{c.label:45s} {c.voltage:8.2f} {c.current:8.2f} {c.power:8.2f}"
        )
    return lines + ["", "paper claim: voltage(case2)==voltage(case3); "
                    "current(case1)==current(case3); power separates all three"]


# ----------------------------------------------------------------------
# Fig. 3 — phase portraits (fluid model; 100 Gbps, 20 us base RTT)
# ----------------------------------------------------------------------
def fig3_params():
    from repro.fluid.model import FluidParams

    p = FluidParams()  # paper's example: 100 Gbps, 20 us
    p.beta_bytes = 0.01 * p.bdp_bytes
    return p


def _fig3():
    from repro.fluid.laws import GRADIENT_LAW, POWER_LAW, QUEUE_LAW
    from repro.fluid.phase import phase_portrait

    return {
        law.name: phase_portrait(law, fig3_params())
        for law in (QUEUE_LAW, GRADIENT_LAW, POWER_LAW)
    }


def _fig3_format(portraits):
    p = fig3_params()
    lines = [
        f"BDP = {p.bdp_bytes/1000:.0f}KB, beta = {p.beta_bytes/1000:.1f}KB",
        f"{'law':14s} {'eq-spread':>10s} {'worst-loss':>11s} {'frac-loss':>10s}  final windows (xBDP)",
    ]
    for name, portrait in portraits.items():
        finals = ", ".join(f"{w / p.bdp_bytes:.2f}" for w in portrait.final_windows)
        lines.append(
            f"{name:14s} {portrait.equilibrium_spread():10.3f} "
            f"{portrait.worst_throughput_loss():11.3f} "
            f"{portrait.fraction_with_loss():10.2f}  [{finals}]"
        )
    return lines + ["", "paper: 3a voltage unique-eq + loss; 3b current no unique eq;",
                    "       3c power unique-eq + no loss"]


# ----------------------------------------------------------------------
# Fig. 4 — incast reaction: 10:1 (top) and large fan-in (bottom; paper
# 255:1, 64:1 here for the pure-Python event budget)
# ----------------------------------------------------------------------
def _fig4(fanout, burst_bytes, duration_ns):
    return _grid(
        "incast",
        grid={"algorithm": ["powertcp", "theta-powertcp", "hpcc", "timely",
                            "dcqcn", "homa"]},
        base=dict(fanout=fanout, burst_bytes=burst_bytes, duration_ns=duration_ns),
    )


def _incast_format(header, key_format, extra, paper):
    """Incast rows: key, peakQ, settledQ, burst-util, then ``extra(r)``."""

    def format(results):
        return [header] + [
            f"{key:{key_format}} {fmt_kb(r.peak_qlen_bytes):>10s} "
            f"{fmt_kb(r.mean_late_qlen()):>10s} {r.burst_utilization():10.2f}"
            + extra(r)
            for key, r in results.items()
        ] + paper

    return format


def _done(r):
    return f"{len(r.burst_fcts_ns):>4d}/{r.fanout:<3d}"


FIG4_FORMAT = _incast_format(
    f"{'algorithm':>15s} {'peakQ':>10s} {'settledQ':>10s} "
    f"{'burst-util':>10s} {'post-dip':>9s} {'done':>6s} {'drops':>6s}", ">15s",
    lambda r: f" {r.post_incast_throughput_dip():9.2f} {_done(r)} {r.drops:>4d}",
    ["", "paper: PowerTCP near-zero settled queue + no throughput dip;",
     "       HPCC dips after mitigation; TIMELY uncontrolled queue;",
     "       HOMA holds throughput but parks queue during burst"],
)


# ----------------------------------------------------------------------
# Figs. 5 and 9 — Jain index per join epoch of four staggered flows
# ----------------------------------------------------------------------
def _jain_format(header, key_format, paper):
    def format(results):
        return [header] + [
            f"{key:{key_format}}  " + "  ".join(f"{j:5.3f}" for j in r.epoch_jain)
            for key, r in results.items()
        ] + [""] + paper

    return format


# ----------------------------------------------------------------------
# Figs. 6 and 7 — web-search FCT slowdowns and buffer occupancy.  Sizes
# are scaled by 1/16 and the tail relaxed to p99 for the flow budget;
# every grid pins seed=1 (the config default) so the workload draws
# match the committed series.
# ----------------------------------------------------------------------
SCALE = 1 / 16
PCT = 99.0
WEB_ALGOS = ["powertcp", "theta-powertcp", "hpcc"]
WEB_BASE = dict(duration_ns=20 * MSEC, drain_ns=40 * MSEC, size_scale=SCALE,
                seed=1)
BURSTY_BASE = dict(WEB_BASE, load=0.8, fanout=8, max_flows=200)
FIG7AB_LOADS = [0.2, 0.4, 0.6, 0.8]
FIG7CD_RATES = [1, 4, 16]
FIG7EF_SIZES = [1_000_000, 2_000_000, 8_000_000]


def _fs(raw, pct=PCT):
    return raw.fct_summary(pct=pct)


def _fig6(load):
    return _grid(
        "websearch",
        grid={"algorithm": ["powertcp", "theta-powertcp", "hpcc", "dcqcn",
                            "timely", "homa"]},
        base=dict(WEB_BASE, load=load, duration_ns=25 * MSEC, max_flows=500),
    )


def _fig6_format(results):
    load = next(iter(results.values())).load
    lines = [f"web-search @ {load:.0%} load, p{PCT:g} slowdown "
             f"(sizes scaled x{SCALE:g}, bins in paper units)"]
    lines.append(
        f"{'algorithm':>15s} {'short':>8s} {'medium':>8s} {'long':>8s} {'all':>8s} {'done':>9s}"
    )
    for algo, r in results.items():
        s = _fs(r)

        def fmt(v):
            return f"{v:8.2f}" if v is not None else "       -"

        lines.append(
            f"{algo:>15s} {fmt(s.short)} {fmt(s.medium)} {fmt(s.long)} "
            f"{fmt(s.overall)} {s.completed:>4d}/{s.total:<4d}"
        )
    lines.append("")
    lines.append("per-size-bin series (PowerTCP vs HPCC), bin edge -> slowdown:")
    for algo in ("powertcp", "hpcc"):
        if algo not in results:
            continue
        row = "  ".join(
            f"{edge//1000}K:{(f'{v:.1f}' if v is not None else '-')}"
            for edge, v, _count in results[algo].size_bins(pct=PCT)
        )
        lines.append(f"{algo:>15s}  {row}")
    return lines


def _fig7ab_format(matrix):
    algos, loads = _ordered(matrix, 0), _ordered(matrix, 1)

    def table(cls):
        lines = [f"{'load':>6s} " + " ".join(f"{a:>15s}" for a in algos)]
        for load in loads:
            row = [f"{load:6.0%}"]
            for algo in algos:
                value = getattr(_fs(matrix[(algo, load)]), cls)
                row.append(f"{value:15.2f}" if value is not None else f"{'-':>15s}")
            lines.append(" ".join(row))
        return lines

    return (
        [f"Fig 7a — short flows, p{PCT:g} slowdown vs load"] + table("short")
        + ["", f"Fig 7b — long flows, p{PCT:g} slowdown vs load"] + table("long")
        + ["", "paper: PowerTCP short-flow gains grow with load; theta-",
           "PowerTCP long flows are consistently worse than PowerTCP/HPCC"]
    )


def _bursty_format(title, axis_header, axis_cell, paper):
    """fig. 7c-f: one row per swept value, short then long columns."""

    def format(matrix):
        algos, values = _ordered(matrix, 0), _ordered(matrix, 1)
        lines = [title, f"{axis_header} "
                 + " ".join(f"{a+'-short':>17s}" for a in algos)
                 + " " + " ".join(f"{a+'-long':>17s}" for a in algos)]
        for value in values:
            row = [axis_cell(value)]
            for cls in ("short", "long"):
                for algo in algos:
                    v = getattr(_fs(matrix[(algo, value)]), cls)
                    row.append(f"{v:17.2f}" if v is not None else f"{'-':>17s}")
            lines.append(" ".join(row))
        return lines + [""] + paper

    return format


def _buffer_cdf_format(title, paper):
    """fig. 7g/7h: ToR buffer-occupancy percentiles per algorithm."""
    pcts = (50, 90, 99, 99.9)

    def format(results):
        header = (f"{'algorithm':>15s} " + " ".join(f"p{p:<6g}" for p in pcts)
                  + " (bytes)")
        return [title, header] + [
            f"{algo:>15s} " + " ".join(
                f"{percentile(r.buffer_samples_bytes, p):7.0f}" for p in pcts)
            for algo, r in results.items()
        ] + [""] + paper

    return format


def _p99_buffer(results, algo):
    return percentile(results[algo].buffer_samples_bytes, 99)


# ----------------------------------------------------------------------
# Fig. 8 — the reconfigurable-DCN case study.  Prebuffer values are the
# paper's, scaled to the shortened rotation week.  Prebuffering applies
# only to reTCP, so each bandwidth runs two grids over ``rdcn``:
# algorithm x params for the feedback schemes, prebuffer for reTCP.
# ----------------------------------------------------------------------
RDCN_VARIANTS = ["powertcp", "hpcc", "retcp-600us", "retcp-1800us"]
PAPER_PREBUFFERS = [600 * USEC, 1800 * USEC]
FIG8B_BANDWIDTHS = [25 * GBPS, 50 * GBPS]


def _rdcn_variants(packet_bw, overrides, results_dir, persist):
    """Both grids at one packet bandwidth -> {variant label: raw result}.

    Each grid gets its own RdcnParams instance: run_rdcn writes the cell's
    prebuffer into params, so the reTCP grid must not alias the object the
    feedback grid persisted.
    """
    feedback = _sweep(
        "rdcn", {"algorithm": ["powertcp", "hpcc"]},
        dict(duration_ns=4 * MSEC, params=scaled_rdcn(packet_bw_bps=packet_bw)),
        overrides=overrides, results_dir=results_dir,
        persist=f"{persist}_feedback",
    )
    retcp = _sweep(
        "rdcn", {"prebuffer_ns": [scaled_prebuffer_ns(scaled_rdcn(), p)
                                  for p in PAPER_PREBUFFERS]},
        dict(algorithm="retcp", duration_ns=4 * MSEC,
             params=scaled_rdcn(packet_bw_bps=packet_bw)),
        overrides=overrides, results_dir=results_dir, persist=f"{persist}_retcp",
    )
    results = {cell.params["algorithm"]: cell.result.raw for cell in feedback}
    for paper, cell in zip(PAPER_PREBUFFERS, retcp):
        results[f"retcp-{paper // 1000}us"] = cell.result.raw
    return results


def _fig8(bandwidths):
    """run() of fig. 8a (one bandwidth) or 8b (several, keyed (name, bw))."""

    def run(algorithms=None, overrides=None, results_dir=None):
        if algorithms:
            raise ValueError("fig. 8 runs fixed variants (reTCP by prebuffer): "
                             "--algorithms does not apply")
        if len(bandwidths) == 1:
            return _rdcn_variants(bandwidths[0], overrides, results_dir,
                                  "fig8a_rdcn")
        return {
            (name, bw): r
            for bw in bandwidths
            for name, r in _rdcn_variants(
                bw, overrides, results_dir, f"fig8b_latency_{int(bw/1e9)}g"
            ).items()
        }

    return run


def _fig8a_format(results):
    lines = [
        f"{'variant':>15s} {'circuit-util':>12s} {'peak-VOQ':>12s} "
        f"{'p99 q-latency':>14s} {'goodput':>9s}"
    ]
    for name in RDCN_VARIANTS:
        r = results[name]
        lines.append(
            f"{name:>15s} {r.circuit_utilization:12.2f} "
            f"{fmt_kb(r.peak_voq_bytes()):>12s} "
            f"{r.tail_queuing_latency_ns / 1000:12.1f}us "
            f"{fmt_gbps(r.mean_goodput_bps):>9s}"
        )
    power = results["powertcp"]
    window = [
        f"{t//1000}us:{bps/1e9:.0f}"
        for t, bps in zip(power.times_ns, power.pair_throughput_bps)
        if power.day_windows and power.day_windows[0][0] - 50_000
        <= t
        <= power.day_windows[0][1] + 50_000
    ]
    return lines + [
        "", "PowerTCP pair-throughput series around its first day (Gbps):",
        "  " + " ".join(window[:30]), "",
        "paper 8a: reTCP = instant fill + high latency; HPCC = low",
        "queue + low fill; PowerTCP = both high fill and low queue",
    ]


def _fig8b_format(matrix):
    lines = ["p99 queuing latency (us) vs packet-network bandwidth",
             f"{'pkt-bw':>8s} " + " ".join(f"{n:>15s}" for n in RDCN_VARIANTS)]
    for bw in _ordered(matrix, 1):
        lines.append(" ".join([f"{bw/1e9:6.0f}G "] + [
            f"{matrix[(name, bw)].tail_queuing_latency_ns/1000:15.1f}"
            for name in RDCN_VARIANTS
        ]))
    return lines + ["", "paper 8b: PowerTCP/HPCC lowest; reTCP-1800us worst; PowerTCP",
                    "improves tail queuing latency by at least 5x vs reTCP"]


def _tail(matrix, name, bw):
    return matrix[(name, bw)].tail_queuing_latency_ns


# ----------------------------------------------------------------------
# Figs. 10/11 (Appendix D) — HOMA incast across overcommitment levels
# ----------------------------------------------------------------------
def _homa_incast(fanout, burst_bytes, duration_ns, persist):
    return _grid(
        "incast",
        grid={"cc_params": [{"overcommitment": oc} for oc in (1, 2, 4, 6)]},
        base=dict(algorithm="homa", fanout=fanout, burst_bytes=burst_bytes,
                  duration_ns=duration_ns),
        key=lambda params: params["cc_params"]["overcommitment"],
        persist=persist,
    )


HOMA_INCAST_FORMAT = _incast_format(
    f"{'OC':>3s} {'peakQ':>10s} {'settledQ':>10s} {'burst-util':>10s} {'done':>8s}",
    ">3d", lambda r: f" {_done(r)}",
    ["", "paper figs 10/11: throughput saturated at all levels;",
     "queue occupancy does not converge to zero during the burst"],
)


# ----------------------------------------------------------------------
# Ablations: beta (App. A), gamma (Theorem 2), PFC, update interval
# ----------------------------------------------------------------------
def _ablation_beta_format(results):
    lines = [
        f"{'N':>5s} {'beta=BDP/N':>11s} {'p99 short':>10s} {'p99 long':>10s} "
        f"{'p99 buffer':>11s}"
    ]
    for n, r in results.items():
        s = _fs(r)
        lines.append(
            f"{n:>5d} {'BDP/' + str(n):>11s} "
            f"{s.short if s.short else float('nan'):10.2f} "
            f"{s.long if s.long else float('nan'):10.2f} "
            f"{percentile(r.buffer_samples_bytes, 99):11.0f}"
        )
    return lines + ["", "expectation: larger N -> smaller standing queue (better",
                    "short-flow tails, lower buffers) at slightly slower ramp"]


def _dumbbell(algorithm, left_hosts, buffer_bytes):
    """A 10G dumbbell into one receiver -> (sim, net, driver)."""
    from repro.experiments.driver import FlowDriver
    from repro.sim.engine import Simulator
    from repro.topology.dumbbell import DumbbellParams, build_dumbbell

    sim = Simulator()
    net = build_dumbbell(sim, DumbbellParams(
        left_hosts=left_hosts, right_hosts=1, host_bw_bps=10 * GBPS,
        bottleneck_bw_bps=10 * GBPS, buffer_bytes=buffer_bytes,
    ))
    return sim, net, FlowDriver(net, algorithm)


def _pfc_cell(algorithm, with_pfc, buffer_bytes=300_000, fanout=16):
    """Severe incast into a deliberately small buffer, lossy or PFC.

    Hand-wired: the PFC watermarks sit outside every registered
    scenario's config surface.
    """
    from repro.sim.pfc import enable_pfc
    from repro.sim.tracing import PortProbe

    sim, net, driver = _dumbbell(algorithm, fanout + 1, buffer_bytes)
    if with_pfc:
        enable_pfc(net, high_fraction=0.2, low_fraction=0.1)
    receiver = fanout + 1
    driver.start_flow(0, receiver, 10 ** 10, at_ns=0, tag="long")
    bursts = [
        driver.start_flow(1 + i, receiver, 100_000, at_ns=150 * USEC)
        for i in range(fanout)
    ]
    probe = PortProbe(sim, net.port("bottleneck"), 10 * USEC).start()
    driver.run(until_ns=6 * MSEC)
    settled = probe.qlen_bytes[len(probe.qlen_bytes) // 2 :]
    return {
        "drops": net.total_drops(),
        "done": sum(1 for f in bursts if f.completed),
        "fanout": fanout,
        "peak_q": net.port("bottleneck").max_qlen_bytes,
        "settled_q": sum(settled) / len(settled),
        "pauses": sum(
            c.pause_events for c in net.extras.get("pfc_controllers", [])
        ),
    }


def _ablation_pfc():
    return {
        (algo, mode): _pfc_cell(algo, with_pfc)
        for algo in ("powertcp", "hpcc")
        for mode, with_pfc in (("lossy", False), ("pfc", True))
    }


def _ablation_pfc_format(results):
    lines = [
        f"{'algo/fabric':>18s} {'drops':>6s} {'pauses':>7s} {'peakQ':>10s} "
        f"{'settledQ':>10s} {'done':>7s}"
    ]
    for (algo, mode), r in results.items():
        lines.append(
            f"{algo + '/' + mode:>18s} {r['drops']:>6d} {r['pauses']:>7d} "
            f"{fmt_kb(r['peak_q']):>10s} {fmt_kb(r['settled_q']):>10s} "
            f"{r['done']:>3d}/{r['fanout']:<3d}"
        )
    return lines + ["", "expectation: PFC removes drops without changing PowerTCP's",
                    "queue control — validating the lossy-buffer substitution"]


def _update_interval(scenario, base, persist):
    return _grid(
        scenario,
        grid={"cc_params": [{"once_per_rtt": flag} for flag in (False, True)]},
        base=base,
        key=lambda params: (
            "once-per-rtt" if params["cc_params"]["once_per_rtt"] else "per-ack"
        ),
        persist=persist,
    )


def _update_interval_rdcn_format(results):
    return [
        f"{'mode':>14s} {'circuit-util':>12s} {'peak-VOQ':>10s} {'p99 q-lat':>12s}"
    ] + [
        f"{name:>14s} {r.circuit_utilization:12.2f} "
        f"{fmt_kb(r.peak_voq_bytes()):>10s} "
        f"{r.tail_queuing_latency_ns/1000:10.1f}us"
        for name, r in results.items()
    ] + ["", "expectation: once-per-RTT is the paper's RDCN setting; both",
         "modes fill the circuit, per-ACK reacts marginally faster"]


# ----------------------------------------------------------------------
# §2 motivation: the standing-queue problem (§2.2 / App. C) and the
# multi-bottleneck chain (§3.5)
# ----------------------------------------------------------------------
def _standing_queue_cell(algorithm):
    from repro.sim.tracing import PortProbe

    sim, net, driver = _dumbbell(algorithm, 2, 200_000)
    for src in range(2):
        driver.start_flow(src, 2, 10 ** 10, at_ns=0)
    probe = PortProbe(sim, net.port("bottleneck"), 20 * USEC).start()
    driver.run(until_ns=20 * MSEC)
    settled = probe.qlen_bytes[len(probe.qlen_bytes) // 2 :]
    thr = probe.throughput_bps[len(probe.throughput_bps) // 2 :]
    return {
        "mean_queue": sum(settled) / len(settled),
        "max_queue": max(probe.qlen_bytes),
        "throughput": sum(thr) / len(thr),
        "drops": net.total_drops(),
    }


def _standing_queue(algorithms):
    return {
        algo: _standing_queue_cell(algo)
        for algo in algorithms or ("powertcp", "dctcp", "newreno", "cubic")
    }


def _standing_queue_format(results):
    lines = [
        f"{'algorithm':>10s} {'settled-Q':>10s} {'max-Q':>10s} "
        f"{'throughput':>11s} {'drops':>6s}"
    ]
    for algo, r in results.items():
        lines.append(
            f"{algo:>10s} {fmt_kb(r['mean_queue']):>10s} "
            f"{fmt_kb(r['max_queue']):>10s} {r['throughput']/1e9:10.2f}G "
            f"{r['drops']:>6d}"
        )
    return lines + ["", "paper §2.2/App.C: NewReno oscillates against the buffer;",
                    "DCTCP stands around its marking threshold; PowerTCP holds",
                    "Eq. 1's near-zero queue at full throughput"]


def _multi_bottleneck_format(results):
    return [
        f"{'algorithm':>15s} {'e2e':>7s} {'cross0':>7s} {'cross1':>7s} {'link1-maxQ':>11s}"
    ] + [
        f"{algo:>15s} {r.e2e_goodput_bps / 1e9:6.2f}G "
        f"{r.cross_goodput_bps[0] / 1e9:6.2f}G "
        f"{r.cross_goodput_bps[1] / 1e9:6.2f}G "
        f"{fmt_kb(r.link_peak_qlen_bytes[1]):>11s}"
        for algo, r in results.items()
    ] + ["", "paper §3.5: INT reacts to the most-bottlenecked hop; RTT",
         "reacts to the sum of delays, shrinking the e2e flow's share"]


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
FIGURES: Tuple[Figure, ...] = (
    Figure("fig2a_md_vs_buildup_rate", "fig2",
           "fig. 2a: multiplicative decrease vs queue buildup rate",
           _fluid("reaction", "decrease_vs_buildup_rate", bandwidth_Bps=B_BPS,
                  tau_s=TAU, queue_bytes=0.5 * BDP, rate_multiples=FIG2A_RATES),
           _md_format("rate(xB)  queue/delay-MD  rtt-gradient-MD", FIG2A_RATES, "8.1f"),
           _claims("fig2a", "fig. 2a",
                   voltage_blind_to_rate=lambda s: max(s["queue-length"])
                   == min(s["queue-length"]),
                   current_linear_in_rate=lambda s: s["rtt-gradient"][-1] == 9.0)),  # 1 + 8x
    Figure("fig2b_md_vs_queue_length", "fig2",
           "fig. 2b: multiplicative decrease vs queue length",
           _fluid("reaction", "decrease_vs_queue_length", bandwidth_Bps=B_BPS, tau_s=TAU,
                  queue_lengths_bytes=[f * BDP for f in FIG2B_QUEUE_FRACS]),
           _md_format("queue(xBDP)  queue/delay-MD  rtt-gradient-MD",
                      FIG2B_QUEUE_FRACS, "11.2f"),
           _claims("fig2b", "fig. 2b",
                   current_blind_to_queue=lambda s: max(s["rtt-gradient"])
                   == min(s["rtt-gradient"]),
                   voltage_linear_in_queue=lambda s: s["queue-length"][-1] == 5.0)),  # 1 + 4 BDP
    Figure("fig2c_three_cases", "fig2", "fig. 2c: the three cases",
           _fluid("reaction", "three_case_comparison", bandwidth_Bps=B_BPS, tau_s=TAU),
           _fig2c_format, _claims(
               "fig2c", "fig. 2c",
               voltage_blind_case2_case3=lambda c: c[1].voltage == c[2].voltage,
               current_blind_case1_case3=lambda c: c[0].current == c[2].current,
               power_separates_all_three=lambda c: len({round(x.power, 9) for x in c}) == 3)),
    Figure("fig3_phase_portraits", "fig3", "fig. 3: phase portraits",
           _fixed(_fig3), _fig3_format, _claims(
               "fig3a", "fig. 3a",
               voltage_unique_equilibrium=lambda p: p["queue-length"].equilibrium_spread() < 0.05,
               voltage_throughput_loss=lambda p: p["queue-length"].fraction_with_loss() > 0.5,
           ) + _claims(
               "fig3b", "fig. 3b",
               current_no_unique_equilibrium=lambda p: p["rtt-gradient"].equilibrium_spread()
               > 0.5,
           ) + _claims(
               "fig3c", "fig. 3c",
               power_unique_equilibrium=lambda p: p["power"].equilibrium_spread() < 0.05,
               power_no_loss=lambda p: p["power"].fraction_with_loss() == 0.0)),
    Figure("fig4_top_10to1", "fig4", "fig. 4 top: 10:1 incast",
           _fig4(10, 200_000, 4 * MSEC), FIG4_FORMAT, _claims(
               "fig4-top", "fig. 4 top",
               powertcp_settled_queue=lambda r: r["powertcp"].mean_late_qlen() < 2_000,
               powertcp_burst_util=lambda r: r["powertcp"].burst_utilization() > 0.95,
               hpcc_loses_throughput=lambda r: r["powertcp"].burst_utilization()
               >= r["hpcc"].burst_utilization(),
               timely_uncontrolled_queue=lambda r: r["timely"].mean_late_qlen()
               > r["powertcp"].mean_late_qlen())),
    Figure("fig4_bottom_large_fanin", "fig4",
           "fig. 4 bottom: large fan-in incast (paper 255:1, here 64:1)",
           _fig4(64, 60_000, 8 * MSEC), FIG4_FORMAT, _claims(
               "fig4-bottom", "fig. 4 bottom",
               powertcp_all_done=lambda r: len(r["powertcp"].burst_fcts_ns) == 64,
               powertcp_settled_queue=lambda r: r["powertcp"].mean_late_qlen() < 5_000,
               powertcp_burst_util=lambda r: r["powertcp"].burst_utilization() > 0.9)),
    Figure("fig5_fairness", "fig5", "fig. 5: fairness under staggered arrivals",
           _grid("fairness", {"algorithm": ["powertcp", "theta-powertcp", "timely", "homa"]},
                 {}, persist="fig5_fairness"),
           _jain_format(
               f"{'algorithm':>15s}  Jain index per join-epoch (1 flow .. 4 flows)", ">15s",
               ["paper: PowerTCP stabilizes to fair share quickly on every",
                "       arrival; HOMA/TIMELY are visibly less stable"]),
           _claims("fig5", "fig. 5",
                   powertcp_fair=lambda r: r["powertcp"].final_epoch_jain() > 0.95,
                   theta_powertcp_fair=lambda r: r["theta-powertcp"].final_epoch_jain() > 0.9,
                   powertcp_at_least_timely=lambda r: r["powertcp"].final_epoch_jain()
                   >= r["timely"].final_epoch_jain() - 0.02)),
    # low load: at worst comparable to HPCC, better than TIMELY
    Figure("fig6a_websearch_20pct", "fig6", "fig. 6a: web-search FCT at 20 % load",
           _fig6(0.2), _fig6_format, _claims(
               "fig6a", "fig. 6a",
               powertcp_short_vs_hpcc=lambda r: _fs(r["powertcp"]).short
               <= _fs(r["hpcc"]).short * 1.25,
               powertcp_short_vs_timely=lambda r: _fs(r["powertcp"]).short
               <= _fs(r["timely"]).short)),
    # 60 % load: better short-flow tails, long flows not penalized
    Figure("fig6b_websearch_60pct", "fig6", "fig. 6b: web-search FCT at 60 % load",
           _fig6(0.6), _fig6_format, _claims(
               "fig6b", "fig. 6b",
               powertcp_short_vs_hpcc=lambda r: _fs(r["powertcp"]).short
               <= _fs(r["hpcc"]).short * 1.1,
               powertcp_long_vs_hpcc=lambda r: _fs(r["powertcp"]).long
               <= _fs(r["hpcc"]).long * 1.1)),
    Figure("fig7ab_load_sweep", "fig7ab", "fig. 7a/7b: tail slowdown vs load",
           _grid("websearch", {"algorithm": WEB_ALGOS, "load": FIG7AB_LOADS},
                 dict(WEB_BASE, max_flows=400),
                 key=lambda params: (params["algorithm"], params["load"])),
           _fig7ab_format, _claims(
               "fig7b", "fig. 7b",
               powertcp_long_vs_hpcc=lambda m: _every(FIG7AB_LOADS, lambda load: _fs(
                   m[("powertcp", load)]).long <= _fs(m[("hpcc", load)]).long * 1.2),
               theta_powertcp_long_worse=lambda m: _every(FIG7AB_LOADS, lambda load: _fs(
                   m[("theta-powertcp", load)]).long >= _fs(m[("powertcp", load)]).long * 0.9),
           ) + _claims(
               "fig7ab", "fig. 7a/7b",
               slowdown_grows_with_load=lambda m: _every(WEB_ALGOS, lambda algo: _fs(
                   m[(algo, 0.8)], pct=90.0).overall
                   >= _fs(m[(algo, 0.2)], pct=90.0).overall * 0.9))),
    Figure("fig7cd_request_rate", "fig7cd",
           "fig. 7c/7d: web-search + incast, request-rate sweep",
           _grid("bursty", {"algorithm": WEB_ALGOS, "requests_per_duration": FIG7CD_RATES},
                 dict(BURSTY_BASE, request_size_bytes=2_000_000),
                 key=lambda params: (params["algorithm"], params["requests_per_duration"]),
                 persist="fig7cd_request_rate"),
           _bursty_format(
               f"request-rate sweep @ 2MB requests, p{PCT:g} slowdown",
               f"{'rate':>5s}", lambda rate: f"{rate:5d}",
               ["paper 7c/7d: PowerTCP beats HPCC for short flows at every",
                "rate (33% at high rates) and by ~10% for long flows"]),
           _claims("fig7d", "fig. 7d",
                   powertcp_long_vs_hpcc=lambda m: _every(FIG7CD_RATES, lambda rate: _fs(
                       m[("powertcp", rate)]).long <= _fs(m[("hpcc", rate)]).long * 1.25))),
    Figure("fig7ef_request_size", "fig7ef",
           "fig. 7e/7f: web-search + incast, request-size sweep",
           _grid("bursty", {"algorithm": WEB_ALGOS, "request_size_bytes": FIG7EF_SIZES},
                 dict(BURSTY_BASE, requests_per_duration=4),
                 key=lambda params: (params["algorithm"], params["request_size_bytes"]),
                 persist="fig7ef_request_size"),
           _bursty_format(
               f"request-size sweep @ 4 requests/run, p{PCT:g} slowdown",
               f"{'size':>6s}", lambda size: f"{size//1_000_000:5d}M",
               ["paper 7e/7f: slowdowns grow gently with request size;",
                "PowerTCP stays ahead of HPCC for short flows"]),
           _claims("fig7ef", "fig. 7e/7f",
                   slowdown_grows_with_size=lambda m: _fs(
                       m[("powertcp", FIG7EF_SIZES[-1])], pct=90.0).overall
                   >= _fs(m[("powertcp", FIG7EF_SIZES[0])], pct=90.0).overall * 0.8)),
    Figure("fig7g_buffer_cdf_websearch", "fig7g",
           "fig. 7g: buffer occupancy CDF, web-search at 80 % load",
           _grid("websearch", {"algorithm": WEB_ALGOS}, dict(WEB_BASE, load=0.8, max_flows=400),
                 persist="fig7g_buffer_cdf_websearch"),
           _buffer_cdf_format(
               "ToR buffer occupancy CDF, web-search @ 80% load",
               ["paper 7g: PowerTCP maintains lower occupancy throughout and",
                "cuts the tail vs HPCC"]),
           _claims("fig7g", "fig. 7g",
                   powertcp_p99_buffer_vs_hpcc=lambda r: _p99_buffer(r, "powertcp")
                   <= _p99_buffer(r, "hpcc"))),
    Figure("fig7h_buffer_cdf_bursty", "fig7h",
           "fig. 7h: buffer occupancy CDF, web-search + incasts",
           _grid("bursty", {"algorithm": WEB_ALGOS},
                 dict(BURSTY_BASE, requests_per_duration=16,
                      request_size_bytes=2_000_000, max_flows=400),
                 persist="fig7h_buffer_cdf_bursty"),
           _buffer_cdf_format(
               "ToR buffer occupancy CDF, web-search @ 80% + 16x 2MB incasts",
               ["paper 7h: PowerTCP and theta-PowerTCP reduce the 99-pct",
                "buffer by ~31% vs HPCC"]),
           _claims("fig7h", "fig. 7h",
                   powertcp_p99_buffer_vs_hpcc=lambda r: _p99_buffer(r, "powertcp")
                   <= _p99_buffer(r, "hpcc") * 1.05)),
    Figure("fig8a_rdcn_timeseries", "fig8", "fig. 8a: RDCN circuit utilization and VOQ",
           _fig8([25 * GBPS]), _fig8a_format, _claims(
               "fig8a", "fig. 8a",
               powertcp_fills_circuit=lambda r: r["powertcp"].circuit_utilization >= 0.75,
               hpcc_underfills_circuit=lambda r: r["hpcc"].circuit_utilization
               < r["powertcp"].circuit_utilization,
               retcp_fills_circuit=lambda r: r["retcp-600us"].circuit_utilization > 0.9,
               powertcp_voq_vs_retcp=lambda r: r["powertcp"].peak_voq_bytes()
               < 0.05 * r["retcp-600us"].peak_voq_bytes())),
    # the paper's ">= 5x" latency gap is at full scale
    Figure("fig8b_tail_latency", "fig8",
           "fig. 8b: RDCN p99 queuing latency vs packet bandwidth",
           _fig8(FIG8B_BANDWIDTHS), _fig8b_format, _claims(
               "fig8b", "fig. 8b",
               retcp_latency_vs_powertcp=lambda m: _every(FIG8B_BANDWIDTHS, lambda bw: _tail(
                   m, "retcp-600us", bw) > 2 * _tail(m, "powertcp", bw)),
               prebuffer_adds_latency=lambda m: _every(FIG8B_BANDWIDTHS, lambda bw: _tail(
                   m, "retcp-1800us", bw) >= _tail(m, "retcp-600us", bw) * 0.9))),
    # SRPT shares equal-length flows coarsely, but every level must keep
    # all flows progressing
    Figure("fig9_homa_overcommitment", "fig9",
           "fig. 9 (App. D): HOMA fairness vs overcommitment",
           _grid("fairness", {"homa_overcommit": [1, 2, 3, 4, 5, 6]},
                 dict(algorithm="homa"), key="homa_overcommit",
                 persist="fig9_homa_overcommitment"),
           _jain_format(
               f"{'OC':>3s}  Jain index per join-epoch (1 flow .. 4 flows)", ">3d",
               ["paper fig 9: HOMA shares bandwidth at every level; higher",
                "overcommitment admits more concurrent senders"]),
           _claims("fig9", "fig. 9",
                   four_join_epochs=lambda r: _every(r.values(), lambda x:
                                                     len(x.epoch_jain) == 4),
                   every_level_shares=lambda r: _every(r.values(), lambda x: all(
                       j > 0.2 for j in x.epoch_jain)))),
    # high overcommitment lets SRPT starve the largest-remaining message
    # near the horizon: one straggler allowed
    Figure("fig10_homa_large_fanin", "fig10",
           "fig. 10 (App. D): HOMA large fan-in incast (paper 255:1, here 64:1)",
           _homa_incast(64, 60_000, 10 * MSEC, "fig10_homa_large_fanin"),
           HOMA_INCAST_FORMAT, _claims(
               "fig10", "fig. 10",
               all_but_one_done=lambda r: _every(r.values(), lambda x:
                                                 len(x.burst_fcts_ns) >= 63),
               peak_queue_grows_with_oc=lambda r: r[6].peak_qlen_bytes
               >= r[1].peak_qlen_bytes * 0.8)),
    Figure("fig11_homa_10to1", "fig11", "fig. 11 (App. D): HOMA 10:1 incast",
           _homa_incast(10, 200_000, 4 * MSEC, "fig11_homa_10to1"),
           HOMA_INCAST_FORMAT, _claims(
               "fig11", "fig. 11",
               all_done=lambda r: _every(r.values(), lambda x: len(x.burst_fcts_ns) == 10),
               throughput_saturated=lambda r: _every(r.values(), lambda x:
                                                     x.burst_utilization() > 0.9))),
    Figure("ablation_beta", "ablation",
           "App. A: additive increase beta = HostBw*tau/N on web-search",
           _grid("websearch",
                 {"cc_params": [{"expected_flows": n} for n in (8, 16, 32, 64, 128)]},
                 dict(WEB_BASE, algorithm="powertcp", load=0.6, max_flows=400),
                 key=lambda params: params["cc_params"]["expected_flows"],
                 persist="ablation_beta"),
           _ablation_beta_format, _claims(
               "ablation-beta", "App. A",
               larger_n_smaller_buffer=lambda r: percentile(r[128].buffer_samples_bytes, 99)
               <= percentile(r[8].buffer_samples_bytes, 99))),
    # stability (Theorem 2) holds for every gamma in (0, 1]
    Figure("ablation_gamma", "ablation", "Theorem 2: EWMA gamma on the 10:1 incast",
           _grid("incast", {"cc_params": [{"gamma": g} for g in (0.3, 0.5, 0.7, 0.9, 1.0)]},
                 dict(algorithm="powertcp", fanout=10, duration_ns=4 * MSEC),
                 key=lambda params: params["cc_params"]["gamma"],
                 persist="ablation_gamma"),
           _incast_format(
               f"{'gamma':>6s} {'peakQ':>10s} {'settledQ':>10s} {'burst-util':>10s} "
               f"{'done':>6s}", "6.2f",
               lambda r: f" {len(r.burst_fcts_ns):>4d}/{r.fanout}",
               ["", "paper: gamma=0.9 recommended — fast convergence without",
                "noise amplification; the sweep should show gamma>=0.7 keeps",
                "settled queues near zero with full burst utilization"]),
           _claims(
               "ablation-gamma", "§3.3 (gamma = 0.9 recommended)",
               recommended_burst_util=lambda r: r[0.9].burst_utilization() > 0.95,
               recommended_settled_queue=lambda r: r[0.9].mean_late_qlen() < 2_000,
           ) + _claims(
               "ablation-gamma", "Theorem 2",
               slow_gamma_converges=lambda r: len(r[0.3].burst_fcts_ns) == 10)),
    Figure("ablation_pfc", "ablation", "§4 setup: lossy buffers vs a lossless (PFC) fabric",
           _fixed(_ablation_pfc), _ablation_pfc_format, _claims(
               "ablation-pfc", "§4 setup (lossless fabric)",
               no_drops=lambda r: _every(("powertcp", "hpcc"), lambda algo:
                                         r[(algo, "pfc")]["drops"] == 0),
               all_done=lambda r: _every(("powertcp", "hpcc"), lambda algo:
                                         r[(algo, "pfc")]["done"] == r[(algo, "pfc")]["fanout"]),
               powertcp_lossy_queue=lambda r: r[("powertcp", "lossy")]["settled_q"] < 10_000,
               powertcp_pfc_queue=lambda r: r[("powertcp", "pfc")]["settled_q"] < 10_000)),
    Figure("ablation_update_interval_rdcn", "ablation",
           "§5: per-ACK vs once-per-RTT updates on the RDCN",
           _update_interval("rdcn", lambda: dict(algorithm="powertcp", params=scaled_rdcn(),
                                                 duration_ns=4 * MSEC),
                            "ablation_update_interval_rdcn"),
           _update_interval_rdcn_format, _claims(
               "ablation-update-interval", "§5",
               rdcn_fills_circuit=lambda r: _every(r.values(), lambda x:
                                                   x.circuit_utilization > 0.6))),
    Figure("ablation_update_interval_incast", "ablation",
           "§5: per-ACK vs once-per-RTT updates on the 10:1 incast",
           _update_interval("incast", dict(algorithm="powertcp", fanout=10,
                                           duration_ns=4 * MSEC),
                            "ablation_update_interval_incast"),
           _incast_format(
               f"{'mode':>14s} {'peakQ':>10s} {'settledQ':>10s} {'burst-util':>10s}",
               ">14s", lambda r: "", []),
           _claims(
               "ablation-update-interval", "§5",
               per_ack_burst_util=lambda r: r["per-ack"].burst_utilization() > 0.9,
               once_per_rtt_done=lambda r: len(r["once-per-rtt"].burst_fcts_ns) == 10)),
    Figure("motivation_standing_queue", "motivation",
           "§2.2 / App. C: the standing-queue problem",
           _fixed(_standing_queue, takes_algorithms=True), _standing_queue_format, _claims(
               "motivation", "§2.2 (Eq. 1)",
               powertcp_near_zero_queue=lambda r: r["powertcp"]["mean_queue"] < 10_000,
               powertcp_full_throughput=lambda r: r["powertcp"]["throughput"] > 9e9,
           ) + _claims(
               "motivation", "§2.2 / App. C",
               loss_based_standing_queue=lambda r: _every(("newreno", "cubic"), lambda x: r[x][
                   "mean_queue"] > 3 * max(r["powertcp"]["mean_queue"], 1_000)),
               dctcp_standing_queue=lambda r: r["dctcp"]["mean_queue"]
               > r["powertcp"]["mean_queue"])),
    # the scenario's defaults are the §3.5 chain: 2 segments, 10G hosts,
    # [10G, 5G] links, long flows, 20 ms horizon
    Figure("motivation_multi_bottleneck", "motivation",
           "§3.5: INT vs delay feedback over two bottlenecks",
           _grid("multi_bottleneck", {"algorithm": ["powertcp", "theta-powertcp", "hpcc"]},
                 dict(seed=1), persist="motivation_multi_bottleneck"),
           _multi_bottleneck_format, _claims(
               "motivation", "§3.5",
               int_beats_delay_multi_bottleneck=lambda r: r["powertcp"].e2e_goodput_bps / 1e9
               > r["theta-powertcp"].e2e_goodput_bps / 1e9)),
)


def _lookup() -> Registry:
    """Series name or figure id -> the entries it selects."""
    registry = Registry("figure", {}, lambda entries: None)
    for entry in FIGURES:
        registry.add(entry.series, (entry,))
    for group in dict.fromkeys(entry.figure for entry in FIGURES):
        registry.add(group, tuple(e for e in FIGURES if e.figure == group))
    return registry


_LOOKUP = _lookup()


def select(name: str) -> Tuple[Figure, ...]:
    """The entries a series name or figure id selects; UnknownNameError
    with the catalog otherwise."""
    return _LOOKUP.get(name)
