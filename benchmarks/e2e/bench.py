"""End-to-end benchmark of the ``repro`` command line.

Two ways in::

    # every workload: N cold runs + one traced run each, tables, checks
    python benchmarks/e2e/bench.py [--workloads a,b] [--repeats 3] [--seed 1]
                                   [--tiny] [--out FILE]
    # one workload, one measurement (what BENCHMARK.json's command runs)
    python benchmarks/e2e/bench.py --workload NAME --seed N --seconds S --trace 0|1
    # judge two result files against the bounds in BENCHMARK.json
    python benchmarks/e2e/bench.py --compare A.json B.json

A timed run is a **cold** ``python -m repro ...`` subprocess with the
default engine configuration: interpreter start, imports, worker spawn,
journal fsync and JSON output are all inside the measurement.  The
traced run (``e2e_tracer.py``) produces the per-layer numbers and is
never timed end to end.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import e2e_workloads
from e2e_workloads import WORKLOADS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: scratch space, inside the checkout and git-ignored
WORK = os.path.join(HERE, ".work")
TRACER = os.path.join(HERE, "e2e_tracer.py")

#: a child that runs this long is hung (the slowest workload takes ~5 s)
CHILD_TIMEOUT_S = 60.0
#: timed cold runs per contract-mode measurement, at least.  Four ~3.5 s
#: runs keep one measurement near 15 s, which is what the acceptance
#: procedure's total time cap leaves room for.
MIN_REPEATS = 4

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - t)"
)

#: registry name -> class that implements the law's on_ack
CC_CLASSES = {
    "powertcp": "PowerTcp",
    "theta-powertcp": "ThetaPowerTcp",
    "hpcc": "Hpcc",
    "timely": "Timely",
    "dcqcn": "Dcqcn",
}


def load_benchmark_json() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child_env(traced: bool = False) -> Dict[str, str]:
    """The complete child environment: nothing is inherited, so a shell
    variable cannot change a measurement."""
    path = [SRC, HERE] if traced else [SRC]
    return {
        "PYTHONPATH": os.pathsep.join(path),
        # set-up compiles the package once; children only read the cache
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONHASHSEED": "0",
    }


@dataclass
class ChildResult:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    timed_out: bool


def run_child(
    argv: List[str],
    env: Dict[str, str],
    cwd: str,
    stdout_path: str,
    stderr_path: str,
    timeout_s: float = CHILD_TIMEOUT_S,
) -> ChildResult:
    """Run one child to completion and account for its whole process tree.

    ``os.wait4`` returns this child's own rusage (user+sys CPU and the
    RSS high-water mark of it and the descendants it reaped) — unlike
    ``RUSAGE_CHILDREN``, whose ``ru_maxrss`` never falls between runs.
    The wait is bounded by a watchdog that kills the child's process
    group, which also reaps any worker the child left behind.
    """
    timed_out = threading.Event()

    def kill_group(pid: int) -> None:
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def on_timeout(pid: int) -> None:
        timed_out.set()
        kill_group(pid)

    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
            stdout=out, stderr=err, start_new_session=True,
        )
        watchdog = threading.Timer(timeout_s, on_timeout, args=(proc.pid,))
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        kill_group(proc.pid)  # no-op unless the child orphaned a worker
    return ChildResult(
        exit_code=proc.returncode,
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        timed_out=timed_out.is_set(),
    )


def stderr_tail(path: str, limit: int = 400) -> str:
    try:
        with open(path, "rb") as handle:
            return handle.read()[-limit:].decode("utf-8", errors="replace").strip()
    except OSError:
        return ""


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
@dataclass
class RunRecord:
    """What one (timed or traced) run produced, after checking."""

    ops_attempted: int
    ops_failed: int
    errors: List[str]
    child: Optional[ChildResult] = None
    fingerprint: Optional[str] = None
    body_s: float = 0.0
    workers: int = 1
    cells: List[Dict[str, Any]] = field(default_factory=list)
    result_bytes: int = 0
    trace: Optional[Dict[str, Any]] = None

    def end_to_end(self) -> Dict[str, float]:
        child = self.child
        return {
            "wall_s": child.wall_s,
            "cpu_s": child.cpu_s,
            # seconds outside simulation bodies on the critical path
            "setup_s": child.wall_s - self.body_s / self.workers,
            "peak_rss_mb": child.peak_rss_mb,
        }


@contextlib.contextmanager
def run_directory(label: str):
    """A fresh directory under WORK for one run, removed afterwards."""
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{label}.", dir=WORK)
    try:
        yield run_dir
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run_workload(workload: Workload, seed: int, tiny: bool, traced: bool) -> RunRecord:
    """One cold ``python -m repro`` run (or one traced run) in a fresh
    directory; outputs are checked before the directory is removed."""
    with run_directory(workload.name) as run_dir:
        plan = workload.plan(seed, tiny, run_dir, traced)
        stdout_path = os.path.join(run_dir, "stdout")
        stderr_path = os.path.join(run_dir, "stderr")
        trace_path = os.path.join(run_dir, "trace.json")
        if traced:
            argv = [sys.executable, TRACER, "--trace-out", trace_path,
                    "--seed", str(seed)]
            for probe in workload.probes:
                argv += ["--probe", probe]
            if tiny:
                argv.append("--tiny")
            argv += ["--"] + plan.argv
        else:
            argv = [sys.executable, "-m", "repro"] + plan.argv
        child = run_child(argv, child_env(traced), run_dir, stdout_path, stderr_path)
        record = RunRecord(plan.cells, plan.cells, [], child=child,
                           workers=plan.workers)
        if child.timed_out:
            record.errors.append(f"timed out after {CHILD_TIMEOUT_S:g} s")
            return record
        if child.exit_code != 0:
            record.errors.append(
                f"exit code {child.exit_code}: {stderr_tail(stderr_path)}"
            )
            return record
        try:
            cells = e2e_workloads.load_cells(plan, stdout_path)
            if traced:
                with open(trace_path) as handle:
                    record.trace = json.load(handle)
        except (OSError, ValueError, KeyError) as exc:
            record.errors.append(f"unreadable output: {exc!r}")
            return record
        bad = [c for c in cells if c.get("status", "ok") != "ok"]
        missing = max(0, plan.cells - len(cells))
        if bad or missing:
            record.errors.append(
                f"{len(bad)} non-ok and {missing} missing of {plan.cells} cells"
            )
        good = [c for c in cells if c.get("status", "ok") == "ok"]
        violations = workload.check(good) if good and not missing else []
        record.errors.extend(violations)
        record.ops_failed = min(plan.cells, len(bad) + missing + len(violations))
        record.cells = good
        record.body_s = e2e_workloads.body_seconds(good)
        record.fingerprint = e2e_workloads.fingerprint(good)
        record.result_bytes = e2e_workloads.output_bytes(plan, stdout_path)
        return record


def measure_import(repeats: int) -> Tuple[float, List[str]]:
    """Median seconds of a cold ``import repro.cli``."""
    samples, errors = [], []
    with run_directory("import") as run_dir:
        out, err = os.path.join(run_dir, "stdout"), os.path.join(run_dir, "stderr")
        for _ in range(repeats):
            child = run_child([sys.executable, "-c", IMPORT_PROBE], child_env(),
                              run_dir, out, err)
            if child.exit_code != 0 or child.timed_out:
                errors.append(f"import probe failed: {stderr_tail(err)}")
                continue
            with open(out) as handle:
                samples.append(float(handle.read()))
    return (statistics.median(samples) if samples else 0.0), errors


# ----------------------------------------------------------------------
# Per-layer metrics from one traced run
# ----------------------------------------------------------------------
def layer_metrics(
    traced: RunRecord, untraced_body_s: float, import_s: float
) -> Dict[str, float]:
    """Every per-layer number, by the names BENCHMARK.json lists.  A layer
    a workload never enters reads 0."""
    trace = traced.trace
    counters, probes = trace["counters"], trace["probes"]
    cells = traced.cells
    #: layer -> [calls, total_s, self_s, in_run_self_s], summed over the
    #: classes that define the layer's method
    layers: Dict[str, List[float]] = {}
    for key, values in trace["slots"].items():
        into = layers.setdefault(key.partition("@")[0], [0, 0.0, 0.0, 0.0])
        for i, value in enumerate(values):
            into[i] += value

    def column(index: int):
        return lambda layer: layers.get(layer, (0, 0.0, 0.0, 0.0))[index]

    calls, total, in_run_self = column(0), column(1), column(3)

    def own_self(key: str) -> float:
        return trace["slots"].get(key, (0, 0.0, 0.0, 0.0))[3]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    run_s = total("sim.engine.run")
    events = counters.get("sim.engine.events", 0)
    body_s = traced.body_s
    sweep_run_s = total("scenarios.sweep.run")
    campaign_run_s = total("campaign.run")
    executed = sum(cell.get("attempts", 1) for cell in cells)
    metrics = {
        "cli.import_s": import_s,
        "topology.build_s": total("topology.build"),
        "topology.build_calls": calls("topology.build"),
        "workloads.generate_s": total("workloads.generate"),
        "experiments.driver.start_flow_s": total("experiments.driver.start_flow"),
        "experiments.driver.start_flow_calls": calls("experiments.driver.start_flow"),
        "sim.engine.run_s": run_s,
        "sim.engine.events": events,
        "sim.engine.events_per_s": ratio(events, run_s),
        # event loop + private tx-completion callbacks + timer/probe ticks
        "sim.engine.residual_s": in_run_self("sim.engine.run"),
        "sim.engine.hold_ns_per_event": probes.get("sim.engine.hold_ns_per_event", 0.0),
        "sim.port.enqueue_calls": calls("sim.port.enqueue") + calls("sim.circuit.enqueue"),
        "sim.port.enqueue_self_s": in_run_self("sim.port.enqueue"),
        "sim.circuit.enqueue_self_s": in_run_self("sim.circuit.enqueue"),
        "sim.port.drops": counters.get("sim.port.drops", 0),
        "sim.port.ecn_marks": counters.get("sim.port.ecn_marks", 0),
        "sim.port.peak_qlen_bytes": counters.get("sim.port.peak_qlen_bytes", 0),
        "sim.port.tx_bytes": counters.get("sim.port.tx_bytes", 0),
        "sim.switch.receive_calls": calls("sim.switch.receive"),
        "sim.switch.receive_self_s": in_run_self("sim.switch.receive"),
        "routing.select_calls": calls("routing.select"),
        "routing.select_self_s": in_run_self("routing.select"),
        "sim.host.calls": calls("sim.host.receive") + calls("sim.host.send"),
        "sim.host.self_s": in_run_self("sim.host.receive") + in_run_self("sim.host.send"),
        "sim.packet.alloc_calls": counters.get("sim.packet.alloc", 0),
        "sim.packet.release_ratio": ratio(
            counters.get("sim.packet.release", 0), counters.get("sim.packet.alloc", 0)
        ),
        "transport.sender.on_packet_calls": calls("transport.sender.on_packet"),
        "transport.sender.on_packet_self_s": in_run_self("transport.sender.on_packet"),
        "transport.receiver.on_packet_calls": calls("transport.receiver.on_packet"),
        "transport.receiver.on_packet_self_s": in_run_self(
            "transport.receiver.on_packet"
        ),
        "transport.retransmissions": counters.get("transport.retransmissions", 0),
        "transport.reorder_events": counters.get("transport.reorder_events", 0),
        "transport.flows_completed": counters.get("transport.flows_completed", 0),
        "transport.flows_total": counters.get("transport.flows_total", 0),
        "cc.on_ack_calls": calls("cc.on_ack"),
        "cc.on_ack_self_s": in_run_self("cc.on_ack"),
        "cc.homa.on_packet_self_s": own_self("transport.sender.on_packet@HomaSender")
        + own_self("transport.receiver.on_packet@HomaReceiver"),
        "scenarios.body_s": body_s,
        "scenarios.collect_s": total("scenarios.collect"),
        "scenarios.serialize_s": total("scenarios.serialize"),
        "scenarios.result_bytes": traced.result_bytes,
        "scenarios.sweep.run_s": sweep_run_s,
        "scenarios.sweep.persist_s": total("scenarios.sweep.persist"),
        "scenarios.sweep.cells": len(cells) if sweep_run_s else 0,
        "scenarios.sweep.overhead_ms_per_cell": ratio(
            sweep_run_s * traced.workers - body_s, len(cells)
        ) * 1e3 if sweep_run_s else 0.0,
        "campaign.run_s": campaign_run_s,
        "campaign.spawn_s": probes.get("campaign.spawn_s", 0.0),
        "campaign.journal_append_us": probes.get("campaign.journal_append_us", 0.0),
        "campaign.overhead_ms_per_cell": ratio(
            campaign_run_s * traced.workers - body_s, len(cells)
        ) * 1e3 if campaign_run_s else 0.0,
        "campaign.cells_executed": executed if campaign_run_s else 0,
        "campaign.cells_retried": executed - len(cells) if campaign_run_s else 0,
        "campaign.cells_failed": traced.ops_failed if campaign_run_s else 0,
        "analysis.results.merge_s": total("analysis.results.merge"),
        "persist.atomic_write_ms": probes.get("persist.atomic_write_ms", 0.0),
        "trace.overhead_ratio": ratio(body_s, untraced_body_s),
    }
    for algorithm, cls in CC_CLASSES.items():
        metrics[f"cc.on_ack_self_s.{algorithm}"] = own_self(f"cc.on_ack@{cls}")
    return metrics


# ----------------------------------------------------------------------
# Measuring a workload
# ----------------------------------------------------------------------
def summarize(values: List[float]) -> Dict[str, Any]:
    """Median with min and quartiles beside it."""
    quartiles = (
        statistics.quantiles(values, n=4) if len(values) >= 2 else [values[0]] * 3
    )
    return {
        "value": statistics.median(values),
        "min": min(values),
        "q1": quartiles[0],
        "q3": quartiles[2],
        "samples": values,
    }


@dataclass
class WorkloadResult:
    name: str
    ops_attempted: int = 0
    ops_failed: int = 0
    errors: List[str] = field(default_factory=list)
    fingerprint: Optional[str] = None
    end_to_end: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    spans: List[list] = field(default_factory=list)
    untraced_body_s: float = 0.0

    def add(self, record: RunRecord, label: str) -> None:
        self.ops_attempted += record.ops_attempted
        failed = record.ops_failed
        if record.fingerprint is not None:
            if self.fingerprint is None:
                self.fingerprint = record.fingerprint
            elif record.fingerprint != self.fingerprint:
                # simulated statistics must repeat exactly, run to run
                # and traced to untraced
                record.errors.append(
                    f"sim_fingerprint {record.fingerprint[:12]} differs from "
                    f"{self.fingerprint[:12]}"
                )
                failed = record.ops_attempted
        self.ops_failed += failed
        self.errors.extend(f"{label}: {error}" for error in record.errors)


def measure_timed(
    result: WorkloadResult, workload: Workload, seed: int, tiny: bool,
    repeats: int, seconds: float,
) -> None:
    """Cold runs, closed loop: the next starts when the last one ended.
    Runs at least ``repeats`` times and until ``seconds`` have passed."""
    samples: Dict[str, List[float]] = {}
    bodies = []
    started = time.perf_counter()
    count = 0
    while count < repeats or time.perf_counter() - started < seconds:
        count += 1
        record = run_workload(workload, seed, tiny, traced=False)
        result.add(record, f"run {count}")
        if record.fingerprint is None:
            continue
        bodies.append(record.body_s)
        for name, value in record.end_to_end().items():
            samples.setdefault(name, []).append(value)
    result.end_to_end = {name: summarize(values) for name, values in samples.items()}
    result.untraced_body_s = statistics.median(bodies) if bodies else 0.0


def measure_traced(
    result: WorkloadResult, workload: Workload, seed: int, tiny: bool,
    import_repeats: int,
) -> None:
    import_s, errors = measure_import(import_repeats)
    result.errors.extend(errors)
    record = run_workload(workload, seed, tiny, traced=True)
    result.add(record, "traced run")
    if record.trace is None:
        return
    result.per_layer = layer_metrics(record, result.untraced_body_s, import_s)
    result.spans = record.trace["spans"]
    sim_events = sum(c["provenance"]["events_processed"] for c in record.cells)
    if result.per_layer["sim.engine.events"] != sim_events:
        result.errors.append(
            f"traced run: tracer saw {result.per_layer['sim.engine.events']} "
            f"events, the program reported {sim_events}"
        )
        result.ops_failed = max(result.ops_failed, 1)


def prepare() -> None:
    """Set-up shared by every run: compile the package once, so that cold
    children read bytecode like an installed package would (a fresh
    checkout has no ``__pycache__``)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(
            f"bench.py measures the repro package, and {SRC}/repro is missing"
        )
    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=2)
    sys.path.insert(0, SRC)  # e2e_workloads shapes inputs with repro's generators


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def with_units(values: Dict[str, Any], specs: List[Dict[str, str]]) -> Dict[str, Any]:
    """Attach BENCHMARK.json's unit to each metric it names; a metric the
    file names and the harness did not produce is an error."""
    out = {}
    for spec in specs:
        value = values[spec["name"]]
        entry = dict(value) if isinstance(value, dict) else {"value": value}
        entry["unit"] = spec["unit"]
        out[spec["name"]] = entry
    return out


def print_workload(result: WorkloadResult, doc: Dict[str, Any]) -> None:
    print(f"== {result.name}: ops {result.ops_attempted} attempted, "
          f"{result.ops_failed} failed; sim_fingerprint "
          f"{(result.fingerprint or 'none')[:16]}")
    for name, entry in doc["end_to_end"].items():
        print(f"  {name:42s} {entry['value']:12.4f} {entry['unit']:6s} "
              f"min {entry['min']:.4f}  q1 {entry['q1']:.4f}  q3 {entry['q3']:.4f}  "
              f"n={len(entry['samples'])}")
    for name, entry in doc["per_layer"].items():
        print(f"  {name:42s} {entry['value']:12.6g} {entry['unit']}")
    for error in result.errors:
        print(f"  ERROR {error}")


def workload_doc(result: WorkloadResult, spec: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "ops_attempted": result.ops_attempted,
        "ops_failed": result.ops_failed,
        "sim_fingerprint": result.fingerprint,
        "errors": result.errors,
        "end_to_end": with_units(result.end_to_end, spec["end_to_end"])
        if result.end_to_end else {},
        "per_layer": with_units(result.per_layer, spec["per_layer"])
        if result.per_layer else {},
        "spans": result.spans,
    }


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_all(args, spec: Dict[str, Any]) -> int:
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; known: {list(WORKLOADS)}")
    prepare()
    results = {}
    docs = {}
    for name in names:
        result = WorkloadResult(name)
        measure_timed(result, WORKLOADS[name], args.seed, args.tiny,
                      args.repeats, seconds=0.0)
        measure_traced(result, WORKLOADS[name], args.seed, args.tiny,
                       import_repeats=1 if args.tiny else 5)
        results[name] = result
    sweep, campaign = results.get("sweep_grid"), results.get("campaign_grid")
    if sweep and campaign and sweep.fingerprint != campaign.fingerprint:
        # same cells, same seed, two executors: per-cell metrics must agree
        campaign.errors.append("per-cell metrics differ from sweep_grid's")
        campaign.ops_failed = campaign.ops_attempted
    for name, result in results.items():
        docs[name] = workload_doc(result, spec)
        print_workload(result, docs[name])
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seed": args.seed, "repeats": args.repeats,
                       "tiny": args.tiny, "workloads": docs}, handle, indent=1)
        print(f"wrote {args.out}")
    return 1 if any(r.ops_failed or r.errors for r in results.values()) else 0


def run_one(args, spec: Dict[str, Any]) -> int:
    """The BENCHMARK.json contract: one workload, one JSON result line."""
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; known: {list(WORKLOADS)}")
    prepare()
    workload = WORKLOADS[args.workload]
    result = WorkloadResult(workload.name)
    if args.trace:
        measure_timed(result, workload, args.seed, False, repeats=1, seconds=0.0)
        measure_traced(result, workload, args.seed, False, import_repeats=5)
        values, specs = result.per_layer, spec["per_layer"]
    else:
        measure_timed(result, workload, args.seed, False, MIN_REPEATS, args.seconds)
        values, specs = result.end_to_end, spec["end_to_end"]
    for error in result.errors:
        print(f"ERROR {error}", file=sys.stderr)
    if not values:
        return 1  # nothing measured: no result line
    print(json.dumps({
        "correct": result.ops_failed == 0 and not result.errors,
        "attempted": result.ops_attempted,
        "failed": result.ops_failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in with_units(values, specs).items()},
    }))
    return 0


def compare(path_a: str, path_b: str, spec: Dict[str, Any]) -> int:
    """Per workload x end-to-end metric: both medians, B/A, and a verdict
    against the metric's bound.  UNRESOLVED when either side's own spread
    (IQR/median) exceeds the bound, unless every B run beats every A run."""
    with open(path_a) as handle:
        a_doc = json.load(handle)["workloads"]
    with open(path_b) as handle:
        b_doc = json.load(handle)["workloads"]
    failed = False
    print(f"{'workload':20s} {'metric':12s} {'A':>10s} {'B':>10s} {'B/A':>7s} "
          f"{'bound':>6s}  verdict")
    for name in a_doc:
        if name not in b_doc:
            continue
        a_wl, b_wl = a_doc[name], b_doc[name]
        notes = []
        if a_wl["ops_failed"] or b_wl["ops_failed"]:
            notes.append(f"ops_failed A={a_wl['ops_failed']} B={b_wl['ops_failed']}")
            failed = True
        if a_wl["sim_fingerprint"] != b_wl["sim_fingerprint"]:
            notes.append("sim_fingerprint differs")
        for metric in spec["end_to_end"]:
            a, b = a_wl["end_to_end"].get(metric["name"]), b_wl["end_to_end"].get(metric["name"])
            if a is None or b is None:
                continue
            bound = metric["bound"]
            ratio = b["value"] / a["value"]
            spread = max((e["q3"] - e["q1"]) / e["value"] for e in (a, b))
            if max(b["samples"]) < min(a["samples"]):
                verdict = "PASS"  # every B run better than every A run
            elif spread > bound:
                verdict = "UNRESOLVED"
            elif ratio > 1.0 + bound:
                verdict = "FAIL"
                failed = True
            else:
                verdict = "PASS"
            print(f"{name:20s} {metric['name']:12s} {a['value']:10.4f} "
                  f"{b['value']:10.4f} {ratio:7.3f} {bound:6.2f}  {verdict}"
                  f"  (base A={a['value']:.4f} {metric['unit']}, spread {spread:.3f})")
        for note in notes:
            print(f"{name:20s} NOTE {note}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed cold runs per workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tiny", action="store_true",
                        help="sub-second sizes (smoke test; not a measurement)")
    parser.add_argument("--out", help="write the result document here")
    parser.add_argument("--workload", help="contract mode: the one workload to run")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="contract mode: keep measuring this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract mode: 1 reports the per-layer metrics")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    spec = load_benchmark_json()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
