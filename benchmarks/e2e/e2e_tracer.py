"""Outside-in tracer: the child script of one traced benchmark run.

``python e2e_tracer.py --trace-out FILE [--probe NAME ...] -- <repro argv>``
installs timing wrappers on the public entry points of each ``repro``
layer, then runs the unmodified ``repro.cli.main(<repro argv>)`` — the
same command line the timed cold runs use, so outputs and simulated
statistics are comparable one to one.

Wrappers go on at *class level*, on the base class and on every subclass
that overrides the method, before any simulator object exists: ports and
switches cache bound callbacks (``peer.receive``) at construction, and a
later patch would miss them.  Module-level functions are replaced in
every ``repro`` module namespace that imported them by name.

Two kinds of record, both kept in memory and written at exit:

* **spans** for phase calls (a scenario run, a topology build, a sweep,
  a persist): ``[name, start_s, end_s, parent_index, run_id]``, where
  ``run_id`` numbers the enclosing ``Scenario.run`` (one scenario cell);
* **aggregates** for hot-path calls: ``[calls, total_s, self_s,
  in_run_self_s]`` per layer and defining class.  The span stack is the Python call stack:
  each wrapper saves the open span's child-time accumulator, runs the
  call, and charges its own duration to the parent.  Self time is the
  duration minus what wrapped callees covered.

What this cannot see: callbacks the engine fires on private methods
(``EgressPort._finish_tx``, pacing/RTO timers, probe ticks) have no
public entry point to wrap, so their time stays in the self time of
``Simulator.run`` — reported as ``sim.engine.residual_s``.

Worker processes (the sweep's forked pool, the campaign's spawned
workers, which load this module through the manifest's ``modules`` list
— see ``e2e_worker_hook``) write their aggregates to
``trace-worker-<pid>.json`` in the working directory after every cell;
the root process merges them.
"""

from __future__ import annotations

import argparse
import functools
import glob
import importlib
import json
import os
import random
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional

_now = time.perf_counter

#: hot-path methods: (module, class, method, layer).  The base class and
#: every subclass that overrides the method are wrapped; each gets its own
#: ``layer@Class`` aggregate, and reports sum them per layer.
HOT_METHODS = [
    ("repro.sim.port", "EgressPort", "enqueue", "sim.port.enqueue"),
    ("repro.sim.switch", "Switch", "receive", "sim.switch.receive"),
    ("repro.routing.base", "RoutingPolicy", "select", "routing.select"),
    ("repro.sim.host", "Host", "receive", "sim.host.receive"),
    ("repro.sim.host", "Host", "send", "sim.host.send"),
    ("repro.transport.sender", "Sender", "on_packet", "transport.sender.on_packet"),
    ("repro.transport.receiver", "Receiver", "on_packet",
     "transport.receiver.on_packet"),
    ("repro.cc.base", "CongestionControl", "on_ack", "cc.on_ack"),
    ("repro.experiments.driver", "FlowDriver", "start_flow",
     "experiments.driver.start_flow"),
    ("repro.topology.network", "Network", "flow_pairs", "workloads.generate"),
]

#: an override defined in one of these modules is its own layer: the VOQ
#: port runs the general (non-inlined) port body, which is the point of
#: the rdcn_circuit workload.
LAYER_BY_DEFINING_MODULE = {
    ("repro.sim.circuit", "enqueue"): "sim.circuit.enqueue",
}

#: layers whose wrapped callables call one another (an override reaching
#: its base through super(), a generator built on another): calls and
#: total time count at the outermost entry only, so nothing is counted
#: twice.  The other hot layers skip that bookkeeping.
CHAINED_LAYERS = frozenset(
    {"transport.sender.on_packet", "transport.receiver.on_packet",
     "workloads.generate"}
)

#: phase methods, recorded as spans as well as aggregated
PHASE_METHODS = [
    ("repro.scenarios.base", "Scenario", "run", "scenarios.run"),
    ("repro.scenarios.base", "Scenario", "collect", "scenarios.collect"),
    ("repro.scenarios.base", "ScenarioResult", "to_json_dict",
     "scenarios.serialize"),
    ("repro.scenarios.sweep", "SweepResult", "to_json_dict", "scenarios.serialize"),
    ("repro.scenarios.sweep", "SweepRunner", "run", "scenarios.sweep.run"),
    ("repro.scenarios.sweep", "SweepResult", "persist", "scenarios.sweep.persist"),
    ("repro.campaign.orchestrator", "Campaign", "run", "campaign.run"),
    ("repro.sim.engine", "Simulator", "run", "sim.engine.run"),
    ("repro.experiments.driver", "FlowDriver", "run", "experiments.driver.run"),
]

#: phase functions: (module, function, layer)
PHASE_FUNCTIONS = [
    ("repro.topology.registry", "build_topology", "topology.build"),
    ("repro.analysis.results", "merge_campaign", "analysis.results.merge"),
    ("repro.persist", "atomic_write_json", "persist.atomic_write"),
]

#: every public function these modules define is a workload generator
GENERATOR_MODULES = [
    "repro.workloads.arrivals",
    "repro.workloads.incast",
    "repro.workloads.permutation",
]

#: count-only wrappers (no clock reads: these run once or twice per packet)
COUNTED_METHODS = [
    ("repro.sim.packet", "PacketPool", ("data", "ack", "cnp", "grant"),
     "sim.packet.alloc"),
    ("repro.sim.packet", "PacketPool", ("release", "release_with_hops"),
     "sim.packet.release"),
]

#: counters merged across processes by max, not by sum
MAX_COUNTERS = ("sim.port.peak_qlen_bytes",)

WORKER_FILE_PREFIX = "trace-worker-"

ENGINE_RUN = "sim.engine.run"


def _subclasses(cls) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


class Tracer:
    """Aggregates, spans and counters of one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: pid of the process that runs the traced command (None in a
        #: campaign worker, which only ever traces cells)
        self.root_pid: Optional[int] = None
        #: child-time accumulator of the innermost open wrapper
        self.acc = [0.0]
        #: "layer@Owner" -> [calls, total_s, self_s, in_run_self_s]
        self.slots: Dict[str, List[float]] = {}
        #: layer -> [open wrappers of that layer on the call stack]
        self.depths: Dict[str, List[int]] = {}
        self.counters: Dict[str, float] = {}
        self.spans: List[list] = []
        self._open_span = [-1]
        self._run_id = [0]
        self._in_run_snapshot: Optional[List[float]] = None

    # -- bookkeeping ----------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def reset(self) -> None:
        """Zero everything in place (wrappers hold the lists)."""
        for slot in self.slots.values():
            slot[:] = [0, 0.0, 0.0, 0.0]
        for depth in self.depths.values():
            depth[0] = 0
        for key in self.counters:  # counted() wrappers index by key
            self.counters[key] = 0
        del self.spans[:]
        self.acc[0] = 0.0
        self._open_span[0] = -1
        self._run_id[0] = 0
        self.pid = os.getpid()

    # -- wrappers -------------------------------------------------------
    def hot(self, fn: Callable, layer: str, owner: str) -> Callable:
        """Aggregate-only timing wrapper."""
        acc = self.acc
        slot = self.slots.setdefault(f"{layer}@{owner}", [0, 0.0, 0.0, 0.0])
        if layer not in CHAINED_LAYERS:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                saved = acc[0]
                acc[0] = 0.0
                start = _now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = _now() - start
                    slot[0] += 1
                    slot[1] += duration
                    slot[2] += duration - acc[0]
                    acc[0] = saved + duration

            return wrapper

        depth = self.depths.setdefault(layer, [0])

        @functools.wraps(fn)
        def chained_wrapper(*args, **kwargs):
            saved = acc[0]
            acc[0] = 0.0
            depth[0] += 1
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _now() - start
                depth[0] -= 1
                if not depth[0]:  # outermost call of this layer
                    slot[0] += 1
                    slot[1] += duration
                slot[2] += duration - acc[0]
                acc[0] = saved + duration

        return chained_wrapper

    def phase(
        self,
        fn: Callable,
        layer: str,
        owner: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """Span-recording timing wrapper; ``before(args)`` and
        ``after(args, result)`` hooks run outside the timed region."""
        acc = self.acc
        slot = self.slots.setdefault(f"{layer}@{owner}", [0, 0.0, 0.0, 0.0])
        depth = self.depths.setdefault(layer, [0])
        spans = self.spans
        open_span = self._open_span
        run_id = self._run_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            saved = acc[0]
            acc[0] = 0.0
            parent = open_span[0]
            index = open_span[0] = len(spans)
            record = [layer, 0.0, 0.0, parent, run_id[0]]
            spans.append(record)
            depth[0] += 1
            result = None
            start = _now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _now()
                duration = end - start
                depth[0] -= 1
                if not depth[0]:
                    slot[0] += 1
                    slot[1] += duration
                slot[2] += duration - acc[0]
                acc[0] = saved + duration
                record[1] = start
                record[2] = end
                open_span[0] = parent
                if after is not None:
                    after(args, result)

        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks on specific phases ----------------------------------------
    def _before_scenario_run(self, _args) -> None:
        if os.getpid() != self.pid:
            # A forked pool worker inherited the parent's records; it
            # reports only its own cells.
            self.reset()
        self._run_id[0] += 1

    def _after_scenario_run(self, _args, _result) -> None:
        if os.getpid() != self.root_pid:
            # Workers exit through os._exit (pool) or on a pipe close
            # (campaign); rewriting the file after each cell is the one
            # flush point both have.
            self.write(
                os.path.join(os.getcwd(), f"{WORKER_FILE_PREFIX}{os.getpid()}.json")
            )

    def _before_engine_run(self, _args) -> None:
        if self.depths[ENGINE_RUN][0] == 0:
            self._in_run_snapshot = [s[2] for s in self.slots.values()]

    def _after_engine_run(self, _args, processed) -> None:
        if self.depths[ENGINE_RUN][0] == 0 and self._in_run_snapshot:
            for slot, before in zip(self.slots.values(), self._in_run_snapshot):
                slot[3] += slot[2] - before
            self._in_run_snapshot = None
        self.count("sim.engine.events", processed or 0)

    def _after_driver_run(self, args, _result) -> None:
        """Harvest the model's own counters once the flows have run."""
        driver = args[0]
        net = driver.net
        ports = [p for s in net.switches for p in s.ports]
        ports += [h.nic for h in net.hosts if h.nic is not None]
        self.count("sim.port.drops", sum(p.drops for p in ports))
        self.count("sim.port.ecn_marks", sum(p.marks for p in ports))
        self.count("sim.port.tx_bytes", sum(p.tx_bytes for p in ports))
        peak = max((p.max_qlen_bytes for p in ports), default=0)
        self.counters["sim.port.peak_qlen_bytes"] = max(
            peak, self.counters.get("sim.port.peak_qlen_bytes", 0)
        )
        flows = driver.flows
        self.count("transport.flows_total", len(flows))
        self.count("transport.flows_completed", sum(1 for f in flows if f.completed))
        self.count(
            "transport.retransmissions", sum(f.retransmissions for f in flows)
        )
        self.count(
            "transport.reorder_events",
            sum(r.out_of_order for r in driver.receivers.values()),
        )

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        """Patch every layer.  Imports all layer modules first so the
        subclass walk sees every override."""
        from repro.cc.registry import load_builtin_algorithms
        from repro.routing.registry import load_builtin_policies
        from repro.scenarios.registry import load_builtin_scenarios
        from repro.topology.registry import load_builtin_topologies

        import repro.campaign  # noqa: F401  (orchestrator + executor)
        import repro.cli  # noqa: F401  (holds by-name imports to repoint)

        # The registries import their members lazily; a class that is not
        # defined yet cannot be found by the subclass walk below.
        load_builtin_scenarios()
        load_builtin_algorithms()
        load_builtin_policies()
        load_builtin_topologies()

        hooks = {
            "scenarios.run": (self._before_scenario_run, self._after_scenario_run),
            ENGINE_RUN: (self._before_engine_run, self._after_engine_run),
            "experiments.driver.run": (None, self._after_driver_run),
        }
        for module, cls_name, method, layer in PHASE_METHODS:
            before, after = hooks.get(layer, (None, None))
            self._wrap_method(
                module, cls_name, method, layer,
                lambda fn, lay, owner, b=before, a=after: self.phase(
                    fn, lay, owner, b, a
                ),
            )
        for module, cls_name, method, layer in HOT_METHODS:
            self._wrap_method(module, cls_name, method, layer, self.hot)
        for module, cls_name, methods, name in COUNTED_METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                setattr(cls, method, self.counted(cls.__dict__[method], name))
        for module, name, layer in PHASE_FUNCTIONS:
            fn = getattr(importlib.import_module(module), name)
            self._replace_function(fn, self.phase(fn, layer, name))
        for module in GENERATOR_MODULES:
            mod = importlib.import_module(module)
            for name, fn in sorted(vars(mod).items()):
                if (
                    callable(fn)
                    and not isinstance(fn, type)
                    and not name.startswith("_")
                    and getattr(fn, "__module__", None) == module
                ):
                    self._replace_function(
                        fn, self.hot(fn, "workloads.generate", name)
                    )

    def _wrap_method(self, module, cls_name, method, layer, make) -> None:
        base = getattr(importlib.import_module(module), cls_name)
        for cls in [base] + _subclasses(base):
            fn = cls.__dict__.get(method)
            if fn is None or isinstance(fn, (staticmethod, classmethod, property)):
                continue
            target = LAYER_BY_DEFINING_MODULE.get((cls.__module__, method), layer)
            setattr(cls, method, make(fn, target, cls.__name__))

    @staticmethod
    def _replace_function(original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    # -- output -----------------------------------------------------------
    def to_doc(self) -> Dict[str, Any]:
        return {
            "pid": os.getpid(),
            "slots": {k: list(v) for k, v in self.slots.items()},
            "counters": dict(self.counters),
            "spans": list(self.spans),
        }

    def write(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(self.to_doc(), handle)
        os.replace(tmp, path)


def merge_docs(root: Dict[str, Any], workers: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold worker documents into the root's: times and counts add up,
    spans concatenate (tagged with their process)."""
    merged = {
        "slots": {k: list(v) for k, v in root["slots"].items()},
        "counters": dict(root["counters"]),
        "spans": [span + [root["pid"]] for span in root["spans"]],
        "processes": 1 + len(workers),
    }
    for doc in workers:
        for key, values in doc["slots"].items():
            into = merged["slots"].setdefault(key, [0] * len(values))
            for i, value in enumerate(values):
                into[i] += value
        for key, value in doc["counters"].items():
            if key in MAX_COUNTERS:
                merged["counters"][key] = max(merged["counters"].get(key, 0), value)
            else:
                merged["counters"][key] = merged["counters"].get(key, 0) + value
        merged["spans"].extend(span + [doc["pid"]] for span in doc["spans"])
    return merged


#: the process-wide tracer once installed (class-level patches are
#: process-wide by nature, so this is too)
ACTIVE: Optional[Tracer] = None


def install() -> Tracer:
    """Install the wrappers once per process; returns the tracer."""
    global ACTIVE
    if ACTIVE is None:
        tracer = Tracer()
        tracer.install()
        ACTIVE = tracer
    return ACTIVE


# ----------------------------------------------------------------------
# Probes: small timed loops on public APIs, run after the traced command
# ----------------------------------------------------------------------
def probe_hold(seed: int, events: int) -> Dict[str, float]:
    """Hold-model cost of the scheduler: 1024 pending events, each firing
    schedules one successor, timed through ``after``/``run``."""
    from repro.sim.engine import Simulator

    rng = random.Random(seed)
    delays = [rng.randrange(1, 2048) for _ in range(4096)]
    sim = Simulator()

    def fire(i: int) -> None:
        sim.after(delays[i & 4095], fire, i + 1)

    for i in range(1024):
        sim.after(delays[i], fire, i)
    start = _now()
    processed = sim.run(max_events=events)
    elapsed = _now() - start
    return {"sim.engine.hold_ns_per_event": elapsed / processed * 1e9}


def probe_spawn(_seed: int, _size: int) -> Dict[str, float]:
    """Cost of bringing up the campaign's two worker subprocesses."""
    from repro.campaign.executor import LocalPoolExecutor

    executor = LocalPoolExecutor()
    try:
        start = _now()
        executor.ensure_workers(2)
        elapsed = _now() - start
    finally:
        executor.shutdown()
    return {"campaign.spawn_s": elapsed}


def probe_journal(_seed: int, appends: int) -> Dict[str, float]:
    """Per-record cost of the fsynced campaign journal."""
    from repro.campaign.journal import Journal

    record = {
        "event": "cell_ok",
        "cell": {"params": {"algorithm": "powertcp", "fanout": 8},
                 "metrics": {f"m{i}": i * 0.5 for i in range(8)},
                 "series": {"times_ns": list(range(200))}},
    }
    journal = Journal(os.path.join(os.getcwd(), "probe.journal"), fsync=True)
    try:
        start = _now()
        for _ in range(appends):
            journal.append(record)
        elapsed = _now() - start
    finally:
        journal.delete()
    return {"campaign.journal_append_us": elapsed / appends * 1e6}


def probe_atomic_write(_seed: int, repeats: int) -> Dict[str, float]:
    """Atomic persist of a document the size of one campaign shard."""
    from repro.persist import atomic_write_json

    cell = {"metrics": {f"m{i}": i * 0.5 for i in range(8)},
            "series": {k: list(range(200)) for k in ("a", "b", "c")}}
    doc = {"cells": [cell] * 72}
    path = os.path.join(os.getcwd(), "probe-shard.json")
    samples = []
    for _ in range(repeats):
        start = _now()
        atomic_write_json(path, doc)
        samples.append(_now() - start)
    os.unlink(path)
    return {"persist.atomic_write_ms": statistics.median(samples) * 1e3}


#: name -> (function, full size, tiny size)
PROBES = {
    "hold": (probe_hold, 200_000, 20_000),
    "spawn": (probe_spawn, 0, 0),
    "journal": (probe_journal, 200, 20),
    "atomic_write": (probe_atomic_write, 5, 2),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--probe", action="append", default=[], choices=sorted(PROBES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    tracer = install()
    tracer.root_pid = os.getpid()
    from repro.cli import main as repro_main

    exit_code = repro_main(command)

    root = tracer.to_doc()
    workers = []
    for path in sorted(glob.glob(os.path.join(os.getcwd(), WORKER_FILE_PREFIX + "*.json"))):
        with open(path) as handle:
            workers.append(json.load(handle))
    doc = merge_docs(root, workers)
    doc["exit_code"] = exit_code
    doc["probes"] = {}
    for name in args.probe:
        fn, full, tiny = PROBES[name]
        doc["probes"].update(fn(args.seed, tiny if args.tiny else full))
    with open(args.trace_out, "w") as handle:
        json.dump(doc, handle)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
