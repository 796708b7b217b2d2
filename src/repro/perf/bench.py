"""Macro perf-benchmark definitions and the BENCH_perf.json writer.

Each :class:`PerfCase` runs one registered scenario at a fixed, named
configuration and reports the engine-level throughput numbers that a
perf-focused PR must move: ``events_processed``, ``wall_time_s``, and
``events_per_sec``.  The scenario's scalar metrics ride along as a
determinism fingerprint — a perf change that alters simulation *results*
shows up as a metrics diff, not just a timing diff.

Three macro workloads cover the simulator's distinct hot-path mixes:

* ``incast``        — dumbbell, synchronized burst, probe-tick heavy;
* ``websearch_fct`` — fat-tree, Poisson arrivals, INT + ECMP heavy
  (the acceptance benchmark for hot-path PRs);
* ``permutation``   — fat-tree, all hosts active, long-lived windows
  (``lb_matrix`` at its default one-permutation load under ECMP).

Engine-configuration variants rerun a workload under non-default engine
settings (``PerfCase.engine`` → :func:`repro.sim.engine.engine_defaults`):
``incast_compiled`` / ``websearch_compiled`` / ``permutation_compiled``
are derived from their base case and drain the identical workload with
the compiled event core (skipped with a note when the extension is not
built).  A variant may change speed, never results: ``run_perf`` flags
one whose ``events_processed`` or ``metrics`` differ from the same-run
default-engine entry with ``fingerprint_mismatch``
(``docs/INVARIANTS.md#compiled-parity``).  When a reference document has
no entry with the variant's name *and* engine configuration, the variant
borrows the reference entry with the same ``(scenario, overrides)``
workload and *default* engine config — so the recorded speedup is
engine-on vs engine-off over the identical workload.

``run_perf`` executes a case list (optionally the reduced ``tiny`` grid
used by CI smoke jobs) and ``write_bench`` persists the document; pass a
previous document via ``compare`` to record per-case speedups so the
committed ``BENCH_perf.json`` carries the before/after evidence.
:func:`append_history` accumulates snapshots into the tracked
``benchmarks/results/perf_history.json`` consumed by
:func:`repro.analysis.results.perf_trend`.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional

from repro.scenarios import get_scenario
from repro.sim.engine import engine_defaults
from repro.units import MSEC

#: schema version of the BENCH_perf.json document
BENCH_SCHEMA = 1

#: default persistence path (repo root when invoked from the checkout)
DEFAULT_BENCH_PATH = "BENCH_perf.json"

#: tracked history of per-PR snapshots (see :func:`append_history`)
DEFAULT_HISTORY_PATH = "benchmarks/results/perf_history.json"


@dataclass(frozen=True)
class PerfCase:
    """One named macro-benchmark over a registered scenario."""

    name: str
    scenario: str
    overrides: Dict[str, Any] = field(default_factory=dict)
    #: reduced configuration for CI smoke runs (``--tiny``)
    tiny: Dict[str, Any] = field(default_factory=dict)
    #: engine configuration applied via ``engine_defaults`` around the
    #: run (e.g. ``{"scheduler": "compiled"}``); empty = engine defaults
    engine: Dict[str, Any] = field(default_factory=dict)

    def config(self, tiny: bool = False) -> Dict[str, Any]:
        """The override set this case runs at."""
        return dict(self.tiny if tiny else self.overrides)


#: the default-engine macro workloads
_BASE_CASES = (
    PerfCase(
        name="incast",
        scenario="incast",
        overrides=dict(
            algorithm="powertcp",
            fanout=64,
            burst_bytes=60_000,
            duration_ns=8 * MSEC,
        ),
        tiny=dict(
            algorithm="powertcp",
            fanout=8,
            burst_bytes=20_000,
            duration_ns=1 * MSEC,
        ),
    ),
    PerfCase(
        name="websearch_fct",
        scenario="websearch",
        overrides=dict(
            algorithm="powertcp",
            load=0.6,
            duration_ns=20 * MSEC,
            drain_ns=40 * MSEC,
            size_scale=1 / 16,
            max_flows=300,
            seed=1,
        ),
        tiny=dict(
            algorithm="powertcp",
            load=0.4,
            duration_ns=2 * MSEC,
            drain_ns=6 * MSEC,
            size_scale=1 / 16,
            max_flows=15,
            seed=1,
        ),
    ),
    PerfCase(
        name="permutation",
        scenario="lb_matrix",
        overrides=dict(
            algorithm="powertcp",
            flow_bytes=1_000_000,
            duration_ns=4 * MSEC,
            drain_ns=16 * MSEC,
            seed=1,
        ),
        tiny=dict(
            algorithm="powertcp",
            flow_bytes=50_000,
            duration_ns=1 * MSEC,
            drain_ns=3 * MSEC,
            seed=1,
        ),
    ),
)

#: the tracked grid, in reporting order
PERF_CASES: Dict[str, PerfCase] = {
    case.name: case
    for case in (
        *_BASE_CASES,
        # The optional C drain loop over the identical workloads (skipped
        # when the extension is not built).  Their --compare speedups
        # measure compiled vs the default engine.
        *(
            replace(
                base,
                # incast / websearch_fct / permutation -> incast_compiled,
                # websearch_compiled, permutation_compiled
                name=f"{base.name.partition('_')[0]}_compiled",
                engine={"scheduler": "compiled"},
            )
            for base in _BASE_CASES
        ),
    )
}


def case_names() -> List[str]:
    """Names of the tracked cases, in reporting order."""
    return list(PERF_CASES)


def run_case(
    case: PerfCase, *, tiny: bool = False, repeats: int = 1
) -> Dict[str, Any]:
    """Execute one case ``repeats`` times; report the best run.

    Simulations are deterministic, so repeats only de-noise the wall
    clock — the *fastest* run is the least-perturbed measurement and is
    what ``events_per_sec`` reports.  Scalar metrics come from the first
    run and double as a determinism fingerprint.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if case.engine.get("scheduler") in ("compiled", "best"):
        # A missing optional accelerator is a skip note, never a red
        # grid (the no-compiler install must run the whole suite on the
        # pure-Python path).
        from repro.sim import compiled_available, compiled_error

        if not compiled_available():
            return {
                "case": case.name,
                "scenario": case.scenario,
                "overrides": case.config(tiny),
                "skipped": f"compiled core unavailable: {compiled_error()}",
            }
    scenario = get_scenario(case.scenario)
    overrides = case.config(tiny)
    runs: List[Dict[str, float]] = []
    metrics: Dict[str, Any] = {}
    with engine_defaults(**case.engine):
        for i in range(repeats):
            result = scenario.run(**overrides)
            events = int(result.provenance.get("events_processed") or 0)
            wall_s = float(result.provenance.get("wall_time_s") or 0.0)
            runs.append(
                {
                    "events_processed": events,
                    "wall_time_s": wall_s,
                    "events_per_sec": events / wall_s if wall_s > 0 else 0.0,
                }
            )
            if i == 0:
                metrics = {
                    k: v for k, v in sorted(result.metrics.items())
                    if v is None or isinstance(v, (int, float, bool, str))
                }
    best = max(runs, key=lambda r: r["events_per_sec"])
    entry = {
        "case": case.name,
        "scenario": case.scenario,
        "overrides": overrides,
        "events_processed": best["events_processed"],
        "wall_time_s": round(best["wall_time_s"], 4),
        "events_per_sec": round(best["events_per_sec"], 1),
        "runs": [
            {
                "events_processed": r["events_processed"],
                "wall_time_s": round(r["wall_time_s"], 4),
                "events_per_sec": round(r["events_per_sec"], 1),
            }
            for r in runs
        ],
        "metrics": metrics,
    }
    if case.engine:
        entry["engine"] = dict(case.engine)
    return entry


def run_perf(
    cases: Optional[Iterable[str]] = None,
    *,
    tiny: bool = False,
    repeats: int = 1,
    compare: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Run the named cases (default: all) into one BENCH document.

    ``compare`` is a previously written document; when given, each case
    gains ``ref_events_per_sec`` / ``speedup`` fields relative to the
    matching case of the reference.  A reference case counts as matching
    only when its name, its full ``overrides`` *and* its ``engine``
    configuration agree with the current run — comparing a tiny grid
    against a full-grid document (or vice versa) silently yields no
    speedup fields instead of a meaningless ratio between different
    workloads, and a same-named entry measured under another engine
    configuration is not a match either.  Engine-variant cases without
    such an entry fall back to the reference entry with the same
    ``(scenario, overrides)`` workload and default engine config, so the
    recorded speedup reads engine feature on vs off.

    An engine variant whose ``events_processed`` or ``metrics`` differ
    from the default-engine entry of the same run on the same
    ``(scenario, overrides)`` gains ``fingerprint_mismatch: true``.
    """
    selected = list(cases) if cases is not None else case_names()
    unknown = sorted(set(selected) - set(PERF_CASES))
    if unknown:
        raise ValueError(
            f"unknown perf case(s): {', '.join(unknown)}; "
            f"available: {', '.join(case_names())}"
        )
    ref_cases = {}
    if compare is not None:
        ref_cases = {c["case"]: c for c in compare.get("cases", [])}
    results = []
    for name in selected:
        entry = run_case(PERF_CASES[name], tiny=tiny, repeats=repeats)
        if "skipped" in entry:
            results.append(entry)
            continue
        ref = ref_cases.get(name)
        if not (
            ref is not None
            and ref.get("events_per_sec")
            and ref.get("overrides") == entry["overrides"]
            and ref.get("engine", {}) == entry.get("engine", {})
        ):
            # Workload fallback for engine variants: same scenario and
            # overrides, default engine config, any case name.
            ref = next(
                (
                    c
                    for c in ref_cases.values()
                    if c.get("scenario") == entry["scenario"]
                    and c.get("overrides") == entry["overrides"]
                    and not c.get("engine")
                    and c.get("events_per_sec")
                ),
                None,
            )
        if ref is not None:
            entry["ref_events_per_sec"] = ref["events_per_sec"]
            entry["speedup"] = round(
                entry["events_per_sec"] / ref["events_per_sec"], 2
            )
        results.append(entry)
    for entry in results:
        if not entry.get("engine") or "skipped" in entry:
            continue
        for base in results:
            if (
                not base.get("engine")
                and "skipped" not in base
                and base["scenario"] == entry["scenario"]
                and base["overrides"] == entry["overrides"]
                and (base["events_processed"], base["metrics"])
                != (entry["events_processed"], entry["metrics"])
            ):
                entry["fingerprint_mismatch"] = True
    return {
        "schema": BENCH_SCHEMA,
        "generated_utc": time.strftime("%Y-%m-%d", time.gmtime()),
        "python": platform.python_version(),
        "platform": sys.platform,
        "tiny": tiny,
        "repeats": repeats,
        "cases": results,
    }


def write_bench(doc: Dict[str, Any], path: str = DEFAULT_BENCH_PATH) -> str:
    """Persist a BENCH document as stable, diff-friendly JSON."""
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def load_bench(path: str) -> Dict[str, Any]:
    """Load a previously written BENCH document."""
    with open(path) as handle:
        return json.load(handle)


def append_history(
    doc: Dict[str, Any],
    path: str = DEFAULT_HISTORY_PATH,
    *,
    label: Optional[str] = None,
) -> str:
    """Append one compact snapshot of ``doc`` to the tracked history file.

    The history document is ``{"schema": 1, "snapshots": [...]}``; each
    snapshot keeps the label, grid flavor, and the per-case throughput
    numbers (metrics fingerprints are dropped — the full document is the
    place for those).  :func:`repro.analysis.results.perf_trend` expands
    history files transparently, so one tracked file carries the whole
    per-PR trajectory instead of one artifact per PR.
    """
    try:
        with open(path) as handle:
            history = json.load(handle)
    except FileNotFoundError:
        history = {"schema": 1, "snapshots": []}
    snapshot = {
        "label": label or doc.get("generated_utc") or "unlabeled",
        "generated_utc": doc.get("generated_utc"),
        "python": doc.get("python"),
        "tiny": bool(doc.get("tiny")),
        "cases": [
            {
                key: case[key]
                for key in (
                    "case",
                    "events_processed",
                    "wall_time_s",
                    "events_per_sec",
                    "speedup",
                )
                if key in case
            }
            for case in doc.get("cases", [])
            if "skipped" not in case
        ],
    }
    history.setdefault("snapshots", []).append(snapshot)
    with open(path, "w") as handle:
        json.dump(history, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def regression_warnings(
    doc: Dict[str, Any], *, threshold: float = 0.10
) -> List[str]:
    """Cases whose events/sec fell more than ``threshold`` below their
    reference — one warning line per offender, empty when clean.

    Only cases with comparison fields participate (a missing reference is
    not a regression)."""
    warnings = []
    for case in doc.get("cases", []):
        ref = case.get("ref_events_per_sec")
        if not ref:
            continue
        current = case.get("events_per_sec") or 0.0
        if current < (1.0 - threshold) * ref:
            warnings.append(
                f"perf regression: {case['case']} at {current:,.0f} events/sec "
                f"is {100 * (1 - current / ref):.1f}% below the reference "
                f"{ref:,.0f}"
            )
    return warnings


def engine_report() -> List[str]:
    """Which engine variants are live in this interpreter (one line each).

    The doctor surface behind ``repro perf --engines``: reports the
    always-available pure-Python heap loop, whether the optional
    compiled core loaded (with the failure reason when it did not), and
    what ``best`` would resolve to right now.
    """
    from repro.sim import compiled_available, compiled_error
    from repro.sim._compiled import load_compiled

    lines = [
        f"{'engine':>10s}  status",
        f"{'heap':>10s}  built-in (default; the behavioral reference)",
    ]
    if compiled_available():
        module = load_compiled()
        where = getattr(module, "__file__", "built-in")
        lines.append(f"{'compiled':>10s}  loaded ({where})")
        lines.append(f"{'best':>10s}  -> compiled")
    else:
        lines.append(f"{'compiled':>10s}  unavailable: {compiled_error()}")
        lines.append(f"{'best':>10s}  -> heap (compiled core unavailable)")
    return lines


def format_bench(doc: Dict[str, Any]) -> List[str]:
    """Human-readable table of one BENCH document."""
    lines = [
        f"{'case':>20s} {'events':>12s} {'wall_s':>8s} "
        f"{'events/sec':>12s} {'speedup':>8s}"
    ]
    for case in doc.get("cases", []):
        if "skipped" in case:
            lines.append(
                f"{case['case']:>20s} {'(skipped: ' + case['skipped'] + ')':>44s}"
            )
            continue
        speedup = case.get("speedup")
        lines.append(
            f"{case['case']:>20s} {case['events_processed']:>12d} "
            f"{case['wall_time_s']:>8.3f} {case['events_per_sec']:>12.0f} "
            f"{(f'{speedup:.2f}x' if speedup is not None else '-'):>8s}"
            + ("  FINGERPRINT MISMATCH" if case.get("fingerprint_mismatch") else "")
        )
    return lines
