"""Smoke test of the tracked perf macro-benchmark suite.

Runs the *tiny* grid (the same one the CI perf-smoke job executes) and
checks the BENCH document's shape, so `python -m repro perf` can never
rot silently.  Full-scale timing runs are manual / CI-artifact territory
(`python -m repro perf`), not tier-1 material.
"""

import json

from repro.perf import (
    PERF_CASES,
    append_history,
    case_names,
    load_bench,
    regression_warnings,
    run_perf,
    write_bench,
)

#: PR 3's original engine-default macro workloads
BASE_CASES = ["incast", "websearch_fct", "permutation"]


def test_case_grid_is_wellformed():
    assert case_names() == BASE_CASES + [
        "incast_batched",
        "websearch_batched",
        "permutation_batched",
        "incast_compiled",
        "websearch_compiled",
        "permutation_compiled",
        "fluid_grid",
    ]
    for case in PERF_CASES.values():
        assert case.overrides, case.name
        assert case.tiny, case.name
        if case.kind == "scenario":
            # tiny grids must be strictly smaller in simulated duration
            assert case.tiny["duration_ns"] <= case.overrides["duration_ns"]
    # engine variants must rerun the *same workload* as their base case,
    # differing only in engine configuration — that is what makes their
    # compare-by-workload speedups honest
    for variant, base in (
        ("incast_batched", "incast"),
        ("websearch_batched", "websearch_fct"),
        ("permutation_batched", "permutation"),
        ("incast_compiled", "incast"),
        ("websearch_compiled", "websearch_fct"),
        ("permutation_compiled", "permutation"),
    ):
        assert PERF_CASES[variant].scenario == PERF_CASES[base].scenario
        assert PERF_CASES[variant].overrides == PERF_CASES[base].overrides
        assert PERF_CASES[variant].tiny == PERF_CASES[base].tiny
        assert PERF_CASES[variant].engine, variant
        assert not PERF_CASES[base].engine, base


def test_tiny_grid_runs_and_reports(tmp_path):
    doc = run_perf(tiny=True, repeats=1)
    assert doc["schema"] == 1
    assert doc["tiny"] is True
    names = [c["case"] for c in doc["cases"]]
    assert names == case_names()
    for case in doc["cases"]:
        if "skipped" in case:
            # fluid_grid without numpy, or *_compiled without the
            # optional C extension — never a red grid
            assert case["case"] == "fluid_grid" or case["case"].endswith(
                "_compiled"
            ), case
            continue
        assert case["events_processed"] > 0
        assert case["events_per_sec"] > 0
        assert case["wall_time_s"] > 0
        assert case["metrics"], case["case"]  # determinism fingerprint

    path = write_bench(doc, str(tmp_path / "BENCH_perf.json"))
    reloaded = load_bench(path)
    assert reloaded == json.loads(json.dumps(doc))  # JSON-stable


def test_compare_records_speedup(tmp_path):
    doc = run_perf(cases=["websearch_fct"], tiny=True, repeats=1)
    again = run_perf(cases=["websearch_fct"], tiny=True, repeats=1, compare=doc)
    case = again["cases"][0]
    assert case["ref_events_per_sec"] == doc["cases"][0]["events_per_sec"]
    assert case["speedup"] > 0
    # identical simulations: the determinism fingerprint must match
    assert case["metrics"] == doc["cases"][0]["metrics"]


def test_engine_variant_borrows_workload_reference():
    # A reference document that predates the engine variants (PR 3's
    # BENCH_perf.json): the variant must fall back to the same-workload
    # default-config entry, so speedups read engine-on vs engine-off.
    ref = run_perf(cases=["incast"], tiny=True, repeats=1)
    doc = run_perf(cases=["incast_batched"], tiny=True, repeats=1, compare=ref)
    case = doc["cases"][0]
    assert case["engine"] == {"tx_batch_limit": 8}
    assert case["ref_events_per_sec"] == ref["cases"][0]["events_per_sec"]
    assert case["speedup"] > 0


def test_batched_event_count_matches_unbatched():
    # Coalesced accounting: each packet in a train still counts as one
    # event, so events/sec compares honestly across batch configs.  The
    # closed-loop workload itself may diverge slightly (mid-train
    # arrivals see a shorter queue, shifting the odd ECN mark), so the
    # counts agree to a tolerance rather than exactly.
    base = run_perf(cases=["incast"], tiny=True, repeats=1)
    batched = run_perf(cases=["incast_batched"], tiny=True, repeats=1)
    a = base["cases"][0]["events_processed"]
    b = batched["cases"][0]["events_processed"]
    assert abs(a - b) / a < 0.02, (a, b)


def test_compiled_variant_is_bit_identical_or_skips():
    # The compiled drain preserves (time, seq) order exactly; without
    # the extension the case must skip with a reason, not pass silently.
    compiled = run_perf(cases=["incast_compiled"], tiny=True, repeats=1)
    entry = compiled["cases"][0]
    if "skipped" in entry:
        assert "compiled core unavailable" in entry["skipped"]
        return
    base = run_perf(cases=["incast_batched"], tiny=True, repeats=1)
    # same workload, batching on in both: only the drain loop differs
    assert entry["metrics"] == base["cases"][0]["metrics"]
    assert entry["events_processed"] == base["cases"][0]["events_processed"]


def test_history_accumulates_snapshots(tmp_path):
    doc = run_perf(cases=["incast"], tiny=True, repeats=1)
    path = str(tmp_path / "perf_history.json")
    append_history(doc, path, label="pr-a")
    append_history(doc, path, label="pr-b")
    with open(path) as handle:
        history = json.load(handle)
    assert [s["label"] for s in history["snapshots"]] == ["pr-a", "pr-b"]
    assert history["snapshots"][0]["cases"][0]["case"] == "incast"
    # perf_trend expands history files transparently
    from repro.analysis.results import perf_trend

    trend = perf_trend([path], include_tiny=True)
    assert [e["label"] for e in trend["incast"]] == ["pr-a", "pr-b"]


def test_regression_warnings_fire_only_below_threshold():
    entry = {
        "case": "incast",
        "events_per_sec": 89_000.0,
        "ref_events_per_sec": 100_000.0,
    }
    assert regression_warnings({"cases": [entry]})  # 11% below: warn
    entry["events_per_sec"] = 95_000.0
    assert not regression_warnings({"cases": [entry]})  # within 10%
    # fluid_grid's in-run scalar reference is not a regression signal
    assert not regression_warnings(
        {
            "cases": [
                {
                    "case": "fluid_grid",
                    "events_per_sec": 1.0,
                    "ref_events_per_sec": 100.0,
                }
            ]
        }
    )


def test_unknown_case_rejected():
    import pytest

    with pytest.raises(ValueError):
        run_perf(cases=["nope"])
