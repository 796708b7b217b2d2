"""Smoke test of the tracked perf macro-benchmark suite.

Runs the *tiny* grid (the same one the CI perf-smoke job executes) and
checks the BENCH document's shape, so `python -m repro perf` can never
rot silently.  Full-scale timing runs are manual / CI-artifact territory
(`python -m repro perf`), not tier-1 material.
"""

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.perf import bench
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
    compiled = ["incast_compiled", "websearch_compiled", "permutation_compiled"]
    assert case_names() == BASE_CASES + compiled
    for name in BASE_CASES:
        assert not PERF_CASES[name].engine, name
    for name in compiled:
        assert PERF_CASES[name].engine == {"scheduler": "compiled"}, name


def test_tiny_grid_runs_and_reports(tmp_path):
    doc = run_perf(tiny=True, repeats=1)
    assert doc["schema"] == 1
    assert doc["tiny"] is True
    names = [c["case"] for c in doc["cases"]]
    assert names == case_names()
    for case in doc["cases"]:
        if "skipped" in case:
            # *_compiled without the optional C extension — never a red grid
            assert case["case"].endswith("_compiled"), case
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


@pytest.fixture
def heap_variant(monkeypatch):
    """An engine variant of ``incast`` that needs no optional extension."""
    case = replace(
        PERF_CASES["incast"], name="incast_variant", engine={"scheduler": "heap"}
    )
    monkeypatch.setitem(PERF_CASES, case.name, case)
    return case


def test_engine_variant_borrows_workload_reference(heap_variant):
    # A reference document that predates the engine variants (PR 3's
    # BENCH_perf.json): the variant must fall back to the same-workload
    # default-config entry, so speedups read engine-on vs engine-off.
    ref = run_perf(cases=["incast"], tiny=True, repeats=1)
    doc = run_perf(cases=[heap_variant.name], tiny=True, repeats=1, compare=ref)
    case = doc["cases"][0]
    assert case["engine"] == heap_variant.engine
    assert case["ref_events_per_sec"] == ref["cases"][0]["events_per_sec"]
    assert case["speedup"] > 0


def test_compare_name_match_requires_equal_engine(heap_variant):
    # A same-named reference entry measured under another engine
    # configuration is a different experiment: the variant must borrow
    # the default-engine entry of its workload instead.
    overrides = heap_variant.config(tiny=True)
    default = {"case": "incast", "scenario": "incast", "overrides": overrides,
               "events_per_sec": 1000.0}
    named = dict(default, case=heap_variant.name, events_per_sec=4000.0,
                 engine={"scheduler": "heap", "other": 8})
    doc = run_perf(cases=[heap_variant.name], tiny=True, repeats=1,
                   compare={"cases": [default, named]})
    assert doc["cases"][0]["ref_events_per_sec"] == 1000.0
    # with the engine equal, the named entry is the reference
    named["engine"] = dict(heap_variant.engine)
    doc = run_perf(cases=[heap_variant.name], tiny=True, repeats=1,
                   compare={"cases": [default, named]})
    assert doc["cases"][0]["ref_events_per_sec"] == 4000.0


def test_variant_that_changes_results_is_flagged(heap_variant, monkeypatch):
    # Variants may change speed, never results: a same-run, same-workload
    # default-engine entry is the fingerprint reference.
    argv = ["perf", "--tiny", "--no-write", "--cases", f"incast,{heap_variant.name}"]
    doc = run_perf(cases=["incast", heap_variant.name], tiny=True, repeats=1)
    assert not any("fingerprint_mismatch" in c for c in doc["cases"])
    assert main(argv) == 0

    real_run_case = bench.run_case

    def drifting_run_case(case, **kwargs):
        entry = real_run_case(case, **kwargs)
        if case.engine:
            entry["events_processed"] += 1
        return entry

    monkeypatch.setattr(bench, "run_case", drifting_run_case)
    doc = run_perf(cases=["incast", heap_variant.name], tiny=True, repeats=1)
    assert [c.get("fingerprint_mismatch") for c in doc["cases"]] == [None, True]
    assert "FINGERPRINT MISMATCH" in bench.format_bench(doc)[2]
    assert main(argv) == 1


def test_compiled_variant_is_bit_identical_or_skips():
    # The compiled drain preserves (time, seq) order exactly; without
    # the extension the case must skip with a reason, not pass silently.
    doc = run_perf(cases=["incast", "incast_compiled"], tiny=True, repeats=1)
    base, entry = doc["cases"]
    if "skipped" in entry:
        assert "compiled core unavailable" in entry["skipped"]
        return
    # same workload: only the drain loop differs
    assert entry["metrics"] == base["metrics"]
    assert entry["events_processed"] == base["events_processed"]
    assert "fingerprint_mismatch" not in entry


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


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        run_perf(cases=["nope"])
