"""Unit tests for the sweep-result loading API (analysis/results.py)."""

import json

import pytest

from repro.analysis.results import ResultCell, ResultSet


def _sweep_doc(scenario="websearch", cells=None):
    return {
        "scenario": scenario,
        "grid": {"algorithm": ["a", "b"], "load": [0.2, 0.6]},
        "base": {},
        "seed": 1,
        "cells": cells or [],
    }


def _cell(algo, load, metric, scenario="websearch", seed=11):
    return {
        "scenario": scenario,
        "params": {"algorithm": algo, "load": load},
        "overrides": {"algorithm": algo, "load": load, "seed": seed},
        "metrics": {"fct_p99": metric, "drops": 0},
        "series": {"bins": [1, 2, 3]},
        "provenance": {"seed": seed},
    }


@pytest.fixture
def sweep_path(tmp_path):
    doc = _sweep_doc(
        cells=[
            _cell("powertcp", 0.2, 1.5),
            _cell("powertcp", 0.6, 2.5),
            _cell("hpcc", 0.2, 1.8),
            _cell("hpcc", 0.6, 3.1),
        ]
    )
    path = tmp_path / "websearch_sweep.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_and_basic_accessors(sweep_path):
    rs = ResultSet.load(sweep_path)
    assert len(rs) == 4
    assert rs.scenarios() == ["websearch"]
    assert rs.param_values("algorithm") == ["hpcc", "powertcp"]
    assert sorted(rs.values("fct_p99")) == [1.5, 1.8, 2.5, 3.1]
    assert all(c.source == sweep_path for c in rs)


def test_filter_matches_params_and_overrides(sweep_path):
    rs = ResultSet.load(sweep_path)
    assert len(rs.filter(algorithm="hpcc")) == 2
    assert len(rs.filter(algorithm="hpcc", load=0.6)) == 1
    # seed only appears in overrides — filter falls back to them.
    assert len(rs.filter(seed=11)) == 4
    assert len(rs.filter(algorithm="nope")) == 0


def test_only_requires_single_cell(sweep_path):
    rs = ResultSet.load(sweep_path)
    cell = rs.filter(algorithm="powertcp", load=0.2).only()
    assert cell.metrics["fct_p99"] == 1.5
    with pytest.raises(KeyError):
        rs.only()


def test_pivot_table(sweep_path):
    rs = ResultSet.load(sweep_path)
    rows, cols, table = rs.pivot("load", "algorithm", "fct_p99")
    assert rows == [0.2, 0.6]
    assert cols == ["hpcc", "powertcp"]
    assert table == [[1.8, 1.5], [3.1, 2.5]]


def test_pivot_rejects_ambiguous_groups_without_agg(tmp_path):
    doc = _sweep_doc(
        cells=[
            _cell("powertcp", 0.2, 1.0, seed=1),
            _cell("powertcp", 0.2, 3.0, seed=2),
        ]
    )
    path = tmp_path / "dup_sweep.json"
    path.write_text(json.dumps(doc))
    rs = ResultSet.load(str(path))
    with pytest.raises(ValueError):
        rs.pivot("load", "algorithm", "fct_p99")
    _rows, _cols, table = rs.pivot(
        "load", "algorithm", "fct_p99", agg=lambda vs: sum(vs) / len(vs)
    )
    assert table == [[2.0]]


def test_pivot_empty_groups_are_none(tmp_path):
    doc = _sweep_doc(
        cells=[_cell("powertcp", 0.2, 1.0), _cell("hpcc", 0.6, 2.0)]
    )
    path = tmp_path / "sparse_sweep.json"
    path.write_text(json.dumps(doc))
    rows, cols, table = ResultSet.load(str(path)).pivot(
        "load", "algorithm", "fct_p99"
    )
    assert table == [[None, 1.0], [2.0, None]]


def test_load_dir_merges_files(tmp_path):
    for name, algo in (("a_sweep.json", "powertcp"), ("b_sweep.json", "hpcc")):
        doc = _sweep_doc(cells=[_cell(algo, 0.2, 1.0)])
        (tmp_path / name).write_text(json.dumps(doc))
    (tmp_path / "unrelated.json").write_text("{}")
    rs = ResultSet.load_dir(str(tmp_path))
    assert len(rs) == 2
    assert rs.param_values("algorithm") == ["hpcc", "powertcp"]


def test_format_pivot_renders(sweep_path):
    lines = ResultSet.load(sweep_path).format_pivot(
        "load", "algorithm", "fct_p99"
    )
    assert lines[0].startswith("fct_p99")
    assert any("hpcc" in line for line in lines)
    assert len(lines) == 2 + 2  # title + header + one line per load


def test_param_values_mixed_types_do_not_raise(tmp_path):
    """Regression: an `algorithm` (string) axis file merged with a numeric
    axis file via load_dir used to be able to TypeError inside the sort."""
    doc_a = _sweep_doc(cells=[_cell("powertcp", 0.2, 1.0)])
    doc_b = _sweep_doc(cells=[_cell(3, 0.2, 2.0), _cell(1.5, 0.2, 3.0)])
    (tmp_path / "a_sweep.json").write_text(json.dumps(doc_a))
    (tmp_path / "b_sweep.json").write_text(json.dumps(doc_b))
    rs = ResultSet.load_dir(str(tmp_path))
    # Numbers first (numerically), strings after — never a TypeError.
    assert rs.param_values("algorithm") == [1.5, 3, "powertcp"]
    # Pivoting over the mixed axis works too.
    _rows, cols, _table = rs.pivot("load", "algorithm", "fct_p99")
    assert cols == [1.5, 3, "powertcp"]


def test_param_values_unhashable_axis_values():
    """List/dict axis values (segment_bw_bps, cc_params) must dedupe by
    canonical form instead of crashing the distinct-value set build."""
    cells = [
        ResultCell(scenario="m", params={"segment_bw_bps": [1e9, 5e8]}),
        ResultCell(scenario="m", params={"segment_bw_bps": [1e9, 5e8]}),
        ResultCell(scenario="m", params={"segment_bw_bps": [1e9, 1e9]}),
        ResultCell(scenario="m", params={"cc_params": {"gamma": 0.9}}),
    ]
    rs = ResultSet(cells)
    assert rs.param_values("segment_bw_bps") == [
        [1e9, 5e8],
        [1e9, 1e9],
    ] or rs.param_values("segment_bw_bps") == [[1e9, 1e9], [1e9, 5e8]]
    assert rs.param_values("cc_params") == [{"gamma": 0.9}]


def test_param_values_bools_sort_between_numbers_and_strings():
    cells = [
        ResultCell(scenario="m", params={"x": v})
        for v in ("per-ack", True, 2.5, False)
    ]
    assert ResultSet(cells).param_values("x") == [2.5, False, True, "per-ack"]


def test_parking_lot_pivot_view(tmp_path):
    def mb_cell(algo, segments, ratio):
        return {
            "scenario": "multi_bottleneck",
            "params": {"algorithm": algo, "segments": segments},
            "overrides": {"algorithm": algo, "segments": segments},
            "metrics": {"e2e_cross_ratio": ratio},
            "series": {},
            "provenance": {},
        }

    doc = {
        "scenario": "multi_bottleneck",
        "grid": {},
        "base": {},
        "seed": 1,
        "cells": [
            mb_cell("powertcp", 2, 0.9),
            mb_cell("theta-powertcp", 2, 0.5),
            mb_cell("powertcp", 3, 0.8),
            mb_cell("theta-powertcp", 3, 0.3),
        ],
    }
    path = tmp_path / "multi_bottleneck_sweep.json"
    path.write_text(json.dumps(doc))
    rs = ResultSet.load(str(path))
    rows, cols, table = rs.view("parking_lot")
    assert rows == [2, 3]
    assert cols == ["powertcp", "theta-powertcp"]
    assert table == [[0.9, 0.5], [0.8, 0.3]]
    lines = rs.format_view("parking_lot")
    assert lines[0].startswith("e2e_cross_ratio")
    # Foreign-scenario cells are excluded; an empty set fails loudly from
    # both entry points (not a useless header-only table).
    empty = ResultSet.load(str(path)).filter(algorithm="nope")
    with pytest.raises(ValueError, match="multi_bottleneck"):
        empty.view("parking_lot")
    with pytest.raises(ValueError, match="multi_bottleneck"):
        empty.format_view("parking_lot")


def test_cell_param_fallback():
    cell = ResultCell(
        scenario="x", params={"a": 1}, overrides={"a": 99, "b": 2}
    )
    assert cell.param("a") == 1  # params win over overrides
    assert cell.param("b") == 2
    assert cell.param("c", "dflt") == "dflt"


# ----------------------------------------------------------------------
# shard merging
# ----------------------------------------------------------------------
def _shard_file(tmp_path, stem, index, count, cells):
    doc = _sweep_doc(cells=cells)
    path = tmp_path / f"{stem}.shard-{index}-of-{count}.json"
    path.write_text(json.dumps(doc))
    return path


def test_merge_shards_recombines_a_sharded_sweep(tmp_path):
    from repro.analysis.results import merge_shards

    _shard_file(
        tmp_path, "websearch_sweep", 1, 2,
        [_cell("powertcp", 0.2, 1.5), _cell("hpcc", 0.2, 1.8)],
    )
    _shard_file(
        tmp_path, "websearch_sweep", 2, 2,
        [_cell("powertcp", 0.6, 2.5), _cell("hpcc", 0.6, 3.1)],
    )
    rs = merge_shards(str(tmp_path))
    assert len(rs) == 4
    rows, cols, table = rs.pivot("load", "algorithm", "fct_p99")
    assert table == [[1.8, 1.5], [3.1, 2.5]]


def test_merge_shards_dedupes_and_narrows_by_base(tmp_path):
    from repro.analysis.results import merge_shards

    shared = _cell("powertcp", 0.2, 1.5)
    _shard_file(tmp_path, "websearch_sweep", 1, 2, [shared])
    _shard_file(tmp_path, "websearch_sweep", 2, 2, [shared])
    _shard_file(tmp_path, "other_sweep", 1, 1, [_cell("hpcc", 0.6, 9.0)])
    # Duplicate (scenario, overrides) cells collapse to one.
    assert len(merge_shards(str(tmp_path), "websearch_sweep")) == 1
    # Without base, both sweeps' shards merge.
    assert len(merge_shards(str(tmp_path))) == 2


def test_merge_shards_rejects_incomplete_or_conflicting_sets(tmp_path):
    from repro.analysis.results import merge_shards

    _shard_file(tmp_path, "websearch_sweep", 1, 3, [_cell("a", 0.2, 1.0)])
    with pytest.raises(ValueError, match="missing shard"):
        merge_shards(str(tmp_path))
    _shard_file(tmp_path, "websearch_sweep", 2, 3, [_cell("b", 0.2, 1.0)])
    _shard_file(tmp_path, "websearch_sweep", 3, 3, [_cell("c", 0.2, 1.0)])
    assert len(merge_shards(str(tmp_path))) == 3
    _shard_file(tmp_path, "websearch_sweep", 2, 2, [_cell("d", 0.2, 1.0)])
    with pytest.raises(ValueError, match="disagree"):
        merge_shards(str(tmp_path))


def test_merge_shards_requires_matches(tmp_path):
    from repro.analysis.results import merge_shards

    with pytest.raises(ValueError, match="no shard files"):
        merge_shards(str(tmp_path))


# ----------------------------------------------------------------------
# perf trend
# ----------------------------------------------------------------------
def _bench_doc(date, eps_by_case, tiny=False):
    return {
        "schema": 1,
        "generated_utc": date,
        "tiny": tiny,
        "cases": [
            {
                "case": name,
                "events_per_sec": eps,
                "events_processed": 1000,
                "wall_time_s": 0.5,
            }
            for name, eps in eps_by_case.items()
        ],
    }


def test_perf_trend_builds_per_case_series(tmp_path):
    from repro.analysis.results import format_perf_trend, perf_trend

    old = tmp_path / "bench_old.json"
    new = tmp_path / "bench_new.json"
    old.write_text(json.dumps(_bench_doc(
        "2026-01-01", {"incast": 200_000.0, "websearch_fct": 210_000.0}
    )))
    new.write_text(json.dumps(_bench_doc(
        "2026-02-01", {"incast": 520_000.0, "permutation": 500_000.0}
    )))
    trend = perf_trend([str(old), str(new)])
    assert [e["events_per_sec"] for e in trend["incast"]] == [
        200_000.0, 520_000.0,
    ]
    assert [e["label"] for e in trend["incast"]] == [
        "2026-01-01", "2026-02-01",
    ]
    # Cases appearing in only one snapshot still show a 1-point series.
    assert len(trend["websearch_fct"]) == 1
    assert len(trend["permutation"]) == 1
    lines = format_perf_trend([str(old), str(new)])
    assert any("incast" in line and "->" in line for line in lines)


def test_perf_trend_skips_tiny_documents_by_default(tmp_path):
    from repro.analysis.results import perf_trend

    full = tmp_path / "full.json"
    tiny = tmp_path / "tiny.json"
    full.write_text(json.dumps(_bench_doc("2026-01-01", {"incast": 2e5})))
    tiny.write_text(
        json.dumps(_bench_doc("2026-01-02", {"incast": 9e5}, tiny=True))
    )
    assert len(perf_trend([str(full), str(tiny)])["incast"]) == 1
    both = perf_trend([str(full), str(tiny)], include_tiny=True)
    assert len(both["incast"]) == 2


def test_cell_param_falls_back_to_provenance_config():
    """Config fields left at their defaults appear only in the provenance
    config record; param()/filter()/pivot() must still see them."""
    cell = ResultCell(
        scenario="multi_bottleneck",
        params={"algorithm": "powertcp"},
        overrides={"algorithm": "powertcp", "seed": 7},
        provenance={"config": {"algorithm": "powertcp", "segments": 2}},
    )
    assert cell.param("segments") == 2
    assert cell.param("seed") == 7  # overrides still win over provenance
    assert ResultSet([cell]).param_values("segments") == [2]
    assert len(ResultSet([cell]).filter(segments=2)) == 1
