"""Tests for the scenario registry and the parallel sweep runner."""

import json
import os

import pytest

from repro.cli import main
from repro.scenarios import (
    Scenario,
    ScenarioResult,
    get_scenario,
    register,
    run_sweep,
    scenario_names,
)
from repro.scenarios.base import config_to_jsonable
from repro.scenarios.sweep import (
    SweepRunner,
    SweepSpec,
    cell_overrides,
    derive_cell_seed,
    expand_cells,
)

ALL_SCENARIOS = [
    "fairness",
    "incast",
    "lb_matrix",
    "multi_bottleneck",
    "rdcn",
    "websearch",
]


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_all_experiments_registered():
    # `faulty` is registered on demand (campaign manifests import it via
    # `modules`), so earlier tests in the same process may have added it.
    names = [n for n in scenario_names() if n != "faulty"]
    assert names == ALL_SCENARIOS


def test_unknown_scenario_raises_with_catalog():
    with pytest.raises(KeyError, match="websearch"):
        get_scenario("nope")


def test_register_rejects_anonymous_scenario():
    with pytest.raises(ValueError):
        @register
        class Nameless(Scenario):
            config_cls = dict


def test_register_rejects_duplicate_name():
    get_scenario("incast")  # ensure builtins are loaded
    with pytest.raises(ValueError, match="already registered"):
        @register
        class Impostor(Scenario):
            name = "incast"
            config_cls = dict


def test_configure_rejects_unknown_fields():
    with pytest.raises(ValueError, match="no_such_knob"):
        get_scenario("incast").configure(no_such_knob=1)


def test_run_rejects_config_plus_overrides():
    scenario = get_scenario("incast")
    config = scenario.configure(fanout=2)
    with pytest.raises(ValueError, match="not both"):
        scenario.run(config=config, fanout=4)


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_scenario_roundtrip_returns_schema_valid_result(name):
    scenario = get_scenario(name)
    result = scenario.run(**scenario.tiny_overrides())
    assert isinstance(result, ScenarioResult)
    assert result.scenario == name
    assert result.metrics, "metrics must not be empty"
    assert all(
        v is None or isinstance(v, (int, float)) for v in result.metrics.values()
    )
    for key in ("scenario", "algorithm", "seed", "config",
                "wall_time_s", "events_processed"):
        assert key in result.provenance
    assert result.provenance["events_processed"] > 0
    assert result.raw is not None
    # The persistable view must be pure JSON, and what a forked worker's
    # reply restores from it is that view again, without ``raw``.
    view = json.loads(json.dumps(result.to_json_dict()))
    restored = ScenarioResult.from_json_dict(view)
    assert restored.raw is None and restored.to_json_dict() == view


def test_cli_list_enumerates_all_scenarios(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ALL_SCENARIOS:
        assert name in out


# ----------------------------------------------------------------------
# sweep mechanics
# ----------------------------------------------------------------------
def test_expand_cells_is_ordered_product():
    spec = SweepSpec(
        scenario="incast",
        grid={"fanout": [2, 4], "algorithm": ["powertcp", "hpcc"]},
    )
    cells = expand_cells(spec)
    # product over *sorted* keys: algorithm-major, fanout-minor
    assert cells == [
        {"algorithm": "powertcp", "fanout": 2},
        {"algorithm": "powertcp", "fanout": 4},
        {"algorithm": "hpcc", "fanout": 2},
        {"algorithm": "hpcc", "fanout": 4},
    ]


def test_derived_seeds_deterministic_and_distinct():
    a = derive_cell_seed(1, {"algorithm": "powertcp", "load": 0.2})
    b = derive_cell_seed(1, {"algorithm": "powertcp", "load": 0.2})
    c = derive_cell_seed(1, {"algorithm": "powertcp", "load": 0.6})
    d = derive_cell_seed(2, {"algorithm": "powertcp", "load": 0.2})
    assert a == b
    assert a != c
    assert a != d


def test_cell_overrides_derives_seed_only_when_unpinned():
    spec = SweepSpec(scenario="websearch", grid={"load": [0.2]})
    derived = cell_overrides(spec, {"load": 0.2})
    assert derived["seed"] == derive_cell_seed(1, {"load": 0.2})

    pinned = SweepSpec(
        scenario="websearch", grid={"load": [0.2]}, base={"seed": 7}
    )
    assert cell_overrides(pinned, {"load": 0.2})["seed"] == 7

    # incast has no seed field: nothing injected
    no_seed = SweepSpec(scenario="incast", grid={"fanout": [2]})
    assert "seed" not in cell_overrides(no_seed, {"fanout": 2})


def test_sweep_rejects_unknown_grid_axis():
    with pytest.raises(ValueError, match="bogus"):
        SweepRunner(SweepSpec(scenario="incast", grid={"bogus": [1]}))


def test_sweep_rejects_empty_axis_and_bad_jobs():
    with pytest.raises(ValueError, match="empty"):
        SweepRunner(SweepSpec(scenario="incast", grid={"fanout": []}))
    with pytest.raises(ValueError, match="jobs"):
        SweepRunner(SweepSpec(scenario="incast", grid={"fanout": [2]}), jobs=0)


TINY_INCAST = dict(burst_bytes=20_000, duration_ns=1_000_000)


def test_sweep_inline_keeps_raw_and_orders_cells():
    sweep = run_sweep(
        "incast",
        grid={"algorithm": ["powertcp", "hpcc"], "fanout": [2]},
        base=TINY_INCAST,
    )
    assert [c.params["algorithm"] for c in sweep.cells] == ["powertcp", "hpcc"]
    assert all(c.result.raw is not None for c in sweep.cells)
    cell = sweep.cell(algorithm="hpcc")
    assert cell.result.metrics["fanout"] == 2


def test_parallel_sweep_matches_inline_metrics():
    grid = {"algorithm": ["powertcp", "hpcc"]}
    inline = run_sweep("incast", grid=grid, base=TINY_INCAST, jobs=1)
    parallel = run_sweep("incast", grid=grid, base=TINY_INCAST, jobs=2)
    assert [c.result.metrics for c in inline.cells] == [
        c.result.metrics for c in parallel.cells
    ]
    # process-pool results cannot carry the raw payload
    assert all(c.result.raw is None for c in parallel.cells)


def test_identical_sweeps_are_byte_identical(tmp_path):
    grid = {"algorithm": ["powertcp"], "load": [0.3]}
    base = dict(duration_ns=2_000_000, drain_ns=4_000_000,
                size_scale=1 / 16, max_flows=10)
    runs = []
    for tag in ("a", "b"):
        sweep = run_sweep("websearch", grid=grid, base=base, seed=5)
        path = sweep.persist(str(tmp_path / f"{tag}.json"))
        runs.append(json.load(open(path)))
    for doc in runs:
        for cell in doc["cells"]:
            cell["provenance"].pop("wall_time_s")
    assert runs[0] == runs[1]


def test_persist_default_path(tmp_path, monkeypatch):
    # Redirect the default results dir into tmp (never write the real
    # benchmarks/results tree from a unit test), then persist from a
    # *different* cwd: the default path must not depend on the cwd.
    import repro.scenarios.sweep as sweep_mod

    results_dir = tmp_path / "anchored" / "results"
    monkeypatch.setattr(
        sweep_mod, "DEFAULT_RESULTS_DIR", str(results_dir)
    )
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    sweep = run_sweep("incast", grid={"fanout": [2]}, base=TINY_INCAST)
    path = sweep.persist()
    assert path == str(results_dir / "incast_sweep.json")
    doc = json.load(open(path))
    assert doc["scenario"] == "incast"
    assert len(doc["cells"]) == 1
    assert doc["cells"][0]["params"] == {"fanout": 2}
    assert "metrics" in doc["cells"][0]
    # Nothing leaked into the cwd (the pre-fix behaviour grew a fresh
    # benchmarks/results tree wherever the sweep happened to run).
    assert not (elsewhere / "benchmarks").exists()


def test_default_results_path_anchored_on_repo_root(tmp_path, monkeypatch):
    """`python -m repro sweep` invoked outside the repo root must target
    the same results file (the incremental cache) as one invoked inside."""
    import repro.scenarios.sweep as sweep_mod
    from repro.scenarios.sweep import default_results_path

    inside = default_results_path("websearch")
    monkeypatch.chdir(tmp_path)
    outside = default_results_path("websearch")
    assert inside == outside
    assert os.path.isabs(outside)
    assert outside.endswith(
        os.path.join("benchmarks", "results", "websearch_sweep.json")
    )
    # The anchor is the checkout containing this package, not the cwd.
    assert outside.startswith(sweep_mod._repo_root())
    assert sweep_mod._repo_root() != str(tmp_path)


def test_rdcn_sweep_does_not_mutate_shared_base_params(tmp_path):
    """A grid base is shallow-copied into every cell: each cell's result
    sees its own prebuffer, and the persisted overrides record the shared
    ``topology_params`` exactly as given."""
    shared = {"num_tors": 2, "hosts_per_tor": 2}
    sweep = run_sweep(
        "rdcn",
        grid={"prebuffer_ns": [10_000, 30_000]},
        base=dict(topology_params=shared, duration_ns=500_000, flows_per_pair=1),
    )
    assert shared == {"num_tors": 2, "hosts_per_tor": 2}  # untouched
    path = sweep.persist(str(tmp_path / "rdcn_sweep.json"))
    doc = json.load(open(path))
    persisted = [
        (c["params"]["prebuffer_ns"], c["overrides"]["topology_params"])
        for c in doc["cells"]
    ]
    assert persisted == [(10_000, shared), (30_000, shared)]
    # Each cell's *result* saw its own prebuffer.
    assert [c.result.raw.prebuffer_ns for c in sweep.cells] == [10_000, 30_000]


def test_config_to_jsonable_handles_opaque_leaves():
    value = config_to_jsonable({"fn": len, "xs": (1, 2), "ok": None})
    json.dumps(value)
    assert value["xs"] == [1, 2]
    assert value["ok"] is None


# ----------------------------------------------------------------------
# incremental re-runs
# ----------------------------------------------------------------------
def test_incremental_rerun_reuses_matching_cells(tmp_path):
    path = str(tmp_path / "incast_sweep.json")
    first = run_sweep("incast", grid={"fanout": [2]}, base=TINY_INCAST)
    first.persist(path)

    spec = SweepSpec(
        scenario="incast", grid={"fanout": [2, 3]}, base=TINY_INCAST
    )
    runner = SweepRunner(spec, reuse_path=path)
    grown = runner.run()
    assert runner.reused_cells == 1
    assert [c.params["fanout"] for c in grown.cells] == [2, 3]
    # The reused cell carries the persisted metrics verbatim.
    assert (
        grown.cell(fanout=2).result.metrics
        == first.cell(fanout=2).result.metrics
    )
    assert grown.cell(fanout=3).result.metrics["fanout"] == 3


def test_incremental_rerun_ignores_changed_config(tmp_path):
    path = str(tmp_path / "incast_sweep.json")
    run_sweep("incast", grid={"fanout": [2]}, base=TINY_INCAST).persist(path)
    changed = dict(TINY_INCAST, burst_bytes=30_000)
    runner = SweepRunner(
        SweepSpec(scenario="incast", grid={"fanout": [2]}, base=changed),
        reuse_path=path,
    )
    runner.run()
    assert runner.reused_cells == 0  # different config -> fresh simulation


def test_force_reruns_every_cell(tmp_path):
    path = str(tmp_path / "incast_sweep.json")
    run_sweep("incast", grid={"fanout": [2]}, base=TINY_INCAST).persist(path)
    runner = SweepRunner(
        SweepSpec(scenario="incast", grid={"fanout": [2]}, base=TINY_INCAST),
        reuse_path=path,
        force=True,
    )
    result = runner.run()
    assert runner.reused_cells == 0
    assert result.cells[0].result.raw is not None  # really re-simulated


def test_persist_keep_existing_preserves_foreign_cells(tmp_path):
    path = str(tmp_path / "incast_sweep.json")
    wide = run_sweep("incast", grid={"fanout": [2, 3]}, base=TINY_INCAST)
    wide.persist(path)
    narrow = run_sweep("incast", grid={"fanout": [2]}, base=TINY_INCAST)
    narrow.persist(path, keep_existing=True)
    doc = json.load(open(path))
    # The fanout=3 cell from the wider sweep survives the narrower write
    # (the file doubles as the incremental cache) ...
    assert sorted(c["params"]["fanout"] for c in doc["cells"]) == [2, 3]
    # ... and is reusable by a later wide sweep.
    runner = SweepRunner(
        SweepSpec(scenario="incast", grid={"fanout": [2, 3]}, base=TINY_INCAST),
        reuse_path=path,
    )
    runner.run()
    assert runner.reused_cells == 2
    # Default persist overwrites exactly (byte-identical sweeps contract).
    narrow.persist(path)
    doc = json.load(open(path))
    assert [c["params"]["fanout"] for c in doc["cells"]] == [2]


def test_persist_keep_existing_appends_foreign_cells_in_the_same_format(tmp_path):
    path = str(tmp_path / "incast_sweep.json")
    run_sweep("incast", grid={"fanout": [2, 3]}, base=TINY_INCAST).persist(path)
    narrow = run_sweep("incast", grid={"fanout": [3]}, base=TINY_INCAST)
    narrow.persist(path, keep_existing=True)
    assert narrow.persisted_cell_count == 2
    text = open(path).read()
    doc = json.loads(text)
    # this sweep's cells first, the carried-over ones after them ...
    assert [c["params"]["fanout"] for c in doc["cells"]] == [3, 2]
    assert doc["grid"] == {"fanout": [3]}
    # ... in the one on-disk format every cell document has
    assert text == json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_reuse_survives_missing_or_corrupt_file(tmp_path):
    missing = str(tmp_path / "nope.json")
    runner = SweepRunner(
        SweepSpec(scenario="incast", grid={"fanout": [2]}, base=TINY_INCAST),
        reuse_path=missing,
    )
    assert len(runner.run().cells) == 1

    corrupt = tmp_path / "bad.json"
    corrupt.write_text("{not json")
    runner = SweepRunner(
        SweepSpec(scenario="incast", grid={"fanout": [2]}, base=TINY_INCAST),
        reuse_path=str(corrupt),
    )
    assert len(runner.run().cells) == 1


# ----------------------------------------------------------------------
# sharded sweeps
# ----------------------------------------------------------------------
def test_parse_shard_and_shard_path():
    from repro.scenarios.sweep import parse_shard, shard_results_path

    assert parse_shard("1/2") == (1, 2)
    assert parse_shard("3/3") == (3, 3)
    for bad in ("0/2", "3/2", "2", "a/b", "1/0", ""):
        with pytest.raises(ValueError, match="shard"):
            parse_shard(bad)
    assert shard_results_path("/x/results.json", (2, 4)).endswith(
        "results.shard-2-of-4.json"
    )


def test_sharded_runners_partition_the_grid_exactly():
    grid = {"fanout": [2, 3, 4]}
    full = run_sweep("incast", grid=grid, base=TINY_INCAST)
    shard1 = run_sweep("incast", grid=grid, base=TINY_INCAST, shard=(1, 2))
    shard2 = run_sweep("incast", grid=grid, base=TINY_INCAST, shard=(2, 2))
    assert [c.params["fanout"] for c in shard1.cells] == [2, 4]
    assert [c.params["fanout"] for c in shard2.cells] == [3]
    # The shards' cells are exactly the full run's (same derived seeds,
    # same metrics), so the merged result is shard-invariant.
    merged = {
        c.params["fanout"]: c.result.metrics
        for c in shard1.cells + shard2.cells
    }
    assert merged == {
        c.params["fanout"]: c.result.metrics for c in full.cells
    }


def test_shard_validation():
    spec = SweepSpec(scenario="incast", grid={"fanout": [2]})
    with pytest.raises(ValueError, match="shard"):
        SweepRunner(spec, shard=(0, 2))
    with pytest.raises(ValueError, match="shard"):
        SweepRunner(spec, shard=(3, 2))


def test_cli_sharded_sweep_writes_mergeable_files(tmp_path, capsys):
    from repro.analysis.results import merge_shards

    out_path = str(tmp_path / "incast_sweep.json")
    for shard in ("1/2", "2/2"):
        args = ["sweep", "incast", "--tiny", "--grid", "fanout=2,3,4",
                "--out", out_path, "--shard", shard]
        assert main(args) == 0
    out = capsys.readouterr().out
    assert "incast_sweep.shard-1-of-2.json" in out
    assert "incast_sweep.shard-2-of-2.json" in out
    merged = merge_shards(str(tmp_path), "incast_sweep")
    assert sorted(c.param("fanout") for c in merged) == [2, 3, 4]
    # Each shard file doubles as that shard's incremental cache.
    assert main(args) == 0
    assert "reused 1 cached" in capsys.readouterr().out


def test_cli_rejects_bad_shard():
    with pytest.raises(SystemExit, match="shard"):
        main(["sweep", "incast", "--tiny", "--grid", "fanout=2",
              "--shard", "5/2"])


# ----------------------------------------------------------------------
# the host permutation
# ----------------------------------------------------------------------
def test_lb_matrix_full_load_starts_the_seeded_derangement():
    import random

    from repro.workloads.permutation import permutation_pairs

    scenario = get_scenario("lb_matrix")
    a = scenario.run(**dict(scenario.tiny_overrides(), seed=3))
    b = scenario.run(**dict(scenario.tiny_overrides(), seed=3))
    c = scenario.run(**dict(scenario.tiny_overrides(), seed=4))
    # default load=1.0 under ECMP: one flow per derangement pair
    config = a.provenance["config"]
    assert config["load"] == 1.0 and config["routing"] == "ecmp"
    started = [(f.src, f.dst) for f in a.raw.flows]
    assert started == permutation_pairs(random.Random(3), 16)
    assert a.metrics == b.metrics
    assert a.metrics["completed"] == a.metrics["total_flows"] == 16
    assert 0 < a.metrics["goodput_jain"] <= 1
    # A different seed permutes differently (goodputs differ).
    assert a.series["per_flow_goodput_bps"] != c.series["per_flow_goodput_bps"]
