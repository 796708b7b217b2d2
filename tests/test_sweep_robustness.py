"""Sweep robustness: atomic persistence, corrupt-cache recovery,
stale-cache validation, non-ok cell handling, failed cells, and one
result per cell whichever executor ran it."""

import json
import os

import pytest

import repro.scenarios.faulty  # registers the "faulty" scenario  # noqa: F401
from repro.campaign import Campaign, InlineExecutor, LocalPoolExecutor, manifest_from_dict
from repro.cli import main
from repro.persist import (
    CellDocumentWriter,
    atomic_write_json,
    atomic_write_text,
    load_json_or_none,
)
from repro.scenarios import get_scenario
from repro.scenarios.faulty import attempt_count
from repro.scenarios.sweep import (
    SweepError,
    SweepRunner,
    SweepSpec,
    run_sweep,
    validate_cached_cell,
)

TINY = {"duration_ns": 200_000, "max_flows": 4, "size_scale": 1 / 64}


def _spec(**kw):
    return SweepSpec(
        scenario="websearch",
        grid=kw.pop("grid", {"load": [0.2]}),
        base=dict(TINY, **kw.pop("base", {})),
    )


# ----------------------------------------------------------------------
# atomic persistence primitives
# ----------------------------------------------------------------------
class TestAtomicPersist:
    def test_write_then_read_round_trip(self, tmp_path):
        path = str(tmp_path / "doc.json")
        atomic_write_json(path, {"a": 1})
        assert load_json_or_none(path) == {"a": 1}

    def test_no_tmp_droppings_on_success(self, tmp_path):
        atomic_write_text(str(tmp_path / "t.txt"), "hello")
        assert sorted(os.listdir(str(tmp_path))) == ["t.txt"]

    def test_failed_write_leaves_target_intact(self, tmp_path):
        path = str(tmp_path / "doc.json")
        atomic_write_json(path, {"a": 1})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"bad": object()})
        assert load_json_or_none(path) == {"a": 1}  # old doc untouched
        assert sorted(os.listdir(str(tmp_path))) == ["doc.json"]  # no tmp

    def test_streamed_document_appears_only_at_commit(self, tmp_path):
        path = str(tmp_path / "doc.json")
        with CellDocumentWriter(path, {"seed": 1}) as out:
            out.add({"a": 1})
            out.add({"a": 2})
            assert not os.path.exists(path)  # nothing visible before commit
            out.commit()
        assert load_json_or_none(path) == {"seed": 1, "cells": [{"a": 1}, {"a": 2}]}
        assert sorted(os.listdir(str(tmp_path))) == ["doc.json"]  # no tmp

    def test_streamed_write_failing_between_cells_leaves_target_intact(
        self, tmp_path
    ):
        path = str(tmp_path / "doc.json")
        atomic_write_json(path, {"seed": 0, "cells": []})
        with pytest.raises(TypeError):
            with CellDocumentWriter(path, {"seed": 1}) as out:
                out.add({"a": 1})
                out.add({"bad": object()})
                out.commit()
        assert load_json_or_none(path) == {"seed": 0, "cells": []}
        assert sorted(os.listdir(str(tmp_path))) == ["doc.json"]  # no tmp
        # leaving the block without committing writes nothing either
        with CellDocumentWriter(path, {"seed": 2}) as out:
            out.add({"a": 1})
        assert load_json_or_none(path) == {"seed": 0, "cells": []}
        assert sorted(os.listdir(str(tmp_path))) == ["doc.json"]

    def test_missing_file_is_silent_none(self, tmp_path):
        assert load_json_or_none(str(tmp_path / "absent.json")) is None

    def test_corrupt_file_warns_and_degrades(self, tmp_path):
        path = str(tmp_path / "torn.json")
        with open(path, "w") as handle:
            handle.write('{"cells": [{"par')  # truncated mid-write
        with pytest.warns(UserWarning, match="torn.json"):
            assert load_json_or_none(path, label="sweep cache") is None


# ----------------------------------------------------------------------
# sweep cache behaviour under damage
# ----------------------------------------------------------------------
class TestSweepCacheRobustness:
    def test_sweep_persist_is_atomic_format(self, tmp_path):
        out = str(tmp_path / "s.json")
        sweep = run_sweep("websearch", {"load": [0.2]}, base=TINY)
        sweep.persist(out)
        assert load_json_or_none(out)["cells"][0]["metrics"]

    def test_truncated_cache_recovers_with_warning(self, tmp_path):
        out = str(tmp_path / "s.json")
        run_sweep("websearch", {"load": [0.2]}, base=TINY).persist(out)
        with open(out, "w") as handle:
            handle.write('{"cells": [{"par')  # a kill before atomic writes
        with pytest.warns(UserWarning, match="sweep cache"):
            runner = SweepRunner(_spec(), reuse_path=out)
            sweep = runner.run()
        assert runner.reused_cells == 0  # cache lost, cells re-ran
        assert sweep.cells[0].result.metrics
        sweep.persist(out)  # and the re-persisted file is whole again
        assert load_json_or_none(out)["cells"]

    def test_stale_cached_cell_dropped_with_warning(self, tmp_path):
        out = str(tmp_path / "s.json")
        run_sweep("websearch", {"load": [0.2]}, base=TINY).persist(out)
        with open(out) as handle:
            doc = json.load(handle)
        # Simulate a schema/default edit since the cache was written: the
        # recorded provenance config no longer matches a re-derived one.
        doc["cells"][0]["provenance"]["config"]["duration_ns"] = 999
        atomic_write_json(out, doc)
        with pytest.warns(UserWarning, match="provenance"):
            runner = SweepRunner(_spec(), reuse_path=out)
            runner.run()
        assert runner.stale_cells == 1
        assert runner.reused_cells == 0

    def test_fresh_cache_is_reused_without_warning(self, tmp_path):
        out = str(tmp_path / "s.json")
        run_sweep("websearch", {"load": [0.2]}, base=TINY).persist(out)
        runner = SweepRunner(_spec(), reuse_path=out)
        runner.run()
        assert runner.reused_cells == 1 and runner.stale_cells == 0

    def test_non_ok_cells_are_not_reused(self, tmp_path):
        out = str(tmp_path / "s.json")
        sweep = run_sweep("websearch", {"load": [0.2]}, base=TINY)
        sweep.persist(out)
        with open(out) as handle:
            doc = json.load(handle)
        doc["cells"][0]["status"] = "failed"  # a campaign-persisted failure
        atomic_write_json(out, doc)
        runner = SweepRunner(_spec(), reuse_path=out)
        runner.run()
        assert runner.reused_cells == 0  # failed cells always re-run


# ----------------------------------------------------------------------
# validate_cached_cell
# ----------------------------------------------------------------------
class TestValidateCachedCell:
    def test_legacy_provenance_is_stale(self):
        # no recorded config: nothing vouches for the cell, so it re-runs
        scenario = get_scenario("websearch")
        assert not validate_cached_cell(scenario, {"load": 0.2}, {})
        assert not validate_cached_cell(scenario, {"load": 0.2}, {"seed": 1})

    def test_unconfigurable_overrides_are_stale(self):
        scenario = get_scenario("websearch")
        assert not validate_cached_cell(
            scenario, {"nonesuch": 1}, {"config": {"load": 0.2}}
        )

    def test_matching_config_is_fresh(self):
        scenario = get_scenario("websearch")
        overrides = dict(TINY, load=0.2)
        from repro.scenarios.base import config_to_jsonable

        config = config_to_jsonable(scenario.configure(**overrides))
        assert validate_cached_cell(scenario, overrides, {"config": config})
        config["load"] = 0.9  # a divergent snapshot must re-run
        assert not validate_cached_cell(scenario, overrides, {"config": config})


# ----------------------------------------------------------------------
# failed cells: every cell settles, then one error names the failures
# ----------------------------------------------------------------------
class TestSweepFailures:
    def test_inline_sweep_runs_every_cell_before_failing(self, tmp_path):
        state = str(tmp_path / "state")
        grid = {"behavior": ["fail", "ok"], "x": [1, 2, 3]}
        with pytest.raises(SweepError) as excinfo:
            run_sweep("faulty", grid, base={"state_dir": state}, jobs=1)
        # the failing cells come first in grid order, and the rest ran anyway
        for behavior in grid["behavior"]:
            for x in grid["x"]:
                assert attempt_count(state, x, behavior) == 1, (behavior, x)
        failures = excinfo.value.failures
        assert [params for params, _error in failures] == [
            {"behavior": "fail", "x": x} for x in grid["x"]
        ]
        assert {error["type"] for _params, error in failures} == {"InjectedFailure"}
        # the error carries the cells that settled ok, in grid order
        assert [cell.params for cell in excinfo.value.result.cells] == [
            {"behavior": "ok", "x": x} for x in grid["x"]
        ]
        assert (
            "behavior=fail x=2: InjectedFailure: injected failure for x=2"
            in str(excinfo.value)
        )

    def test_forked_sweep_survives_a_crashed_worker(self, tmp_path):
        state = str(tmp_path / "state")
        grid = {"behavior": ["crash", "fail", "ok"], "x": [1, 2]}
        with pytest.raises(SweepError) as excinfo:
            run_sweep("faulty", grid, base={"state_dir": state}, jobs=2)
        kinds = {
            params["behavior"]: error.get("type") or error["kind"]
            for params, error in excinfo.value.failures
        }
        assert kinds == {"crash": "worker-crash", "fail": "InjectedFailure"}
        failed = [params for params, _error in excinfo.value.failures]
        assert failed == [
            {"behavior": b, "x": x} for b in ("crash", "fail") for x in (1, 2)
        ]
        message = str(excinfo.value)
        assert "behavior=crash x=1: worker-crash: worker exited with code 3" in message
        assert "behavior=fail x=1: InjectedFailure" in message
        for behavior in grid["behavior"]:  # one attempt each, none retried
            for x in grid["x"]:
                assert attempt_count(state, x, behavior) == 1, (behavior, x)

    def test_cli_names_the_failed_cells_without_a_traceback(self, tmp_path):
        for jobs in ("1", "2"):
            state, out = tmp_path / jobs, tmp_path / f"s-{jobs}.json"
            argv = ["sweep", "faulty", "--set", f"state_dir={state}",
                    "--jobs", jobs, "--out", str(out)]
            with pytest.raises(SystemExit) as excinfo:
                main(argv + ["--grid", "behavior=ok,fail"])
            assert excinfo.value.code.splitlines() == [
                "1 sweep cell(s) failed:",
                "  behavior=fail: InjectedFailure: injected failure for x=0 "
                "(attempt 1)",
            ]
            assert attempt_count(str(state), 0, "ok") == 1
            # the ok cell is kept, and a re-run reuses it
            cells = load_json_or_none(str(out))["cells"]
            assert [c["params"] for c in cells] == [{"behavior": "ok"}]
            assert main(argv + ["--grid", "behavior=ok"]) == 0
            assert attempt_count(str(state), 0, "ok") == 1


def test_inline_sweep_passes_overrides_as_given():
    # an inline cell runs the base overrides in the sweep's own process
    # and keeps the experiment's native result
    base = dict(TINY, topology_params={"hosts_per_tor": 2}, cc_params={"gamma": 0.8})
    (cell,) = run_sweep("websearch", {"load": [0.2]}, base=base).cells
    assert cell.result.raw is not None
    config = cell.result.provenance["config"]
    assert config["topology_params"] == {"hosts_per_tor": 2}
    assert config["cc_params"] == {"gamma": 0.8}
    assert config["load"] == 0.2


def test_sweep_and_campaign_executors_agree_per_cell(tmp_path):
    grid = {"algorithm": ["powertcp", "dcqcn"], "fanout": [2, 3]}
    base = {"burst_bytes": 20_000, "duration_ns": 600_000}
    docs = [
        run_sweep("incast", grid, base=base, seed=3, jobs=jobs).to_json_dict()
        for jobs in (1, 2)
    ]
    for name, executor in (("inline", InlineExecutor()), ("pool", LocalPoolExecutor())):
        manifest = manifest_from_dict({
            "scenario": "incast", "grid": grid, "base": base, "seed": 3,
            "workers": 2, "journal_fsync": False,
            "out": str(tmp_path / f"{name}.json"),
        })
        report = Campaign(manifest, quiet=True, executor=executor).run()
        assert report.complete and report.executed == 4
        docs.append(load_json_or_none(report.out_path))

    def per_cell(doc):
        return [
            (c["params"], c["metrics"], c["series"],
             c["provenance"]["events_processed"])
            for c in doc["cells"]
        ]

    reference = per_cell(docs[0])
    assert len(reference) == 4
    for doc in docs[1:]:
        assert per_cell(doc) == reference
