"""Campaign orchestrator tests: manifests, retry policy, journal replay,
and end-to-end fault tolerance against real worker subprocesses.

The e2e tests drive the ``faulty`` scenario (fail/crash/hang on chosen
attempts) through the real ``LocalPoolExecutor`` worker pool, so they
exercise the actual failure machinery: timeout kills, retry-then-succeed,
retries-exhausted reporting, worker respawn, and kill-and-resume journal
replay with execution counts verified via the scenario's cross-process
attempt counters.
"""

import gc
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings

import pytest

import repro.scenarios.faulty  # registers the "faulty" scenario  # noqa: F401
from repro import persist as persist_mod
from repro.analysis.results import ResultSet, failure_report
from repro.campaign import (
    Campaign,
    CampaignError,
    CampaignManifest,
    Executor,
    LimitsPolicy,
    LocalPoolExecutor,
    RetryPolicy,
    WorkerEvent,
    load_manifest,
    manifest_from_dict,
    run_campaign,
)
from repro.campaign import journal as journal_mod
from repro.campaign import orchestrator as orchestrator_mod
from repro.campaign import worker as worker_mod
from repro.campaign.manifest import shard_of
from repro.campaign.progress import ProgressTracker
from repro.campaign.worker import _execute
from repro.scenarios.faulty import attempt_count, worker_pids


def _manifest_doc(tmp_path, grid, base=None, **extra):
    doc = {
        "scenario": "faulty",
        "grid": grid,
        "base": {"state_dir": str(tmp_path / "state"), **(base or {})},
        "modules": ["repro.scenarios.faulty"],
        "out": str(tmp_path / "out.json"),
        "workers": 2,
        "journal_fsync": False,
        "limits": {
            "cell_timeout_s": 10.0,
            "max_attempts": 3,
            "backoff_base_s": 0.01,
            "backoff_max_s": 0.05,
            "straggler_min_s": 60.0,
        },
    }
    doc.update(extra)
    return doc


def _run(tmp_path, grid, base=None, **extra):
    manifest = manifest_from_dict(_manifest_doc(tmp_path, grid, base, **extra))
    report = run_campaign(manifest, quiet=True)
    return manifest, report


def _spawn_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _load_cells(path):
    with open(path) as handle:
        doc = json.load(handle)
    return {
        (c["params"].get("behavior", "ok"), c["params"]["x"]): c
        for c in doc["cells"]
    }


def _load_failures(report, out_path):
    """The persisted failure report, checked against the derivation it
    replaced: re-parsing the merged document it sits next to."""
    with open(report.failures_path) as handle:
        failures = json.load(handle)
    assert failures == failure_report(ResultSet.load(out_path))
    return failures


# ----------------------------------------------------------------------
# manifests
# ----------------------------------------------------------------------
class TestManifest:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            manifest_from_dict({"scenario": "faulty", "retries": 3})
        # the removed shard-flush knob fails the launch by name
        with pytest.raises(ValueError, match=r"unknown key\(s\) flush_every"):
            manifest_from_dict({"scenario": "faulty", "flush_every": 16})

    def test_unknown_limits_keys_rejected(self):
        with pytest.raises(ValueError, match="limits: unknown key"):
            manifest_from_dict(
                {
                    "scenario": "faulty",
                    "modules": ["repro.scenarios.faulty"],
                    "limits": {"cell_timeout": 5},
                }
            )

    def test_scenario_required(self):
        with pytest.raises(ValueError, match="scenario"):
            manifest_from_dict({"grid": {"x": [1]}})

    def test_grid_validated_against_scenario(self):
        with pytest.raises(ValueError, match="unknown config field"):
            manifest_from_dict(
                {
                    "scenario": "faulty",
                    "modules": ["repro.scenarios.faulty"],
                    "grid": {"nonesuch": [1, 2]},
                }
            )

    def test_limit_bounds_validated(self):
        with pytest.raises(ValueError, match="max_attempts"):
            CampaignManifest(
                scenario="faulty", limits=LimitsPolicy(max_attempts=0)
            ).validate()

    def test_load_manifest_round_trips(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_manifest_doc(tmp_path, {"x": [1, 2]})))
        manifest = load_manifest(str(path))
        assert manifest.scenario == "faulty"
        assert manifest.sha() == manifest_from_dict(
            _manifest_doc(tmp_path, {"x": [1, 2]})
        ).sha()

    def test_shard_of_matches_sweep_partition(self):
        # sweep --shard I/N keeps positions k with k % N == I - 1
        assigned = [shard_of(k, 3)[0] for k in range(7)]
        assert assigned == [1, 2, 3, 1, 2, 3, 1]


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_bounded_attempts(self):
        policy = RetryPolicy(LimitsPolicy(max_attempts=3))
        assert policy.should_retry(1) and policy.should_retry(2)
        assert not policy.should_retry(3)

    def test_backoff_grows_and_caps(self):
        limits = LimitsPolicy(
            backoff_base_s=1.0, backoff_factor=2.0, backoff_max_s=3.0,
            jitter_frac=0.0,
        )
        policy = RetryPolicy(limits)
        assert policy.delay_s(1) == 1.0
        assert policy.delay_s(2) == 2.0
        assert policy.delay_s(3) == 3.0  # capped
        assert policy.delay_s(6) == 3.0

    def test_jitter_is_seeded_and_bounded(self):
        limits = LimitsPolicy(
            backoff_base_s=1.0, backoff_factor=1.0, jitter_frac=0.5
        )
        p1, p2 = RetryPolicy(limits, seed=7), RetryPolicy(limits, seed=7)
        a = [p1.delay_s(1) for _ in range(5)]
        b = [p2.delay_s(1) for _ in range(5)]
        assert a == b  # identical schedule for identical seeds
        assert all(0.5 <= d <= 1.5 for d in a)
        assert len(set(a)) > 1  # it does jitter

    def test_straggler_threshold(self):
        policy = RetryPolicy(
            LimitsPolicy(straggler_factor=4.0, straggler_min_s=10.0)
        )
        assert policy.straggler_threshold_s(None) == float("inf")
        assert policy.straggler_threshold_s(1.0) == 10.0  # floor wins
        assert policy.straggler_threshold_s(5.0) == 20.0


# ----------------------------------------------------------------------
# journal
# ----------------------------------------------------------------------
class TestJournal:
    def test_replay_later_records_win(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        cell_v1 = {"scenario": "s", "overrides": {"x": 1}, "metrics": {"v": 1}}
        cell_v2 = dict(cell_v1, metrics={"v": 2})
        with journal_mod.Journal(path, fsync=False) as journal:
            journal.append({"event": "cell_ok", "cell": cell_v1})
            journal.append({"event": "cell_ok", "cell": cell_v2})
        cells = journal_mod.replay_cells(path)
        assert len(cells) == 1
        assert next(iter(cells.values()))["metrics"] == {"v": 2}

    def test_torn_tail_tolerated(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with journal_mod.Journal(path, fsync=False) as journal:
            journal.append(
                {"event": "cell_ok", "cell": {"scenario": "s", "overrides": {}}}
            )
        with open(path, "a") as handle:  # a write the kill tore mid-line
            handle.write('{"event": "cell_ok", "cell": {"scen')
        assert len(journal_mod.replay_cells(path)) == 1
        assert len(list(journal_mod.iter_records(path))) == 1

    def test_missing_journal_is_empty(self, tmp_path):
        assert journal_mod.replay_cells(str(tmp_path / "none.jsonl")) == {}

    def test_append_offsets_read_back_also_in_a_resumed_journal(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        records = [
            {"event": "cell_ok",
             "cell": {"scenario": "s", "overrides": {"x": x}, "pad": "é" * x}}
            for x in range(4)
        ]
        with journal_mod.Journal(path, fsync=False) as journal:
            offsets = [journal.append(record) for record in records[:2]]
        with journal_mod.Journal(path, fsync=False) as journal:  # a resume
            offsets += [journal.append(record) for record in records[2:]]
            assert offsets[0] == 0 and offsets == sorted(set(offsets))
            assert [journal.read(o) for o in reversed(offsets)] == records[::-1]
            # the replay finds the same offsets without holding payloads
            assert sorted(journal_mod.replay_offsets(path).values()) == offsets

    def test_resume_after_a_torn_tail_keeps_the_next_record(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w") as handle:  # a write the kill tore mid-line
            handle.write('{"event": "cell_ok", "cell": {"scen')
        record = {"event": "campaign_resume", "manifest_sha": "abc"}
        with journal_mod.Journal(path, fsync=False) as journal:
            offset = journal.append(record)
            assert journal.read(offset) == record
        assert list(journal_mod.iter_records(path)) == [record]

    def test_derived_paths(self):
        assert journal_mod.journal_path("a/b.json") == "a/b.journal.jsonl"
        assert journal_mod.failures_path("a/b.json") == "a/b.failures.json"


# ----------------------------------------------------------------------
# end-to-end fault tolerance (real worker subprocesses)
# ----------------------------------------------------------------------
class TestCampaignEndToEnd:
    def test_all_ok_campaign_merges_complete(self, tmp_path):
        manifest, report = _run(tmp_path, {"x": [1, 2, 3, 4]}, shards=2)
        assert report.complete and report.failed == 0
        cells = _load_cells(manifest.out_path())
        assert sorted(x for _b, x in cells) == [1, 2, 3, 4]
        for (_b, x), cell in cells.items():
            seed = cell["overrides"]["seed"]  # derived per cell
            assert cell["metrics"]["value"] == pytest.approx(x * 10 + seed % 7)
        # journal is deleted after a clean, fully merged finish
        assert not os.path.exists(journal_mod.journal_path(manifest.out_path()))

    def test_retry_then_succeed_records_attempts(self, tmp_path):
        manifest, report = _run(
            tmp_path, {"x": [1, 2], "behavior": ["fail", "crash"]},
            base={"fail_times": 1},
        )
        assert report.failed == 0 and report.retried == 4
        for cell in _load_cells(manifest.out_path()).values():
            assert cell.get("status", "ok") == "ok"
            assert cell["attempts"] == 2  # retry provenance survives merge

    def test_hang_killed_by_timeout_then_succeeds(self, tmp_path):
        manifest, report = _run(
            tmp_path, {"x": [1]},
            base={"behavior": "hang", "fail_times": 1, "hang_s": 30.0},
            limits={
                "cell_timeout_s": 1.0,
                "max_attempts": 3,
                "backoff_base_s": 0.01,
                "straggler_min_s": 60.0,
            },
        )
        assert report.failed == 0
        (cell,) = _load_cells(manifest.out_path()).values()
        assert cell["attempts"] == 2
        assert report.workers_respawned >= 1  # the hung worker was killed

    def test_retries_exhausted_reports_failure(self, tmp_path):
        manifest, report = _run(
            tmp_path, {"x": [1, 2]},
            base={"behavior": "fail"},  # fail_times=-1: every attempt fails
            limits={"cell_timeout_s": 10.0, "max_attempts": 2,
                    "backoff_base_s": 0.01},
        )
        assert report.failed == 2 and report.ok == 0
        assert not report.complete
        cells = _load_cells(manifest.out_path())
        assert len(cells) == 2  # failed cells still appear in the merge
        for cell in cells.values():
            assert cell["status"] == "failed"
            assert cell["attempts"] == 2
            assert cell["error"]["type"] == "InjectedFailure"
            assert "injected failure" in cell["error"]["message"]
        failures = _load_failures(report, manifest.out_path())
        assert failures["failed_cells"] == 2
        assert {f["params"]["x"] for f in failures["failures"]} == {1, 2}

    def test_timeout_exhausted_is_status_timeout(self, tmp_path):
        manifest, report = _run(
            tmp_path, {"x": [1]},
            base={"behavior": "hang", "hang_s": 30.0},
            limits={"cell_timeout_s": 0.5, "max_attempts": 2,
                    "backoff_base_s": 0.01},
        )
        assert report.failed == 1
        (cell,) = _load_cells(manifest.out_path()).values()
        assert cell["status"] == "timeout"
        assert cell["error"]["kind"] == "timeout"
        (failure,) = _load_failures(report, manifest.out_path())["failures"]
        assert failure["status"] == "timeout"

    def test_durations_are_measured_and_uniform_cells_not_speculated(
        self, tmp_path
    ):
        # work_s exceeds the event-loop poll cap: the straggler check only
        # runs when the loop wakes.  A near-zero median duration would pin
        # the threshold at straggler_min_s and duplicate the third cell.
        doc = _manifest_doc(
            tmp_path, {"x": [1, 2, 3]}, base={"work_s": 0.8},
            limits={"cell_timeout_s": 10.0, "straggler_min_s": 0.05,
                    "straggler_factor": 4.0},
        )
        campaign = Campaign(manifest_from_dict(doc), quiet=True)
        report = campaign.run()
        assert report.complete
        assert all(cell.duration_s >= 0.8 for cell in campaign.cells)
        assert report.executed == 3

    def test_failed_cells_rerun_on_reinvoke_ok_cells_reused(self, tmp_path):
        doc = _manifest_doc(
            tmp_path, {"x": [1, 2]}, base={"behavior": "fail", "fail_times": 2},
            limits={"cell_timeout_s": 10.0, "max_attempts": 2,
                    "backoff_base_s": 0.01},
        )
        manifest = manifest_from_dict(doc)
        first = run_campaign(manifest, quiet=True)
        assert first.failed == 2  # two attempts each, both misbehaving
        # Re-invoking re-runs only the failed cells; attempt 3 succeeds.
        second = run_campaign(manifest_from_dict(doc), quiet=True)
        assert second.failed == 0 and second.executed == 2
        state = str(tmp_path / "state")
        assert attempt_count(state, 1, "fail") == 3
        cells = _load_cells(manifest.out_path())
        assert all(c.get("status", "ok") == "ok" for c in cells.values())
        # A third invocation reuses everything.
        third = run_campaign(manifest_from_dict(doc), quiet=True)
        assert third.executed == 0 and third.reused_cache == 2

    def test_journal_recovers_cells_lost_from_shards(self, tmp_path):
        doc = _manifest_doc(tmp_path, {"x": [1, 2, 3]})
        manifest = manifest_from_dict(doc)
        run_campaign(manifest, quiet=True)
        # Simulate a crash after the journal was written but before any
        # shard flush survived: delete every persisted document, keep a
        # journal holding two of the three cells.
        out = manifest.out_path()
        with open(out) as handle:
            cells = json.load(handle)["cells"]
        os.unlink(out)
        for name in os.listdir(str(tmp_path)):
            if ".shard-" in name:
                os.unlink(str(tmp_path / name))
        with journal_mod.Journal(
            journal_mod.journal_path(out), fsync=False
        ) as journal:
            for cell in cells[:2]:
                journal.append({"event": "cell_ok", "cell": cell})
        report = run_campaign(manifest_from_dict(doc), quiet=True)
        assert report.recovered_journal == 2
        assert report.executed == 1  # only the journal-less cell re-ran
        assert report.complete
        state = str(tmp_path / "state")
        assert [attempt_count(state, x, "ok") for x in (1, 2, 3)] == [1, 1, 2]


class _FakeExecutor(Executor):
    """In-process pool: every ``events()`` call finishes the task of the
    lowest busy worker; submits and results go to a shared ``log``."""

    def __init__(self, log, on_events=None, result=None):
        self.log = log
        self.on_events = on_events
        #: a canned cell result returned (as a fresh copy per task, like a
        #: worker's parsed reply) instead of executing the scenario
        self.result = result
        self.count = 0
        self.busy = {}  # worker_id -> task

    def ensure_workers(self, count):
        self.count = max(self.count, count)
        return self.count

    def idle_worker_ids(self):
        return [w for w in range(1, self.count + 1) if w not in self.busy]

    def submit(self, task):
        idle = self.idle_worker_ids()
        if not idle:
            return None
        self.busy[idle[0]] = task
        self.log.append(("submit", idle[0]))
        return idle[0]

    def events(self, timeout_s):
        if self.on_events is not None:
            self.on_events()
        if not self.busy:
            return []
        worker_id = min(self.busy)
        task = self.busy.pop(worker_id)
        self.log.append(("result", worker_id))
        if self.result is None:
            reply = _execute(task)
        else:
            reply = {"id": task["id"], "ok": True, "result": self.result}
        return [
            WorkerEvent(
                "result", worker_id, task_id=task["id"],
                payload=json.loads(json.dumps(reply)),
            )
        ]

    def kill_worker(self, worker_id):
        task = self.busy.pop(worker_id, None)
        return None if task is None else task["id"]

    def shutdown(self):
        self.busy.clear()


class TestJournalOnlyPersistence:
    @pytest.mark.parametrize("sigint_at_poll", [None, 25])
    def test_shards_written_once_and_only_after_the_workers_stopped(
        self, tmp_path, monkeypatch, sigint_at_poll
    ):
        steps, seen_while_running, polls = [], [], []
        real_commit = persist_mod.CellDocumentWriter.commit
        real_verify = Campaign._verify_shards

        def recording_commit(writer):
            steps.append(writer.path)
            return real_commit(writer)

        def recording_verify(campaign):
            real_verify(campaign)
            steps.append("verified")

        def on_events():
            polls.append(None)
            seen_while_running.extend(
                name for name in os.listdir(str(tmp_path)) if ".shard-" in name
            )
            if len(polls) == sigint_at_poll:
                signal.raise_signal(signal.SIGINT)  # first SIGINT: drain

        monkeypatch.setattr(
            persist_mod.CellDocumentWriter, "commit", recording_commit
        )
        monkeypatch.setattr(Campaign, "_verify_shards", recording_verify)
        doc = _manifest_doc(tmp_path, {"x": list(range(1, 41))}, shards=2)
        campaign = Campaign(
            manifest_from_dict(doc), quiet=True,
            executor=_FakeExecutor([], on_events),
        )
        report = campaign.run()
        shard_paths = [campaign.shard_path(1), campaign.shard_path(2)]
        assert seen_while_running == []
        if sigint_at_poll is None:
            assert report.complete and report.executed == 40
            # the merged output: after every shard, and after they verified
            assert steps == shard_paths + ["verified", doc["out"]]
        else:
            assert report.interrupted and 0 < report.ok < 40
            assert steps == shard_paths
            assert not os.path.exists(doc["out"])
            persisted = sum(
                len(ResultSet.load(path)) for path in shard_paths
            )
            journaled = journal_mod.replay_cells(campaign.journal_file())
            assert persisted == len(journaled) == report.ok
        assert not [n for n in os.listdir(str(tmp_path)) if n.endswith(".tmp")]

    @staticmethod
    def _peak_bytes(tmp_path, cells, shards):
        """tracemalloc peak of one campaign over ~10 KB canned results."""
        result = {
            "scenario": "faulty",
            "metrics": {"x": 1.0},
            "series": {"pad": [i / 7 for i in range(520)]},
            "provenance": {},
        }
        assert 9_000 < len(json.dumps(result)) < 12_000
        # One worker: the fake pool always finishes its lowest busy
        # worker, so a second one would hold its first cell until the
        # 10 s cell timeout fired on a slow box (a retry, executed + 1).
        doc = _manifest_doc(
            tmp_path, {"x": list(range(cells))}, shards=shards,
            out=str(tmp_path / f"grid{cells}.json"), workers=1,
        )
        campaign = Campaign(
            manifest_from_dict(doc), quiet=True,
            executor=_FakeExecutor([], result=result),
        )
        gc.collect()
        tracemalloc.start()
        try:
            report = campaign.run()
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.complete and report.executed == cells
        return campaign, peak

    def test_parent_memory_is_flat_in_grid_size(self, tmp_path):
        """Payloads flow through the orchestrator: eight times the cells
        (at the same cells per shard — verification parses one shard at a
        time) may not take 1.5x the memory."""
        _small, small_peak = self._peak_bytes(tmp_path, 200, shards=1)
        big, big_peak = self._peak_bytes(tmp_path, 1600, shards=8)
        assert big_peak <= 1.5 * small_peak, (small_peak, big_peak)
        # a settled cell is an offset into the journal, not a payload
        for cell in big.cells:
            assert isinstance(cell.offset, int)
            assert not any(
                isinstance(value, (dict, list)) and value
                for name, value in vars(cell).items()
                if name not in ("params", "overrides")
            )
        with open(big.out_path) as handle:
            assert len(json.load(handle)["cells"]) == 1600

    def test_journal_is_closed_when_the_merge_raises_and_resume_recovers(
        self, tmp_path, monkeypatch
    ):
        def broken_verify(_campaign):
            raise CampaignError("merge incomplete: injected")

        doc = _manifest_doc(tmp_path, {"x": [1, 2, 3]}, shards=2)
        campaign = Campaign(
            manifest_from_dict(doc), quiet=True, executor=_FakeExecutor([])
        )
        monkeypatch.setattr(Campaign, "_verify_shards", broken_verify)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(CampaignError, match="injected"):
                campaign.run()
            journal_file = campaign.journal_file()
            del campaign
            gc.collect()  # an unclosed handle would warn here
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        # The merged output was not committed and nothing half-written is
        # left; the journal survived and still holds every cell.
        assert not os.path.exists(doc["out"])
        assert not [n for n in os.listdir(str(tmp_path)) if n.endswith(".tmp")]
        assert len(journal_mod.replay_cells(journal_file)) == 3
        monkeypatch.undo()
        report = run_campaign(
            manifest_from_dict(doc), quiet=True, executor=_FakeExecutor([])
        )
        assert report.complete and report.executed == 0
        assert report.reused_cache + report.recovered_journal == 3
        assert not os.path.exists(journal_file)

    def test_freed_worker_is_refilled_before_its_result_is_journaled(
        self, tmp_path, monkeypatch
    ):
        log = []
        real_append = journal_mod.Journal.append
        real_done = ProgressTracker.cell_done

        def logging_append(journal, record, **kwargs):
            log.append((record["event"],))
            return real_append(journal, record, **kwargs)

        def logging_done(tracker, *args, **kwargs):
            log.append(("counted",))
            real_done(tracker, *args, **kwargs)

        monkeypatch.setattr(journal_mod.Journal, "append", logging_append)
        monkeypatch.setattr(ProgressTracker, "cell_done", logging_done)
        doc = _manifest_doc(tmp_path, {"x": list(range(1, 7))})
        report = run_campaign(
            manifest_from_dict(doc), quiet=True, executor=_FakeExecutor(log)
        )
        assert report.complete
        results = [i for i, entry in enumerate(log) if entry[0] == "result"]
        assert len(results) == 6
        for n, i in enumerate(results):
            after = log[i + 1:i + 4]
            if n < 4:  # 2 of the 6 cells were dispatched up front
                assert after == [("submit", log[i][1]), ("cell_ok",), ("counted",)]
            else:  # nothing left to dispatch
                assert after[:2] == [("cell_ok",), ("counted",)]


class TestKillAndResume:
    def _journaled_ok(self, journal_path):
        return sum(
            1
            for record in journal_mod.iter_records(journal_path)
            if record.get("event") == "cell_ok"
        )

    def test_sigkill_midrun_then_resume_runs_only_missing(self, tmp_path):
        doc = _manifest_doc(
            tmp_path, {"x": list(range(1, 9))}, base={"work_s": 0.4},
        )
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        journal_path = journal_mod.journal_path(doc["out"])
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", str(path), "--quiet"],
            env=_spawn_env(),
        )
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self._journaled_ok(journal_path) >= 3:
                break
            time.sleep(0.05)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        journaled = self._journaled_ok(journal_path)
        assert journaled >= 3, "campaign died before journaling enough cells"
        state = str(tmp_path / "state")
        before = {x: attempt_count(state, x, "ok") for x in range(1, 9)}

        report = run_campaign(manifest_from_dict(doc), quiet=True)
        assert report.complete and report.total_cells == 8
        assert report.recovered_journal == journaled
        after = {x: attempt_count(state, x, "ok") for x in range(1, 9)}
        # Every journaled cell resumed without re-executing; every other
        # cell ran (again or for the first time).
        rerun = [x for x in before if before[x] and after[x] > before[x]]
        assert report.executed == 8 - journaled
        assert len(rerun) <= 8 - journaled
        cells = _load_cells(doc["out"])
        assert sorted(x for _b, x in cells) == list(range(1, 9))
        assert not os.path.exists(journal_path)

    def test_sigint_drains_persists_and_reports_resume(self, tmp_path):
        doc = _manifest_doc(
            tmp_path, {"x": list(range(1, 9))}, base={"work_s": 0.4},
        )
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        journal_path = journal_mod.journal_path(doc["out"])
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", str(path), "--quiet"],
            env=_spawn_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self._journaled_ok(journal_path) >= 2:
                break
            time.sleep(0.05)
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 130
        assert "resume with" in out
        assert os.path.exists(journal_path)  # progress survived the drain
        report = run_campaign(manifest_from_dict(doc), quiet=True)
        assert report.complete and report.total_cells == 8


def _alive(pid):
    """Whether ``pid`` still runs (a zombie awaiting its reaper does not)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True  # no /proc: signal 0 reached it


def _wait_events(executor, kind, count, timeout_s=30.0):
    seen = []
    deadline = time.monotonic() + timeout_s
    while len(seen) < count and time.monotonic() < deadline:
        seen += [e for e in executor.events(0.1) if e.kind == kind]
    assert len(seen) == count, f"saw {len(seen)} of {count} {kind!r} events"
    return seen


def _run_on_every_worker(executor, state_dir):
    """One instant faulty cell per idle worker; returns the workers' pids."""
    for task_id, _worker in enumerate(executor.idle_worker_ids(), 1):
        task = {
            "op": "run", "id": task_id, "scenario": "faulty",
            "overrides": {"x": task_id, "state_dir": state_dir}, "modules": [],
        }
        assert executor.submit(task) is not None
    results = _wait_events(executor, "result", task_id)
    assert all(event.payload["ok"] for event in results)
    return worker_pids(state_dir)


class TestForkedWorkers:
    """What a worker forked from the orchestrator keeps, drops and how it
    leaves (docs/INVARIANTS.md#forked-workers)."""

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="reads /proc/<pid>/fd (Linux)"
    )
    def test_a_live_worker_holds_only_its_three_pipes(self, tmp_path):
        executor = LocalPoolExecutor(grace_s=5.0)
        try:
            executor.ensure_workers(2)
            # the second worker was forked while the first one's pipes,
            # the selector and pytest's own files were open here
            pids = _run_on_every_worker(executor, str(tmp_path / "state"))
            assert len(pids) == 2
            for pid in pids:
                assert sorted(map(int, os.listdir(f"/proc/{pid}/fd"))) == [0, 1, 2]
        finally:
            executor.shutdown()

    def test_workers_exit_when_the_orchestrator_is_killed(self, tmp_path):
        doc = _manifest_doc(
            tmp_path, {"x": list(range(1, 17))}, base={"work_s": 0.3},
        )
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        state = str(tmp_path / "state")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", str(path), "--quiet"],
            env=_spawn_env(),
        )
        pids = []
        try:
            deadline = time.monotonic() + 60
            while len(pids) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                pids = worker_pids(state)
            assert len(pids) == 2, "the campaign never ran cells on 2 workers"
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            # EOF on stdin ends an idle worker; a busy one finishes its
            # cell, fails to reply into the closed pipe and exits
            deadline = time.monotonic() + 5
            while any(map(_alive, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in pids if _alive(pid)] == []
        finally:
            for pid in [proc.pid] + pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            proc.wait(timeout=30)

    def test_a_worker_takes_sigint_as_keyboardinterrupt(self, tmp_path):
        # the orchestrator forks while its draining SIGINT handler is set
        previous = signal.signal(signal.SIGINT, lambda _signum, _frame: None)
        executor = LocalPoolExecutor(grace_s=5.0)
        try:
            executor.ensure_workers(1)
        finally:
            signal.signal(signal.SIGINT, previous)
        try:
            (pid,) = _run_on_every_worker(executor, str(tmp_path / "state"))
            os.kill(pid, signal.SIGINT)
            (event,) = _wait_events(executor, "exit", 1)
        finally:
            executor.shutdown()
        assert event.returncode == 1
        assert "KeyboardInterrupt" in event.stderr_tail

    def test_a_worker_leaves_without_the_orchestrators_exit_path(self, tmp_path):
        doc = _manifest_doc(tmp_path, {"x": [1, 2, 3, 4]})
        log = str(tmp_path / "atexit.log")
        script = (
            "import atexit, json, os, sys\n"
            "from repro.campaign import manifest_from_dict, run_campaign\n"
            f"atexit.register(lambda: open({log!r}, 'a').write('%d\\n' % os.getpid()))\n"
            "sys.stdout.write('written before the fork\\n')\n"
            f"doc = json.loads({json.dumps(doc)!r})\n"
            "report = run_campaign(manifest_from_dict(doc), quiet=True)\n"
            "print('complete' if report.complete else 'incomplete')\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            env=_spawn_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        # the workers held the unflushed line too, and never wrote it
        assert out == "written before the fork\ncomplete\n"
        with open(log) as handle:
            assert handle.read() == f"{proc.pid}\n"  # the orchestrator's only

    def test_an_exception_escaping_main_exits_1_with_its_traceback(
        self, monkeypatch
    ):
        def broken_main():
            raise RuntimeError("the worker loop broke")

        monkeypatch.setattr(worker_mod, "main", broken_main)
        executor = LocalPoolExecutor(grace_s=5.0)
        try:
            executor.ensure_workers(1)
            (event,) = _wait_events(executor, "exit", 1)
        finally:
            executor.shutdown()
        assert event.returncode == 1
        assert "Traceback" in event.stderr_tail
        assert "RuntimeError: the worker loop broke" in event.stderr_tail

    def test_both_pipes_of_a_dead_worker_in_one_poll_are_one_exit(
        self, monkeypatch
    ):
        # A worker's exit closes its stdout and its stderr: one poll can
        # return both, stdout first, and the reap on stdout's end of file
        # closes the stderr the next key names.
        monkeypatch.setattr(worker_mod, "main", lambda: os._exit(3))
        executor = LocalPoolExecutor(grace_s=5.0)
        try:
            executor.ensure_workers(1)
            time.sleep(0.5)  # both pipes are at end of file by now
            select = executor._selector.select
            monkeypatch.setattr(
                executor._selector, "select",
                lambda timeout=None: sorted(
                    select(timeout), key=lambda item: item[0].data[1] != "out"
                ),
            )
            (event,) = _wait_events(executor, "exit", 1)
        finally:
            executor.shutdown()
        assert (event.returncode, event.stderr_tail) == (3, "")

    def test_the_pool_needs_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        with pytest.raises(RuntimeError, match="os.fork"):
            LocalPoolExecutor()
