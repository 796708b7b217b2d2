"""The campaign orchestrator: drive every grid cell to completion.

``Campaign.run()`` expands the manifest's grid, consults the *merged*
cache (final output + every shard file + the journal), and dispatches
only the missing/failed cells across an :class:`Executor` worker pool —
with per-cell wall-clock timeouts, bounded retries under exponential
backoff with seeded jitter, and worker-crash detection and respawn.

Failure model, end to end:

* a cell *raises*      -> the worker reports it; retry with backoff;
* a cell *hangs*       -> the wall-clock timeout kills the worker;
  retry; the worker is respawned;
* a worker *dies*      -> EOF on its pipes surfaces as a crash; the cell
  retries; the worker is respawned;
* retries exhaust      -> the cell goes terminal as ``failed``/
  ``timeout`` with full error provenance — it still appears in the
  merged output, so completeness is checkable, and it re-runs on the
  next invocation;
* the orchestrator dies (`kill -9`) -> the journal has every completed
  cell; re-invoking the same manifest resumes, re-running only
  missing/failed cells;
* SIGINT               -> drain (stop dispatching, let running cells
  finish under their timeouts), persist, print the resume command; a
  second SIGINT reclaims the workers immediately.

Results flow through the orchestrator, they do not live in it: a settled
cell's payload goes to the journal and the cell keeps only the record's
byte offset.  At the end one pass reads each record back and streams it
into the cell's shard document and the merged one; the merged document is
committed only once the shard files on disk were verified to hold exactly
the expanded grid, then the failure report is written and the journal
deleted — the shard files and merged document then own the results.
"""

from __future__ import annotations

import heapq
import json
import os
import signal
import sys
import threading
import time
import warnings
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.analysis.results import ResultSet, failure_report, shard_files
from repro.campaign import journal as journal_mod
from repro.campaign.executor import Executor, LocalPoolExecutor, WorkerEvent
from repro.campaign.manifest import CampaignManifest, shard_of
from repro.campaign.progress import ProgressTracker
from repro.campaign.retry import RetryPolicy
from repro.persist import (
    CellDocumentWriter,
    atomic_write_json,
    encode_cell,
    load_json_or_none,
)
from repro.scenarios.base import config_to_jsonable
from repro.scenarios.registry import get_scenario
from repro.scenarios.sweep import (
    cell_key,
    cell_overrides,
    expand_cells,
    shard_results_path,
    validate_cached_cell,
)

#: terminal cell states
_TERMINAL = ("ok", "failed", "timeout")

#: event-loop poll cap: keeps timeout checks and progress
#: output fresh without busy-waiting
_POLL_CAP_S = 0.5


class CampaignError(RuntimeError):
    """A campaign-level invariant violation (e.g. an incomplete merge)."""


@dataclass
class CampaignCell:
    """One grid cell's lifecycle state inside the orchestrator."""

    index: int
    shard: int  # 1-based
    params: Dict[str, Any]
    overrides: Dict[str, Any]
    key: str
    status: str = "pending"  # pending | running | ok | failed | timeout
    attempts: int = 0
    error: Optional[Dict[str, Any]] = None
    #: where the journal holds the sweep-format cell dict, once terminal
    offset: Optional[int] = None
    duration_s: Optional[float] = None

    @property
    def terminal(self) -> bool:
        return self.status in _TERMINAL


@dataclass
class CampaignReport:
    """What one ``Campaign.run()`` did, for callers and the CLI."""

    total_cells: int = 0
    ok: int = 0
    failed: int = 0
    executed: int = 0  # fresh executions (cells dispatched this run)
    retried: int = 0  # retry dispatches beyond first attempts
    reused_cache: int = 0
    recovered_journal: int = 0
    stale_dropped: int = 0
    workers_respawned: int = 0
    interrupted: bool = False
    merged: bool = False
    out_path: str = ""
    failures_path: Optional[str] = None

    @property
    def complete(self) -> bool:
        return self.merged and self.failed == 0 and not self.interrupted


class Campaign:
    """One orchestrated run of a :class:`CampaignManifest`."""

    def __init__(
        self,
        manifest: CampaignManifest,
        *,
        workers: Optional[int] = None,
        out: Optional[str] = None,
        force: bool = False,
        quiet: bool = False,
        executor: Optional[Executor] = None,
        manifest_path: Optional[str] = None,
    ):
        self.manifest = manifest
        self.workers = workers if workers is not None else manifest.workers
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.force = force
        self.quiet = quiet
        self.manifest_path = manifest_path
        self.out_path = out or manifest.out_path()
        self.executor = executor or LocalPoolExecutor(
            grace_s=manifest.limits.worker_grace_s
        )
        self.policy = RetryPolicy(manifest.limits, seed=manifest.seed)
        self.report = CampaignReport(out_path=self.out_path)
        self._interrupts = 0
        # runtime state (populated by run())
        self.cells: List[CampaignCell] = []
        self._journal: Optional[journal_mod.Journal] = None
        self._progress: Optional[ProgressTracker] = None

    # -- paths ---------------------------------------------------------
    def shard_path(self, shard: int) -> str:
        return shard_results_path(
            self.out_path, (shard, self.manifest.shards)
        )

    def journal_file(self) -> str:
        return journal_mod.journal_path(self.out_path)

    def failures_file(self) -> str:
        return journal_mod.failures_path(self.out_path)

    def resume_command(self) -> str:
        target = self.manifest_path or "<manifest.json>"
        return f"python -m repro campaign {target}"

    # -- setup ---------------------------------------------------------
    def _expand(self) -> None:
        spec = self.manifest.to_spec()
        spec.validate()
        self.cells = []
        for index, params in enumerate(expand_cells(spec)):
            overrides = cell_overrides(spec, params)
            shard, _count = shard_of(index, self.manifest.shards)
            self.cells.append(
                CampaignCell(
                    index=index,
                    shard=shard,
                    params=params,
                    overrides=overrides,
                    key=cell_key(spec.scenario, overrides),
                )
            )
        self.report.total_cells = len(self.cells)

    def _consult_caches(self) -> None:
        """Mark cells already completed: merged output, shard files,
        then the journal (the only record of an unfinished run).

        A cell adopted from a document is copied into the journal, so
        that every settled cell is one journal offset whatever its
        source; a copy the journal already holds is not made twice.
        """
        if self.force:
            return
        scenario = get_scenario(self.manifest.scenario)
        by_key = {c.key: c for c in self.cells}
        journaled = journal_mod.replay_offsets(self.journal_file())
        paths = [self.out_path] + [
            self.shard_path(s) for s in range(1, self.manifest.shards + 1)
        ]
        for path in paths:
            doc = load_json_or_none(path, label="campaign cache")
            if doc is None:
                continue
            for cell_doc in doc.get("cells", []):
                cell = self._reusable(scenario, by_key, cell_doc)
                if cell is None:
                    continue
                offset = journaled.get(cell.key)
                if (
                    offset is None
                    or self._journal.read(offset).get("cell") != cell_doc
                ):
                    # Not fsynced: ``path`` holds the cell until the
                    # document replacing it has been.
                    offset = self._journal.append(
                        {"event": "cell_ok", "cell": cell_doc}, durable=False
                    )
                self._adopt(cell, cell_doc, offset)
                self.report.reused_cache += 1
        for offset in journaled.values():
            cell_doc = self._journal.read(offset)["cell"]
            cell = self._reusable(scenario, by_key, cell_doc)
            if cell is not None:
                self._adopt(cell, cell_doc, offset)
                self.report.recovered_journal += 1

    def _reusable(
        self,
        scenario,
        by_key: Dict[str, CampaignCell],
        cell_doc: Dict[str, Any],
    ) -> Optional[CampaignCell]:
        """The still-open grid cell a persisted cell dict settles, if any."""
        overrides = cell_doc.get("overrides")
        if overrides is None:
            return None
        if cell_doc.get("status", "ok") != "ok":
            return None  # failed/timeout cells always re-run on resume
        cell = by_key.get(cell_key(cell_doc.get("scenario", ""), overrides))
        if cell is None or cell.terminal:
            return None
        if not validate_cached_cell(
            scenario, cell.overrides, cell_doc.get("provenance", {})
        ):
            self.report.stale_dropped += 1
            return None
        return cell

    @staticmethod
    def _adopt(cell: CampaignCell, doc: Dict[str, Any], offset: int) -> None:
        cell.status = "ok"
        cell.offset = offset
        cell.attempts = doc.get("attempts", 1)

    # -- cell documents -------------------------------------------------
    def _ok_doc(
        self, cell: CampaignCell, result_json: Dict[str, Any]
    ) -> Dict[str, Any]:
        doc = {
            "params": config_to_jsonable(cell.params),
            "overrides": config_to_jsonable(cell.overrides),
            **result_json,
        }
        if cell.attempts != 1:
            doc["attempts"] = cell.attempts
        return doc

    def _failed_doc(self, cell: CampaignCell) -> Dict[str, Any]:
        return {
            "params": config_to_jsonable(cell.params),
            "overrides": config_to_jsonable(cell.overrides),
            "scenario": self.manifest.scenario,
            "metrics": {},
            "series": {},
            "provenance": {},
            "status": cell.status,
            "error": config_to_jsonable(cell.error or {}),
            "attempts": cell.attempts,
        }

    # -- persistence ---------------------------------------------------
    def _header(self, **campaign: Any) -> Dict[str, Any]:
        """A sweep-format document (one shard's, or the merged one)
        without its cells."""
        spec = self.manifest.to_spec()
        return {
            "scenario": spec.scenario,
            "grid": config_to_jsonable(spec.grid),
            "base": config_to_jsonable(spec.base),
            "seed": spec.seed,
            "campaign": {"manifest_sha": self.manifest.sha(), **campaign},
        }

    def _persist(self) -> None:
        """Derive the documents from the journal, in one pass.

        Called once per ``run()``, after the workers stopped: while cells
        are still running the journal alone holds their results.  Every
        settled cell is read back, encoded once and streamed into its
        shard document and — unless the run was interrupted — the merged
        one, which is committed only after the shard files passed
        :meth:`_verify_shards`; then the failure report is written.
        """
        shards = self.manifest.shards
        failed: List[Dict[str, Any]] = []
        with ExitStack() as uncommitted:  # aborts whatever did not commit
            shard_docs = [
                uncommitted.enter_context(
                    CellDocumentWriter(
                        self.shard_path(shard),
                        self._header(shard=[shard, shards]),
                    )
                )
                for shard in range(1, shards + 1)
            ]
            merged = None
            if not self.report.interrupted:
                merged = uncommitted.enter_context(
                    CellDocumentWriter(self.out_path, self._header())
                )
            for cell in self.cells:
                if cell.offset is None:
                    continue
                doc = self._journal.read(cell.offset)["cell"]
                block = encode_cell(doc)
                shard_docs[cell.shard - 1].add_encoded(block)
                if merged is not None:
                    merged.add_encoded(block)
                if cell.status != "ok":
                    failed.append(doc)
            for shard_doc in shard_docs:
                shard_doc.commit()
            if merged is None:
                return
            self._verify_shards()
            merged.commit()
        report = failure_report(
            ResultSet.from_doc({"cells": failed}, self.out_path),
            total_cells=len(self.cells),
        )
        if failed:
            atomic_write_json(self.failures_file(), report)
            self.report.failures_path = self.failures_file()
        else:
            try:
                os.unlink(self.failures_file())
            except OSError:
                pass
        self.report.merged = True

    def _verify_shards(self) -> None:
        """The shard files on disk must hold exactly the expanded grid."""
        directory = os.path.dirname(os.path.abspath(self.out_path))
        stem = os.path.splitext(os.path.basename(self.out_path))[0]
        found: Set[str] = set()
        for path in shard_files(directory, stem):
            # one shard's parse at a time; only the keys outlive it
            found.update(
                cell_key(c.scenario, c.overrides)
                for c in ResultSet.load(path).cells
            )
        expected = {c.key for c in self.cells}
        missing = expected - found
        if missing:
            raise CampaignError(
                f"merge incomplete: {len(missing)} of {len(expected)} cells "
                "absent from the shard files"
            )
        extra = found - expected
        if extra:
            warnings.warn(
                f"campaign merge: {len(extra)} cell(s) in the shard files "
                "do not belong to this manifest's grid (edited grid?); "
                "they are excluded from the merged output",
                stacklevel=2,
            )

    # -- the run loop --------------------------------------------------
    def run(self) -> CampaignReport:
        self.manifest.import_modules()
        self._expand()
        self._journal = journal_mod.Journal(
            self.journal_file(), fsync=self.manifest.journal_fsync
        )
        try:
            self._run()
        finally:
            # Closed, never deleted here: whatever went wrong, the next
            # invocation resumes from it.
            self._journal.close()
        return self.report

    def _run(self) -> None:
        shas = journal_mod.manifest_shas(self.journal_file())
        self._consult_caches()

        shard_totals: Dict[int, int] = {}
        for cell in self.cells:
            shard_totals[cell.shard] = shard_totals.get(cell.shard, 0) + 1
        self._progress = ProgressTracker(
            shard_totals,
            self.workers,
            stream=None if self.quiet else sys.stderr,
        )
        for cell in self.cells:
            if cell.terminal:
                self._progress.cell_done(cell.shard, ok=True, duration_s=None)

        remaining = [c for c in self.cells if not c.terminal]
        if shas and shas[-1] != self.manifest.sha():
            warnings.warn(
                "campaign journal was written by a different manifest "
                "revision; cells are matched by (scenario, overrides) so "
                "resume is safe, but review the manifest edit",
                stacklevel=2,
            )
        event = "campaign_resume" if (shas or self.report.reused_cache) else "campaign_start"
        self._journal.append(
            {
                "event": event,
                "manifest_sha": self.manifest.sha(),
                "total_cells": len(self.cells),
                "recovered": self.report.recovered_journal,
                "reused": self.report.reused_cache,
            }
        )

        try:
            if remaining:
                self._drive(remaining)
        finally:
            self.executor.shutdown()
        self.report.ok = sum(1 for c in self.cells if c.status == "ok")
        self.report.failed = sum(
            1 for c in self.cells if c.status in ("failed", "timeout")
        )
        self._persist()

        if self.report.interrupted:
            self._journal.append(
                {"event": "campaign_interrupted", "pending": sum(
                    1 for c in self.cells if not c.terminal
                )}
            )
            self._say(
                f"interrupted — progress persisted; resume with: "
                f"{self.resume_command()}"
            )
        else:
            self._journal.append(
                {
                    "event": "campaign_complete",
                    "ok": self.report.ok,
                    "failed": self.report.failed,
                }
            )
            self._journal.delete()

    def _say(self, message: str) -> None:
        if not self.quiet:
            print(f"[campaign] {message}", file=sys.stderr, flush=True)

    # -- signal handling ------------------------------------------------
    def _install_sigint(self):
        if threading.current_thread() is not threading.main_thread():
            return None

        def handler(_signum, _frame):
            self._interrupts += 1
            if self._interrupts == 1:
                self._say(
                    "SIGINT: draining (running cells finish, nothing new "
                    "dispatches); press again to stop immediately"
                )
            else:
                raise KeyboardInterrupt

        return signal.signal(signal.SIGINT, handler)

    def _drive(self, remaining: List[CampaignCell]) -> None:
        limits = self.manifest.limits
        timeout_s = limits.cell_timeout_s
        ready: List = []  # (ready_time, cell_index) heap
        now = time.monotonic()
        for cell in remaining:
            heapq.heappush(ready, (now, cell.index))
        unfinished = len(remaining)  # cells not terminal yet

        next_task_id = 1
        task_cell: Dict[int, int] = {}
        task_started: Dict[int, float] = {}
        task_worker: Dict[int, int] = {}
        prev_handler = self._install_sigint()

        def dispatch(cell: CampaignCell, now: float) -> bool:
            nonlocal next_task_id
            task = {
                "op": "run",
                "id": next_task_id,
                "scenario": self.manifest.scenario,
                "overrides": config_to_jsonable(cell.overrides),
                "modules": list(self.manifest.modules),
            }
            worker_id = self.executor.submit(task)
            if worker_id is None:
                return False
            task_id = next_task_id
            next_task_id += 1
            if cell.attempts:
                self.report.retried += 1
                self._progress.cell_retried()
            cell.attempts += 1
            cell.status = "running"
            task_cell[task_id] = cell.index
            task_started[task_id] = now
            task_worker[task_id] = worker_id
            self.report.executed += 1
            return True

        def refill(now: float) -> None:
            """Dispatch due cells onto idle workers (never while draining)."""
            while (
                not self._interrupts
                and ready
                and ready[0][0] <= now
                and self.executor.idle_worker_ids()
            ):
                _t, index = heapq.heappop(ready)
                cell = self.cells[index]
                if cell.terminal or cell.status == "running":
                    continue
                if not dispatch(cell, now):
                    heapq.heappush(ready, (now, index))
                    break

        def forget_task(task_id: int) -> None:
            task_cell.pop(task_id, None)
            task_started.pop(task_id, None)
            task_worker.pop(task_id, None)

        def release(
            event: WorkerEvent,
        ) -> Optional[Tuple[WorkerEvent, CampaignCell, float]]:
            """Drop the task an event ended from the task tables (its
            worker is idle or gone); returns what ``settle`` needs, or
            None when the event ends no task the tables know."""
            task_id = event.task_id
            if task_id not in task_cell:
                if event.kind == "exit":
                    self.report.workers_respawned += 1
                return None
            cell = self.cells[task_cell[task_id]]
            started = task_started[task_id]
            forget_task(task_id)
            return event, cell, started

        def settle(
            event: WorkerEvent, cell: CampaignCell, started: float, now: float
        ) -> None:
            if event.kind == "result":
                payload = event.payload or {}
                if payload.get("ok"):
                    settle_ok(cell, now - started, payload)
                else:
                    error = dict(payload.get("error") or {})
                    error.setdefault("kind", "exception")
                    settle_failure(cell, error, now)
            else:  # worker exit while running this cell
                self.report.workers_respawned += 1
                settle_failure(
                    cell,
                    {
                        "kind": "worker-crash",
                        "message": (
                            f"worker exited with code {event.returncode} "
                            "while running this cell"
                        ),
                        "returncode": event.returncode,
                        "stderr_tail": event.stderr_tail[-1000:],
                    },
                    now,
                )

        def settle_ok(
            cell: CampaignCell, duration_s: float, payload: Dict
        ) -> None:
            nonlocal unfinished
            cell.duration_s = duration_s
            cell.status = "ok"
            unfinished -= 1
            cell.offset = self._journal.append(
                {
                    "event": "cell_ok",
                    "cell": self._ok_doc(cell, payload.get("result") or {}),
                }
            )
            self._progress.cell_done(cell.shard, ok=True, duration_s=duration_s)

        def settle_failure(
            cell: CampaignCell, error: Dict[str, Any], now: float, *,
            timed_out: bool = False,
        ) -> None:
            """One attempt died; retry with backoff or go terminal."""
            nonlocal unfinished
            if self.policy.should_retry(cell.attempts):
                delay = self.policy.delay_s(cell.attempts)
                cell.status = "pending"
                heapq.heappush(ready, (now + delay, cell.index))
                self._journal.append(
                    {
                        "event": "cell_retry",
                        "key": cell.key,
                        "attempt": cell.attempts,
                        "kind": error.get("kind", "exception"),
                        "delay_s": round(delay, 3),
                    }
                )
                return
            cell.status = "timeout" if timed_out else "failed"
            unfinished -= 1
            cell.error = error
            cell.offset = self._journal.append(
                {"event": "cell_failed", "cell": self._failed_doc(cell)}
            )
            self._progress.cell_done(cell.shard, ok=False, duration_s=None)

        try:
            while unfinished:
                draining = self._interrupts > 0
                if draining and not task_cell:
                    self.report.interrupted = True
                    break

                now = time.monotonic()
                # Respawn crashed workers up to demand.
                if not draining:
                    self.executor.ensure_workers(min(self.workers, unfinished))
                refill(now)

                # Wait for results/exits, but wake for the next deadline.
                wake_candidates = [_POLL_CAP_S]
                if task_started:
                    wake_candidates.append(
                        min(task_started.values()) + timeout_s - now
                    )
                if ready:
                    wake_candidates.append(ready[0][0] - now)
                poll_s = max(0.01, min(wake_candidates))
                events = self.executor.events(poll_s)

                # The workers these events freed get their next cell
                # before the results are journaled (an fsync per record),
                # so they compute while the orchestrator writes.
                now = time.monotonic()
                ended = [r for r in map(release, events) if r is not None]
                refill(now)
                for event, cell, started in ended:
                    settle(event, cell, started, now)

                # Enforce per-cell wall-clock timeouts.
                for task_id, started in sorted(task_started.items()):
                    if now - started < timeout_s:
                        continue
                    cell = self.cells[task_cell[task_id]]
                    worker_id = task_worker.get(task_id)
                    if worker_id is not None:
                        self.executor.kill_worker(worker_id)
                        self.report.workers_respawned += 1
                    forget_task(task_id)
                    settle_failure(
                        cell,
                        {
                            "kind": "timeout",
                            "message": (
                                f"cell exceeded the {timeout_s:g}s "
                                "wall-clock limit and was killed"
                            ),
                        },
                        now,
                        timed_out=True,
                    )

                self._progress.set_running(len(task_cell))
                self._progress.maybe_print()
        except KeyboardInterrupt:
            self.report.interrupted = True
            self._say("second SIGINT: reclaiming workers immediately")
        finally:
            if prev_handler is not None:
                signal.signal(signal.SIGINT, prev_handler)
        self._progress.set_running(0)
        self._progress.maybe_print(force=True)


def run_campaign(
    manifest: CampaignManifest,
    *,
    workers: Optional[int] = None,
    out: Optional[str] = None,
    force: bool = False,
    quiet: bool = False,
    executor: Optional[Executor] = None,
    manifest_path: Optional[str] = None,
) -> CampaignReport:
    """One-call convenience wrapper around :class:`Campaign`."""
    return Campaign(
        manifest,
        workers=workers,
        out=out,
        force=force,
        quiet=quiet,
        executor=executor,
        manifest_path=manifest_path,
    ).run()
