"""The campaign orchestrator: drive every grid cell to completion.

``Campaign.run()`` expands the manifest's grid, consults the *merged*
cache (final output + every shard file + the journal), and hands only
the missing/failed cells to the grid driver (:mod:`repro.campaign.driver`:
per-cell wall-clock timeouts, bounded retries under exponential backoff
with seeded jitter, worker-crash detection and respawn) under the
manifest's ``limits``.  On top of the driver's failure model:

* retries exhaust      -> the terminal ``failed``/``timeout`` cell
  still appears in the merged output with full error provenance, so
  completeness is checkable, and it re-runs on the next invocation;
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

import os
import signal
import sys
import threading
import warnings
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.analysis.results import ResultSet, failure_report, shard_files
from repro.campaign import journal as journal_mod
from repro.campaign.driver import Executor, GridCell, GridDriver, grid_cells
from repro.campaign.executor import LocalPoolExecutor
from repro.campaign.manifest import CampaignManifest
from repro.campaign.progress import ProgressTracker
from repro.persist import (
    CellDocumentWriter,
    atomic_write_json,
    encode_cell,
    load_json_or_none,
)
from repro.scenarios.base import ScenarioResult, config_to_jsonable
from repro.scenarios.registry import get_scenario
from repro.scenarios.sweep import (
    cell_document,
    cell_key,
    reusable_cells,
    shard_results_path,
)


class CampaignError(RuntimeError):
    """A campaign-level invariant violation (e.g. an incomplete merge)."""


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


class Campaign(GridDriver):
    """One orchestrated run of a :class:`CampaignManifest`: the grid
    driver plus the journal, the shard documents, progress and the
    SIGINT drain."""

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
        super().__init__(
            manifest.scenario,
            executor or LocalPoolExecutor(grace_s=manifest.limits.worker_grace_s),
            workers if workers is not None else manifest.workers,
            manifest.limits,
            modules=manifest.modules,
            seed=manifest.seed,
        )
        self.manifest = manifest
        self.force = force
        self.quiet = quiet
        self.manifest_path = manifest_path
        self.out_path = out or manifest.out_path()
        self.report = CampaignReport(out_path=self.out_path)
        self._interrupts = 0
        # runtime state (populated by run())
        self.cells: List[GridCell] = []
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
        self.cells = grid_cells(spec, self.manifest.shards)
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
        scenario = get_scenario(self.scenario)
        by_key = {c.key: c for c in self.cells}
        wanted = {key: cell.overrides for key, cell in by_key.items()}
        journaled = journal_mod.replay_offsets(self.journal_file())
        paths = [self.out_path] + [
            self.shard_path(s) for s in range(1, self.manifest.shards + 1)
        ]
        for path in paths:
            doc = load_json_or_none(path, label="campaign cache")
            if doc is None:
                continue
            found, stale = reusable_cells(doc.get("cells", []), scenario, wanted)
            self.report.stale_dropped += stale
            for key, cell_doc in found.items():
                offset = journaled.get(key)
                if (
                    offset is None
                    or self._journal.read(offset).get("cell") != cell_doc
                ):
                    # Not fsynced: ``path`` holds the cell until the
                    # document replacing it has been.
                    offset = self._journal.append(
                        {"event": "cell_ok", "cell": cell_doc}, durable=False
                    )
                self._adopt(by_key[key], cell_doc, offset)
                self.report.reused_cache += 1
        found, stale = reusable_cells(
            (self._journal.read(offset)["cell"] for offset in journaled.values()),
            scenario,
            wanted,
        )
        self.report.stale_dropped += stale
        for key, cell_doc in found.items():
            self._adopt(by_key[key], cell_doc, journaled[key])
            self.report.recovered_journal += 1

    @staticmethod
    def _adopt(cell: GridCell, doc: Dict[str, Any], offset: int) -> None:
        cell.status = "ok"
        cell.offset = offset
        cell.attempts = doc.get("attempts", 1)

    # -- cell documents -------------------------------------------------
    def _failed_doc(self, cell: GridCell) -> Dict[str, Any]:
        return {
            **cell_document(cell.params, cell.overrides, {
                "scenario": self.scenario,
                "metrics": {},
                "series": {},
                "provenance": {},
                "status": cell.status,
                "error": config_to_jsonable(cell.error or {}),
            }),
            "attempts": cell.attempts,
        }

    # -- persistence ---------------------------------------------------
    def _header(self, **campaign: Any) -> Dict[str, Any]:
        """A sweep-format document (one shard's, or the merged one)
        without its cells."""
        return {
            **self.manifest.to_spec().header(),
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

        self.drive(remaining)
        self.report.executed = self.executed
        self.report.retried = self.retried
        self.report.workers_respawned = self.respawned
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

    def _drive(self, remaining: Sequence[GridCell]) -> None:
        prev_handler = self._install_sigint()
        try:
            super()._drive(remaining)
        except KeyboardInterrupt:
            self.report.interrupted = True
            self._say("second SIGINT: reclaiming workers immediately")
        finally:
            if prev_handler is not None:
                signal.signal(signal.SIGINT, prev_handler)
        if self._interrupts and not all(c.terminal for c in remaining):
            self.report.interrupted = True  # drained with cells left
        self._progress.set_running(0)
        self._progress.maybe_print(force=True)

    # -- driver hooks: journal and progress ------------------------------
    def _draining(self) -> bool:
        return self._interrupts > 0

    def _settled_ok(self, cell: GridCell, result: ScenarioResult) -> None:
        doc = cell_document(
            cell.params, cell.overrides, result.to_json_dict(), cell.attempts
        )
        cell.offset = self._journal.append({"event": "cell_ok", "cell": doc})
        self._progress.cell_done(cell.shard, ok=True, duration_s=cell.duration_s)

    def _settled_failed(self, cell: GridCell) -> None:
        cell.offset = self._journal.append(
            {"event": "cell_failed", "cell": self._failed_doc(cell)}
        )
        self._progress.cell_done(cell.shard, ok=False, duration_s=None)

    def _retrying(
        self, cell: GridCell, error: Dict[str, Any], delay_s: float
    ) -> None:
        self._progress.cell_retried()
        self._journal.append(
            {
                "event": "cell_retry",
                "key": cell.key,
                "attempt": cell.attempts,
                "kind": error.get("kind", "exception"),
                "delay_s": round(delay_s, 3),
            }
        )

    def _polled(self, running: int) -> None:
        self._progress.set_running(running)
        self._progress.maybe_print()

def run_campaign(manifest: CampaignManifest, **options: Any) -> CampaignReport:
    """One-call convenience wrapper: ``Campaign(manifest, **options).run()``."""
    return Campaign(manifest, **options).run()
