"""Crash-safe append-only campaign journal (``<stem>.journal.jsonl``).

Contract: ``docs/INVARIANTS.md#journal-contract``.  The journal is the
campaign's only incremental record: every completed cell is appended
(one self-contained JSON object per line, flushed and optionally
fsynced) *before* it is counted done; the shard documents are written
once, when the run finishes or drains.  A campaign killed at any point
— including ``kill -9`` mid-append — resumes from the journal (plus
whatever shard files an earlier run left): a torn final line is simply
ignored (the cell re-runs), and replay is idempotent because records
are keyed by the cell's full (scenario, overrides) identity.

Record shapes (``event`` discriminates)::

    {"event": "campaign_start", "manifest_sha": ..., "total_cells": N}
    {"event": "campaign_resume", "manifest_sha": ..., "recovered": N}
    {"event": "cell_ok",      "cell": {<sweep-format cell dict>}}
    {"event": "cell_retry",   "key": ..., "attempt": N, "kind": ...}
    {"event": "cell_failed",  "cell": {...}}   # retries exhausted
    {"event": "campaign_complete", "ok": N, "failed": N}

Only ``cell_ok``/``cell_failed`` matter for recovery; the rest are an
audit trail.  On a fully merged, all-ok completion the journal is
deleted — the shard files and merged output then own the results.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, List, Optional


class Journal:
    """Append-only JSON-lines writer with torn-tail-tolerant replay."""

    def __init__(self, path: str, *, fsync: bool = True):
        self.path = path
        self.fsync = fsync
        self._handle = None

    def _ensure_open(self):
        if self._handle is None:
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
            self._handle = open(self.path, "a")
        return self._handle

    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one record (flush; fsync unless disabled)."""
        handle = self._ensure_open()
        handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def delete(self) -> None:
        """Remove the journal file (after a clean, fully merged finish)."""
        self.close()
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def iter_records(path: str) -> Iterator[Dict[str, Any]]:
    """Replay a journal, skipping blank/torn lines.

    Any line that fails to parse is dropped rather than fatal: the only
    way a line goes bad is a writer killed mid-append (necessarily the
    tail) or byte corruption — in both cases the affected cell simply
    re-runs, which is always safe.
    """
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError:
        return
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            yield record


def replay_cells(path: str) -> Dict[str, Dict[str, Any]]:
    """Terminal cell records by identity key, later records winning.

    Returns ``key -> cell dict`` for every ``cell_ok``/``cell_failed``
    record, where the key is the canonical (scenario, overrides) JSON —
    the same identity the sweep cache uses, so recovered cells slot
    straight into the resume bookkeeping.
    """
    cells: Dict[str, Dict[str, Any]] = {}
    for record in iter_records(path):
        if record.get("event") not in ("cell_ok", "cell_failed"):
            continue
        cell = record.get("cell")
        if not isinstance(cell, dict) or "overrides" not in cell:
            continue
        key = json.dumps(
            {
                "scenario": cell.get("scenario"),
                "overrides": cell.get("overrides"),
            },
            sort_keys=True,
            default=repr,
        )
        cells[key] = cell
    return cells


def manifest_shas(path: str) -> List[str]:
    """Every manifest hash journaled by start/resume events (in order)."""
    shas = []
    for record in iter_records(path):
        if record.get("event") in ("campaign_start", "campaign_resume"):
            sha = record.get("manifest_sha")
            if sha:
                shas.append(sha)
    return shas


def journal_path(out_path: str) -> str:
    """The journal file for one campaign output stem."""
    stem, _ext = os.path.splitext(out_path)
    return f"{stem}.journal.jsonl"


def failures_path(out_path: str) -> str:
    """The failure-report file for one campaign output stem."""
    stem, _ext = os.path.splitext(out_path)
    return f"{stem}.failures.json"
