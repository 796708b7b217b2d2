"""Crash-safe append-only campaign journal (``<stem>.journal.jsonl``).

Contract: ``docs/INVARIANTS.md#journal-contract``.  The journal is the
campaign's only incremental record: every completed cell is appended
(one self-contained JSON object per line, flushed and optionally
fsynced) *before* it is counted done.  While a run lasts it is also
where the payloads live — the orchestrator keeps the byte offset
:meth:`Journal.append` returns and reads the record back
(:meth:`Journal.read`) when the shard and merged documents are derived
from it, once, as the run finishes or drains.  A campaign killed at any point
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
from typing import Any, Dict, Iterator, List, Tuple


class Journal:
    """Append-only JSON-lines writer that can read its own records back."""

    def __init__(self, path: str, *, fsync: bool = True):
        self.path = path
        self.fsync = fsync
        self._handle = None
        self._reader = None

    def _ensure_open(self):
        if self._handle is None:
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
            # Binary, positioned at the end: tell() is then the byte
            # offset the next record starts at, also in a resumed journal.
            handle = open(self.path, "a+b")
            if handle.seek(0, os.SEEK_END):
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    # A writer killed mid-append left a torn tail; end
                    # that line so the next record is not lost with it.
                    handle.write(b"\n")
            self._handle = handle
        return self._handle

    def append(self, record: Dict[str, Any], *, durable: bool = True) -> int:
        """Append one record; returns the byte offset it starts at.

        Flushed always, and fsynced unless the journal was opened with
        ``fsync=False`` or ``durable=False`` says the record only copies
        what another file already holds durably.
        """
        handle = self._ensure_open()
        offset = handle.tell()
        handle.write(json.dumps(record, sort_keys=True).encode() + b"\n")
        handle.flush()
        if self.fsync and durable:
            os.fsync(handle.fileno())
        return offset

    def read(self, offset: int) -> Dict[str, Any]:
        """The record :meth:`append` (or :func:`replay_offsets`) put at
        ``offset``."""
        if self._reader is None:
            self._reader = open(self.path, "rb")
        self._reader.seek(offset)
        return json.loads(self._reader.readline())

    def close(self) -> None:
        for handle in (self._handle, self._reader):
            if handle is not None:
                handle.close()
        self._handle = self._reader = None

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


def _scan(path: str) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """``(byte offset, record)`` of every parsable line, read lazily.

    Any line that fails to parse (blank, torn, corrupt) is dropped
    rather than fatal: the only way a line goes bad is a writer killed
    mid-append or byte corruption — in both cases the affected cell
    simply re-runs, which is always safe.
    """
    try:
        handle = open(path, "rb")
    except OSError:
        return
    with handle:
        offset = 0
        for line in handle:
            start, offset = offset, offset + len(line)
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                yield start, record


def iter_records(path: str) -> Iterator[Dict[str, Any]]:
    """Replay a journal, skipping blank/torn lines; never holds the file."""
    for _offset, record in _scan(path):
        yield record


def _terminal_cells(path: str) -> Iterator[Tuple[int, str, Dict[str, Any]]]:
    """``(offset, identity key, cell dict)`` of every ``cell_ok``/
    ``cell_failed`` record; the key is the canonical (scenario,
    overrides) JSON — the same identity the sweep cache uses."""
    for offset, record in _scan(path):
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
        yield offset, key, cell


def replay_cells(path: str) -> Dict[str, Dict[str, Any]]:
    """Terminal cell records by identity key, later records winning."""
    return {key: cell for _offset, key, cell in _terminal_cells(path)}


def replay_offsets(path: str) -> Dict[str, int]:
    """Where each cell's last terminal record starts (for
    :meth:`Journal.read`), by identity key — the resume bookkeeping
    without the payloads."""
    return {key: offset for offset, key, _cell in _terminal_cells(path)}


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
