"""Result-loading API over persisted sweep JSON (``benchmarks/results/``).

Plotting and perf-trend tooling should never re-run simulations: every
sweep the runner persists (``python -m repro sweep ... --out f.json``) is
a self-describing document of cells.  This module loads those documents
into a small queryable container:

* :meth:`ResultSet.load` / :meth:`ResultSet.load_dir` — one file, or every
  ``*_sweep.json`` under a directory;
* :meth:`ResultSet.filter` — keep cells whose params (falling back to the
  full overrides) match;
* :meth:`ResultSet.values` — one metric as a list;
* :meth:`ResultSet.pivot` — a (rows × cols) table of one metric, e.g.
  load × algorithm → p99 slowdown, ready to print or plot;
* :meth:`ResultSet.view` — the preset pivots of :data:`VIEWS`
  (``parking_lot``, ``lb_matrix``).

Example::

    rs = ResultSet.load("benchmarks/results/websearch_sweep.json")
    rows, cols, table = rs.pivot("load", "algorithm", "fct_p99_short")
"""

from __future__ import annotations

import glob
import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.scenarios.sweep import cell_key


def _canonical(value: Any) -> str:
    """A stable string form of one parameter value (dedup/sort fallback)."""
    try:
        return json.dumps(value, sort_keys=True)
    except (TypeError, ValueError):
        return repr(value)


def _param_sort_key(value: Any) -> Tuple[int, float, str]:
    """Type-aware sort key: numbers first (numerically), then everything
    else by canonical string — mixed axes must never raise TypeError."""
    if isinstance(value, bool):
        return (1, float(value), "")
    if isinstance(value, (int, float)):
        return (0, float(value), "")
    return (2, 0.0, _canonical(value))


#: Preset pivots over one scenario's persisted sweep, for
#: :meth:`ResultSet.view`: name -> (scenario, row axis, column axis,
#: default metric).
VIEWS: Dict[str, Tuple[str, str, str, str]] = {
    # The §3.5 view: rows are chain lengths, columns are CC algorithms,
    # and the default metric is the end-to-end flow's goodput relative to
    # the cross traffic on its most-bottlenecked segment — the quantity
    # the INT-vs-delay-feedback argument is about (the delay law
    # over-throttles the multi-hop flow as the summed queueing grows with
    # chain length).
    "parking_lot": (
        "multi_bottleneck", "segments", "algorithm", "e2e_cross_ratio"
    ),
    # The CC × load-balancing view: rows are routing policies, columns
    # are CC algorithms, and the default metric is the fabric's
    # per-uplink load imbalance (max/mean of transmitted bytes) — the
    # quantity a load balancer exists to minimize.  Pass
    # ``metric="hotspot_peak_qlen_bytes"`` for the collision symptom or
    # ``metric="fct_p99_overall"`` for what it costs the flows.
    "lb_matrix": ("lb_matrix", "routing", "algorithm", "uplink_imbalance"),
}


@dataclass
class ResultCell:
    """One executed sweep cell, as persisted."""

    scenario: str
    params: Dict[str, Any] = field(default_factory=dict)
    overrides: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    series: Dict[str, List] = field(default_factory=dict)
    provenance: Dict[str, Any] = field(default_factory=dict)
    #: file the cell was loaded from (provenance for merged sets)
    source: str = ""
    #: terminal state: "ok", or "failed"/"timeout" from a campaign run
    status: str = "ok"
    #: error provenance (kind/type/message/traceback) for non-ok cells
    error: Optional[Dict[str, Any]] = None
    #: executions including retries (1 = first-try success)
    attempts: int = 1

    def param(self, key: str, default: Any = None) -> Any:
        """A cell parameter: grid params first, then the full override
        set, then the provenance config (which records *every* field, so
        defaulted values — e.g. ``segments`` left at 2 — still pivot)."""
        if key in self.params:
            return self.params[key]
        if key in self.overrides:
            return self.overrides[key]
        config = self.provenance.get("config")
        if isinstance(config, dict) and key in config:
            return config[key]
        return default

    def matches(self, **params: Any) -> bool:
        """True when every given key=value matches this cell."""
        return all(self.param(k) == v for k, v in params.items())


class ResultSet:
    """A queryable collection of :class:`ResultCell`."""

    def __init__(self, cells: Optional[Sequence[ResultCell]] = None):
        self.cells: List[ResultCell] = list(cells or [])

    # -- loading -------------------------------------------------------
    @classmethod
    def load(cls, path: str) -> "ResultSet":
        """Load one persisted sweep document."""
        with open(path) as handle:
            return cls.from_doc(json.load(handle), path)

    @classmethod
    def from_doc(cls, doc: Dict[str, Any], source: str = "") -> "ResultSet":
        """The cells of one parsed sweep document (``source`` = its file)."""
        return cls(
            [
                cls._cell_from_dict(cell, source)
                for cell in doc.get("cells", [])
                if "scenario" in cell
            ]
        )

    @staticmethod
    def _cell_from_dict(cell: Dict[str, Any], source: str) -> "ResultCell":
        return ResultCell(
            scenario=cell["scenario"],
            params=cell.get("params", {}) or {},
            overrides=cell.get("overrides", {}) or {},
            metrics=cell.get("metrics", {}) or {},
            series=cell.get("series", {}) or {},
            provenance=cell.get("provenance", {}) or {},
            source=source,
            status=cell.get("status", "ok"),
            error=cell.get("error"),
            attempts=cell.get("attempts", 1),
        )

    @classmethod
    def load_journal(cls, path: str) -> "ResultSet":
        """Cells recovered from a campaign journal (``*.journal.jsonl``).

        The journal is append-only JSON-lines; only ``cell_ok`` records
        carry full cell payloads.  A torn trailing line (the writer was
        killed mid-append) is tolerated; later duplicates of a cell win
        (a retry that eventually succeeded journals the success last).
        """
        # Imported here: the campaign package imports this module.
        from repro.campaign.journal import iter_records

        by_key: Dict[str, ResultCell] = {}
        for record in iter_records(path):
            if record.get("event") != "cell_ok":
                continue
            cell = record.get("cell")
            if not isinstance(cell, dict) or "scenario" not in cell:
                continue
            key = cell_key(cell["scenario"], cell.get("overrides"))
            by_key[key] = cls._cell_from_dict(cell, path)
        return cls(list(by_key.values()))

    @classmethod
    def load_dir(
        cls, directory: str, pattern: str = "*_sweep.json"
    ) -> "ResultSet":
        """Load and merge every matching sweep file under ``directory``."""
        merged = cls()
        for path in sorted(glob.glob(os.path.join(directory, pattern))):
            merged.cells.extend(cls.load(path).cells)
        return merged

    @classmethod
    def merge_shards(
        cls, directory: str, base: Optional[str] = None
    ) -> "ResultSet":
        """Merge the per-shard files a ``sweep --shard I/N`` run persisted.

        The files are those :func:`shard_files` accepts (it raises on an
        incomplete or conflicting set — a partial merge would silently
        under-report the grid); duplicate cells across shards (same
        scenario + overrides) are dropped.
        """
        merged = cls()
        seen = set()
        for path in shard_files(directory, base):
            for cell in cls.load(path).cells:
                key = cell_key(cell.scenario, cell.overrides)
                if key in seen:
                    continue
                seen.add(key)
                merged.cells.append(cell)
        return merged

    # -- querying ------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def filter(self, **params: Any) -> "ResultSet":
        """Cells whose params (or overrides) match every key=value."""
        return ResultSet([c for c in self.cells if c.matches(**params)])

    def scenarios(self) -> List[str]:
        """Distinct scenario names present, sorted."""
        return sorted({c.scenario for c in self.cells})

    def for_scenario(self, name: str) -> "ResultSet":
        """Cells belonging to one scenario (load_dir merges many)."""
        return ResultSet([c for c in self.cells if c.scenario == name])

    def param_values(self, key: str) -> List[Any]:
        """Distinct values of one parameter, sorted.

        Numbers sort numerically regardless of int/float mixing (the CLI's
        ``ast.literal_eval`` happily yields ``[1, 1.5, 2.0]`` for one
        axis); non-numeric values follow, ordered by their canonical string
        form.  The sort key is fully type-aware, so a string-valued axis
        (``algorithm``) merged with a numeric axis file via
        :meth:`load_dir` never raises ``TypeError``, and unhashable values
        (a ``segment_bw_bps`` list, a ``cc_params`` dict) deduplicate by
        their canonical JSON form instead of crashing the set build.
        """
        distinct: Dict[Any, Any] = {}
        for cell in self.cells:
            value = cell.param(key)
            if value is None:
                continue
            try:
                distinct.setdefault(value, value)
            except TypeError:  # unhashable (list/dict axis values)
                distinct.setdefault(_canonical(value), value)
        return sorted(distinct.values(), key=_param_sort_key)

    def values(self, metric: str) -> List[Any]:
        """One metric across all cells (cells lacking it are skipped)."""
        return [c.metrics[metric] for c in self.cells if metric in c.metrics]

    def only(self) -> ResultCell:
        """The single cell in this set; raises unless exactly one."""
        if len(self.cells) != 1:
            raise KeyError(f"expected exactly one cell, have {len(self.cells)}")
        return self.cells[0]

    def ok(self) -> "ResultSet":
        """Cells that completed successfully (status == "ok")."""
        return ResultSet([c for c in self.cells if c.status == "ok"])

    def failures(self) -> "ResultSet":
        """Cells that exhausted their retries (failed/timeout)."""
        return ResultSet([c for c in self.cells if c.status != "ok"])

    # -- pivoting ------------------------------------------------------
    def pivot(
        self,
        row_key: str,
        col_key: str,
        metric: str,
        agg: Optional[Callable[[List[float]], float]] = None,
    ) -> Tuple[List[Any], List[Any], List[List[Optional[float]]]]:
        """A (rows × cols) table of one metric.

        Returns ``(row_labels, col_labels, table)``; empty groups are
        None.  ``agg`` collapses multiple matching cells (e.g. seeds) —
        the default requires exactly one cell per (row, col) group and
        raises otherwise, so accidental duplicates never average silently.
        """
        rows = self.param_values(row_key)
        cols = self.param_values(col_key)
        table: List[List[Optional[float]]] = []
        for row in rows:
            out_row: List[Optional[float]] = []
            for col in cols:
                group = self.filter(**{row_key: row, col_key: col})
                values = group.values(metric)
                if not values:
                    out_row.append(None)
                elif agg is not None:
                    out_row.append(agg(values))
                elif len(values) == 1:
                    out_row.append(values[0])
                else:
                    raise ValueError(
                        f"{len(values)} cells match ({row_key}={row!r}, "
                        f"{col_key}={col!r}); pass agg= to collapse them"
                    )
            table.append(out_row)
        return rows, cols, table

    def format_pivot(
        self,
        row_key: str,
        col_key: str,
        metric: str,
        agg: Optional[Callable[[List[float]], float]] = None,
        fmt: str = "{:>12.4g}",
    ) -> List[str]:
        """The pivot as printable table lines."""
        rows, cols, table = self.pivot(row_key, col_key, metric, agg)
        width = max((len(str(r)) for r in rows), default=4)
        header = " " * width + " " + " ".join(f"{str(c):>12s}" for c in cols)
        lines = [f"{metric} by {row_key} x {col_key}", header]
        for row, out_row in zip(rows, table):
            cells = " ".join(
                fmt.format(v) if v is not None else f"{'-':>12s}"
                for v in out_row
            )
            lines.append(f"{str(row):>{width}s} {cells}")
        return lines

    def _view(
        self,
        name: str,
        metric: Optional[str],
        rows: Optional[str],
        cols: Optional[str],
    ) -> Tuple["ResultSet", str, str, str]:
        """One :data:`VIEWS` preset resolved to ``(subset, row_key,
        col_key, metric)``; an empty subset fails with a pointer (not a
        useless header-only table)."""
        scenario, row_key, col_key, default_metric = VIEWS[name]
        subset = self.for_scenario(scenario)
        if not subset.cells:
            raise ValueError(
                f"no {scenario} cells in this result set; run "
                f"`python -m repro sweep {scenario} ...` first"
            )
        return subset, rows or row_key, cols or col_key, metric or default_metric

    def view(
        self,
        name: str,
        *,
        metric: Optional[str] = None,
        rows: Optional[str] = None,
        cols: Optional[str] = None,
        agg: Optional[Callable[[List[float]], float]] = None,
    ) -> Tuple[List[Any], List[Any], List[List[Optional[float]]]]:
        """:meth:`pivot` of one :data:`VIEWS` preset over its scenario's
        cells; ``metric`` / ``rows`` / ``cols`` override the preset's."""
        subset, row_key, col_key, metric = self._view(name, metric, rows, cols)
        return subset.pivot(row_key, col_key, metric, agg)

    def format_view(
        self,
        name: str,
        *,
        metric: Optional[str] = None,
        rows: Optional[str] = None,
        cols: Optional[str] = None,
        agg: Optional[Callable[[List[float]], float]] = None,
    ) -> List[str]:
        """:meth:`view` as printable table lines."""
        subset, row_key, col_key, metric = self._view(name, metric, rows, cols)
        return subset.format_pivot(row_key, col_key, metric, agg)


def shard_files(directory: str, base: Optional[str] = None) -> List[str]:
    """The complete shard-file sets under ``directory``, sorted.

    Shards are named ``<base>.shard-I-of-N.json``; ``base`` narrows the
    listing to one sweep's shards (e.g. ``"websearch_sweep"`` — the
    stem without ``.json``), otherwise every shard file under
    ``directory`` is listed.  Raises when there is none, when the files
    of one stem disagree on the shard count, or when indices are missing.
    """
    pattern = f"{base or '*'}.shard-*-of-*.json"
    shard_re = re.compile(r"\.shard-(\d+)-of-(\d+)\.json$")
    #: stem -> set of (index, count) pairs seen in file names
    by_stem: Dict[str, set] = {}
    paths = []
    for path in sorted(glob.glob(os.path.join(directory, pattern))):
        match = shard_re.search(path)
        if match is None:
            continue
        paths.append(path)
        by_stem.setdefault(path[: match.start()], set()).add(
            (int(match.group(1)), int(match.group(2)))
        )
    if not paths:
        raise ValueError(
            f"no shard files matching {pattern!r} under {directory!r}"
        )
    for stem, pairs in by_stem.items():
        counts = {count for _index, count in pairs}
        if len(counts) > 1:
            raise ValueError(
                f"{stem}: shard files disagree on the shard count "
                f"({sorted(counts)})"
            )
        count = counts.pop()
        indices = {index for index, _count in pairs}
        missing = sorted(set(range(1, count + 1)) - indices)
        if missing:
            raise ValueError(
                f"{stem}: missing shard(s) {missing} of {count}"
            )
    return paths


def merge_shards(directory: str, base: Optional[str] = None) -> ResultSet:
    """Module-level alias of :meth:`ResultSet.merge_shards`."""
    return ResultSet.merge_shards(directory, base)


def merge_campaign(
    directory: str, base: Optional[str] = None, journal: Optional[str] = None
) -> ResultSet:
    """Journal-aware shard merge for a campaign's output family.

    Merges the ``<base>.shard-I-of-N.json`` files exactly like
    :func:`merge_shards`, then adopts any ``cell_ok`` journal records for
    cells the shard files do not contain — the shard files are written
    once, when a run finishes or drains, so the results of a run that was
    killed live only in the journal, and a merge that ignored them would
    re-run (or under-report) those cells.
    """
    merged = ResultSet.merge_shards(directory, base)
    if journal:
        have = {cell_key(c.scenario, c.overrides) for c in merged.cells}
        for cell in ResultSet.load_journal(journal).cells:
            key = cell_key(cell.scenario, cell.overrides)
            if key not in have:
                have.add(key)
                merged.cells.append(cell)
    return merged


def failure_report(
    results: ResultSet, total_cells: Optional[int] = None
) -> Dict[str, Any]:
    """A JSON-able report of every non-ok cell in a result set.

    ``total_cells`` is the size of the grid when ``results`` holds only
    part of it (the orchestrator passes just the non-ok cells).

    The campaign orchestrator persists this next to the merged output
    (``<stem>.failures.json``); each entry carries the cell's params,
    final status, attempt count, and error provenance so an operator can
    see *which* cells died and *why* without grepping worker logs.
    """
    failures = results.failures()
    entries = []
    for cell in failures.cells:
        entries.append(
            {
                "scenario": cell.scenario,
                "params": cell.params,
                "status": cell.status,
                "attempts": cell.attempts,
                "error": cell.error,
                "source": cell.source,
            }
        )
    return {
        "total_cells": len(results) if total_cells is None else total_cells,
        "failed_cells": len(entries),
        "failures": entries,
    }


def format_failure_report(results: ResultSet) -> List[str]:
    """:func:`failure_report` as printable lines (one per failed cell)."""
    report = failure_report(results)
    lines = [
        f"{report['failed_cells']} of {report['total_cells']} cells failed"
    ]
    for entry in report["failures"]:
        params = " ".join(
            f"{k}={v}" for k, v in sorted(entry["params"].items())
        )
        error = entry.get("error") or {}
        reason = error.get("message") or error.get("kind") or "unknown error"
        lines.append(
            f"  [{entry['status']}] {entry['scenario']} {params} "
            f"(attempts={entry['attempts']}): {reason}"
        )
    return lines


# ----------------------------------------------------------------------
# perf trend: events/sec over historical BENCH_perf.json documents
# ----------------------------------------------------------------------
def perf_trend(
    paths: Sequence[str], *, include_tiny: bool = False
) -> Dict[str, List[Dict[str, Any]]]:
    """Per-case events/sec series over historical BENCH documents.

    ``paths`` is an ordered list of ``BENCH_perf.json`` snapshots
    (oldest first — e.g. one per PR, extracted from git history or CI
    artifacts).  A path may also be an accumulated *history* document
    (``{"snapshots": [...]}`` as written by
    :func:`repro.perf.bench.append_history` / ``repro perf --history``);
    its snapshots expand in order, each labeled by its own ``label``.
    Returns ``{case: [{label, events_per_sec, events_processed,
    wall_time_s}, ...]}`` with one entry per document that contains the
    case, labeled by the document's ``generated_utc`` date (file basename
    when absent).  Reduced CI-smoke documents (``tiny: true``) are
    skipped unless ``include_tiny`` — their grids are not comparable to
    the full macro grid.
    """
    trend: Dict[str, List[Dict[str, Any]]] = {}
    for path in paths:
        with open(path) as handle:
            doc = json.load(handle)
        docs = doc.get("snapshots", [doc]) if "snapshots" in doc else [doc]
        for snapshot in docs:
            if snapshot.get("tiny") and not include_tiny:
                continue
            label = (
                snapshot.get("label")
                or snapshot.get("generated_utc")
                or os.path.basename(path)
            )
            for case in snapshot.get("cases", []):
                name = case.get("case")
                if not name or not case.get("events_per_sec"):
                    continue
                trend.setdefault(name, []).append(
                    {
                        "label": label,
                        "events_per_sec": case["events_per_sec"],
                        "events_processed": case.get("events_processed"),
                        "wall_time_s": case.get("wall_time_s"),
                    }
                )
    return trend


def format_perf_trend(
    paths: Sequence[str], *, include_tiny: bool = False
) -> List[str]:
    """:func:`perf_trend` as printable table lines (one row per case)."""
    trend = perf_trend(paths, include_tiny=include_tiny)
    lines = []
    for case in sorted(trend):
        entries = trend[case]
        series = " -> ".join(
            f"{e['label']}:{e['events_per_sec']:,.0f}" for e in entries
        )
        lines.append(f"{case:>15s} {series}")
    return lines
