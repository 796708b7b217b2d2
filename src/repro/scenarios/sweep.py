"""Parameter-grid sweeps over registered scenarios, fanned across processes.

Every paper figure is a sweep — algorithm x load x fanout x buffer — so
the runner is figure-agnostic: a :class:`SweepSpec` names a scenario, a
grid of config-field values, and base overrides; :class:`SweepRunner`
expands the grid into cells, derives a deterministic per-cell seed, and
hands the cells to the campaign's grid driver
(:mod:`repro.campaign.driver`), inline (``jobs=1``) or across workers
forked from this process (``jobs>1``).  Simulations are single-threaded
pure Python, so cells parallelize perfectly across processes.  Each cell
runs once: a failed cell fails the sweep (:class:`SweepError`), but only
after every other cell has run, and the error carries the cells that
succeeded.

Determinism: cell order is the itertools.product over *sorted* grid
keys, and each cell's seed is a pure function of (base seed, cell
parameters) — two identical invocations produce identical metric values
regardless of ``jobs``.

Results persist to JSON (default ``benchmarks/results/<scenario>_sweep.json``
under the *repository root*, regardless of the caller's cwd — the file
doubles as the ``(config, seed)`` incremental cache, so a cwd-relative
default would silently grow a fresh tree and defeat cell reuse) as
``{spec, cells: [{params, metrics, series, provenance}]}``.
"""

from __future__ import annotations

import itertools
import json
import os
import warnings
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.persist import CellDocumentWriter, load_json_or_none
from repro.scenarios.base import Scenario, ScenarioResult, config_to_jsonable
from repro.scenarios.registry import get_scenario


def _repo_root() -> str:
    """The repository root: the nearest ancestor of this file that looks
    like *this* checkout (has both ``benchmarks/`` and ``src/repro/``).
    Falls back to the cwd when the package is installed outside a
    checkout — deliberately not keyed on ``.git`` alone, so a
    site-packages install living under some unrelated git repo never
    writes sweep caches into that foreign tree."""
    node = os.path.dirname(os.path.abspath(__file__))
    while True:
        if os.path.isdir(os.path.join(node, "benchmarks")) and os.path.isdir(
            os.path.join(node, "src", "repro")
        ):
            return node
        parent = os.path.dirname(node)
        if parent == node:
            return os.getcwd()
        node = parent


#: default persistence directory: the repo's benchmarks/results, anchored on
#: the repository root so ``python -m repro sweep`` finds (and reuses) the
#: same incremental cache no matter where it is invoked from.
DEFAULT_RESULTS_DIR = os.path.join(_repo_root(), "benchmarks", "results")


def default_results_path(scenario: str) -> str:
    """Default JSON persistence path for one scenario's sweep."""
    return os.path.join(DEFAULT_RESULTS_DIR, f"{scenario}_sweep.json")


def shard_results_path(path: str, shard: Tuple[int, int]) -> str:
    """The per-shard variant of a sweep output path.

    ``results.json`` + shard (2, 4) -> ``results.shard-2-of-4.json``, the
    naming :func:`repro.analysis.results.merge_shards` recombines.
    """
    index, count = shard
    stem, ext = os.path.splitext(path)
    return f"{stem}.shard-{index}-of-{count}{ext or '.json'}"


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse a ``I/N`` shard designator (1-based; 1 <= I <= N)."""
    index_text, sep, count_text = text.partition("/")
    try:
        index, count = int(index_text), int(count_text)
    except ValueError:
        index = count = 0
    if not sep or count < 1 or not 1 <= index <= count:
        raise ValueError(
            f"shard must be I/N with 1 <= I <= N, got {text!r}"
        )
    return index, count


def shard_of(cell_index: int, shards: int) -> Tuple[int, int]:
    """The 1-based ``(index, count)`` shard owning one grid position.

    Position ``k`` belongs to shard ``k % N + 1``, for ``sweep --shard
    I/N`` and a campaign's shard files alike, so the two are
    interchangeable.
    """
    return cell_index % shards + 1, shards


def cell_key(scenario: str, overrides: Dict[str, Any]) -> str:
    """Canonical identity of one cell: scenario + full config overrides
    (base + grid params + derived seed), the '(config, seed)' of a cell.
    The campaign orchestrator, journal replay, and shard merge all key
    cells by this exact string."""
    return json.dumps(
        {"scenario": scenario, "overrides": config_to_jsonable(overrides)},
        sort_keys=True,
    )


@dataclass
class SweepSpec:
    """A parameter grid over one scenario's config fields.

    ``grid`` maps config-field names to value lists; ``base`` holds
    overrides shared by every cell.  An explicit ``seed`` in ``base`` or
    ``grid`` disables per-cell seed derivation.
    """

    scenario: str
    grid: Dict[str, List[Any]] = field(default_factory=dict)
    base: Dict[str, Any] = field(default_factory=dict)
    seed: int = 1

    def validate(self) -> None:
        """Check grid/base keys against the scenario's config fields."""
        scenario = get_scenario(self.scenario)
        # Canonical name: an aliased spelling ("Incast") must not change
        # cell keys, the document header or the default output path.
        self.scenario = scenario.name
        fields = set(scenario.config_fields())
        unknown = sorted((set(self.grid) | set(self.base)) - fields)
        if unknown:
            raise ValueError(
                f"sweep over {self.scenario!r}: unknown config field(s) "
                f"{', '.join(unknown)}; valid: {', '.join(sorted(fields))}"
            )
        for key, values in self.grid.items():
            if not values:
                raise ValueError(f"sweep grid axis {key!r} is empty")

    def header(self) -> Dict[str, Any]:
        """The head of every cell document this spec's cells go into."""
        return {
            "scenario": self.scenario,
            "grid": config_to_jsonable(self.grid),
            "base": config_to_jsonable(self.base),
            "seed": self.seed,
        }


def derive_cell_seed(base_seed: int, params: Dict[str, Any]) -> int:
    """Deterministic per-cell seed: a pure function of the base seed and
    the cell's parameter assignment (stable across runs and job counts)."""
    blob = json.dumps(config_to_jsonable(params), sort_keys=True).encode()
    return (base_seed * 1_000_003 + zlib.crc32(blob)) & 0x7FFFFFFF


def expand_cells(spec: SweepSpec) -> List[Dict[str, Any]]:
    """Grid -> ordered cell parameter dicts (product over sorted keys)."""
    keys = sorted(spec.grid)
    cells = []
    for values in itertools.product(*(spec.grid[k] for k in keys)):
        cells.append(dict(zip(keys, values)))
    return cells


def cell_overrides(spec: SweepSpec, params: Dict[str, Any]) -> Dict[str, Any]:
    """Full config overrides for one cell: base + cell params + seed."""
    overrides = dict(spec.base)
    overrides.update(params)
    scenario = get_scenario(spec.scenario)
    if "seed" in scenario.config_fields() and "seed" not in overrides:
        overrides["seed"] = derive_cell_seed(spec.seed, params)
    return overrides


def cell_document(
    params: Dict[str, Any],
    overrides: Dict[str, Any],
    result: Dict[str, Any],
    attempts: int = 1,
) -> Dict[str, Any]:
    """One cell of a sweep or campaign document: its grid assignment and
    overrides over ``result`` (``ScenarioResult.to_json_dict`` or a failed
    cell's record); ``attempts`` is recorded only when not 1."""
    doc = {
        "params": config_to_jsonable(params),
        "overrides": config_to_jsonable(overrides),
        **result,
    }
    if attempts != 1:
        doc["attempts"] = attempts
    return doc


def validate_cached_cell(
    scenario: Scenario, overrides: Dict[str, Any], provenance: Dict[str, Any]
) -> bool:
    """True when a cached cell's provenance config is still current.

    Re-deriving the config from the cell's own overrides and comparing
    it to the provenance snapshot catches *silent* grid edits: a changed
    config default, a renamed field, or an edited scenario schema all
    make the stored config diverge from what ``configure(**overrides)``
    produces today, and such cells must re-run rather than be reused.
    A cell with no recorded config has nothing to vouch for it: stale.
    """
    recorded = provenance.get("config") if isinstance(provenance, dict) else None
    if not isinstance(recorded, dict):
        return False
    try:
        config = scenario.configure(**overrides)
    except (TypeError, ValueError):
        return False  # overrides no longer fit the schema at all
    return config_to_jsonable(config) == recorded


def reusable_cells(
    cell_docs: Iterable[Dict[str, Any]],
    scenario: Scenario,
    wanted: Dict[str, Dict[str, Any]],
) -> Tuple[Dict[str, Dict[str, Any]], int]:
    """The persisted cells that settle grid cells still to run.

    ``wanted`` maps each open cell's :func:`cell_key` to its overrides.
    Returns the current (:func:`validate_cached_cell`) ``ok`` documents of
    ``cell_docs`` by key — a hit leaves ``wanted``, so the first document
    wins; failed cells always re-run — and how many were stale."""
    found: Dict[str, Dict[str, Any]] = {}
    stale = 0
    for doc in cell_docs:
        if doc.get("status", "ok") != "ok":
            continue
        key = cell_key(doc.get("scenario", ""), doc.get("overrides"))
        if key not in wanted:
            continue
        if validate_cached_cell(scenario, wanted[key], doc.get("provenance", {})):
            found[key] = doc
            del wanted[key]
        else:
            stale += 1
    return found, stale


class SweepError(RuntimeError):
    """Cells of a sweep failed.  Every cell settled first; ``failures``
    holds ``(params, error)`` for each failed one in grid order, ``error``
    being its attempt's record (``type`` or ``kind``, ``message``), and
    ``result`` the :class:`SweepResult` of the cells that did settle ok,
    so a caller can persist them and a re-run pays only for the failed
    cells."""

    def __init__(
        self,
        failures: List[Tuple[Dict[str, Any], Dict[str, Any]]],
        result: "SweepResult",
    ):
        self.failures = failures
        self.result = result
        lines = [f"{len(failures)} sweep cell(s) failed:"]
        for params, error in failures:
            assignment = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
            kind = error.get("type") or error.get("kind")
            lines.append(f"  {assignment}: {kind}: {error.get('message')}")
        super().__init__("\n".join(lines))


@dataclass
class SweepCell:
    """One executed grid cell."""

    params: Dict[str, Any]
    overrides: Dict[str, Any]
    result: ScenarioResult


@dataclass
class SweepResult:
    """All executed cells plus the spec that produced them."""

    spec: SweepSpec
    cells: List[SweepCell] = field(default_factory=list)
    #: cells written by the last :meth:`persist` (current + carried over)
    persisted_cell_count: int = 0

    def cell(self, **params) -> SweepCell:
        """The unique cell whose grid assignment matches ``params``."""
        matches = [
            c for c in self.cells
            if all(c.params.get(k) == v for k, v in params.items())
        ]
        if len(matches) != 1:
            raise KeyError(f"{len(matches)} cells match {params!r}")
        return matches[0]

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            **self.spec.header(),
            "cells": [self._cell_json(c) for c in self.cells],
        }

    @staticmethod
    def _cell_json(cell: SweepCell) -> Dict[str, Any]:
        return cell_document(cell.params, cell.overrides, cell.result.to_json_dict())

    def persist(
        self, path: Optional[str] = None, *, keep_existing: bool = False
    ) -> str:
        """Write the sweep as JSON; returns the path written.

        With ``keep_existing=True``, cells already present in the target
        file that are *not* part of this sweep (e.g. from a wider grid
        persisted earlier) are carried over after this sweep's cells, so
        a file doubling as an incremental cache never loses results to a
        narrower re-run.  Note the file's top-level ``grid``/``base``/
        ``seed`` header always describes the *latest* sweep; carried-over
        cells keep their own per-cell ``overrides`` as provenance.  The
        default overwrites exactly (byte-identical output for identical
        sweeps).

        Sets ``self.persisted_cell_count`` to the number of cells written
        (current + carried over).
        """
        if path is None:
            os.makedirs(DEFAULT_RESULTS_DIR, exist_ok=True)
            path = default_results_path(self.spec.scenario)
        else:
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)
        # Streamed cell by cell, under the tmp + os.replace rule: a run
        # killed mid-persist can never leave a torn document behind
        # (docs/INVARIANTS.md#atomic-persistence) — the file doubles as
        # the incremental cache, so corruption here would silently cost
        # every previously executed cell.
        with CellDocumentWriter(path, self.spec.header()) as out:
            current = set()
            for cell in self.cells:
                doc = self._cell_json(cell)
                if keep_existing:
                    current.add(cell_key(doc["scenario"], doc["overrides"]))
                out.add(doc)
            if keep_existing:
                for doc in self._foreign_cells(path, current):
                    out.add(doc)
            self.persisted_cell_count = out.count
            return out.commit()

    @staticmethod
    def _foreign_cells(path: str, current: Set[str]) -> List[Dict]:
        """Cells in the existing file at ``path`` outside this sweep,
        whose cells have the identities ``current``."""
        old = load_json_or_none(path, label="sweep cache")
        if old is None:
            return []
        return [
            cell
            for cell in old.get("cells", [])
            if cell_key(cell.get("scenario", ""), cell.get("overrides"))
            not in current
        ]


class SweepRunner:
    """Expand a :class:`SweepSpec` and execute its cells.

    ``jobs=1`` runs inline (raw experiment results stay attached, which
    benchmarks rely on); ``jobs>1`` forks ``jobs`` workers (POSIX only).

    **Incremental re-runs**: pass ``reuse_path`` (a previously persisted
    sweep JSON) and cells whose (config, seed) — i.e. full override set —
    already appear in that file are loaded instead of re-simulated, so
    growing a grid or re-running a persisted sweep only pays for the
    missing cells.  ``force=True`` re-runs everything regardless.

    **Sharding**: ``shard=(i, n)`` (1-based) keeps only the cells whose
    position in the deterministic grid expansion is congruent to
    ``i - 1`` modulo ``n``, so ``n`` machines each running one shard
    cover the grid exactly once.  Per-cell seeds are a pure function of
    the cell parameters, so shard results are identical to the cells an
    unsharded run would produce, and
    :func:`repro.analysis.results.merge_shards` recombines the persisted
    shard files.
    """

    def __init__(
        self,
        spec: SweepSpec,
        jobs: int = 1,
        *,
        reuse_path: Optional[str] = None,
        force: bool = False,
        shard: Optional[Tuple[int, int]] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if shard is not None and not 1 <= shard[0] <= shard[1]:
            raise ValueError(f"shard must be (i, n) with 1 <= i <= n, got {shard}")
        spec.validate()
        self.spec = spec
        self.jobs = jobs
        self.reuse_path = reuse_path
        self.force = force
        self.shard = shard
        #: cells served from ``reuse_path`` by the last :meth:`run`
        self.reused_cells = 0
        #: cached cells dropped by the last :meth:`run` because their
        #: provenance config no longer matches the current schema
        self.stale_cells = 0

    def run(self) -> SweepResult:
        """Execute every cell; cells come back in grid order.

        Raises :class:`SweepError` naming each failed cell once every
        cell has settled; it carries the ok cells as its ``result``.
        """
        from repro.campaign import driver  # here: it imports this module

        spec = self.spec
        index, count = self.shard or (1, 1)
        cells = [c for c in driver.grid_cells(spec, count) if c.shard == index]
        self.reused_cells = self.stale_cells = 0
        cached = None
        if self.reuse_path and not self.force:
            cached = load_json_or_none(self.reuse_path, label="sweep cache")
        if cached is not None:
            found, self.stale_cells = reusable_cells(
                cached.get("cells", []),
                get_scenario(spec.scenario),
                {c.key: c.overrides for c in cells},
            )
            for cell in cells:
                if cell.key in found:
                    cell.status = "ok"
                    cell.result = ScenarioResult.from_json_dict(found[cell.key])
            if self.stale_cells:
                warnings.warn(
                    f"sweep cache {self.reuse_path!r}: dropped "
                    f"{self.stale_cells} cached cell(s) whose provenance "
                    "config no longer matches the current scenario schema; "
                    "they will re-run",
                    stacklevel=2,
                )
        pending = [c for c in cells if not c.terminal]
        self.reused_cells = len(cells) - len(pending)
        if self.jobs == 1:
            executor = driver.InlineExecutor()
        else:  # the worker pool is imported by the sweeps that fork one
            from repro.campaign.executor import LocalPoolExecutor

            executor = LocalPoolExecutor()
        limits = driver.SWEEP_LIMITS
        driver.GridDriver(spec.scenario, executor, self.jobs, limits).drive(pending)
        result = SweepResult(
            spec=spec,
            cells=[
                SweepCell(params=c.params, overrides=c.overrides, result=c.result)
                for c in cells
                if c.status == "ok"
            ],
        )
        failed = [c for c in pending if c.status != "ok"]
        if failed:
            raise SweepError([(c.params, c.error or {}) for c in failed], result)
        return result


def run_sweep(
    scenario: str,
    grid: Dict[str, List[Any]],
    base: Optional[Dict[str, Any]] = None,
    seed: int = 1,
    **options: Any,
) -> SweepResult:
    """One-call convenience wrapper: ``SweepRunner(spec, **options).run()``
    (``jobs``, ``reuse_path``, ``force``, ``shard``)."""
    spec = SweepSpec(scenario=scenario, grid=grid, base=base or {}, seed=seed)
    return SweepRunner(spec, **options).run()
