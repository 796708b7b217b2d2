"""Campaign manifests: one JSON document describing a whole sweep run.

A manifest is the unit of (re-)invocation: ``python -m repro campaign
manifest.json`` must be safe to run again after any failure — the
orchestrator derives everything (grid cells, shard partition, output
paths, retry/timeout policy) from the manifest deterministically, so a
re-invocation resumes rather than restarts.

Schema (all keys except ``scenario`` optional)::

    {
      "scenario": "websearch",
      "grid":  {"algorithm": ["powertcp", "hpcc"], "load": [0.2, 0.6]},
      "base":  {"duration_ns": 4000000},
      "seed":  1,
      "shards": 4,             // grid partition; one output file per
                               // shard, written when the run ends
      "workers": 4,            // worker pool size
      "modules": ["repro.scenarios.faulty"],  // extra scenario modules
      "out": "benchmarks/results/websearch_campaign.json",
      "journal_fsync": true,
      "limits": {
        "cell_timeout_s": 300, "max_attempts": 3,
        "backoff_base_s": 0.25, "backoff_factor": 2.0,
        "backoff_max_s": 30.0, "jitter_frac": 0.25,
        "straggler_factor": 4.0, "straggler_min_s": 10.0,
        "worker_grace_s": 5.0
      }
    }

Unknown keys are rejected eagerly (mirroring ``Scenario.configure``),
so a typo'd policy knob fails the launch instead of silently running
with defaults.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.persist import load_json_or_none
from repro.scenarios.sweep import DEFAULT_RESULTS_DIR, SweepSpec


@dataclass
class LimitsPolicy:
    """Per-cell failure-handling knobs (the manifest's ``limits`` block)."""

    #: wall-clock budget for one cell attempt; the worker is killed past it
    cell_timeout_s: float = 300.0
    #: total executions per cell (first try + retries)
    max_attempts: int = 3
    #: exponential backoff: base * factor**(attempt-1), capped, jittered
    backoff_base_s: float = 0.25
    backoff_factor: float = 2.0
    backoff_max_s: float = 30.0
    #: +/- fraction of the delay added as seeded jitter (decorrelates
    #: retry storms when many cells fail at once)
    jitter_frac: float = 0.25
    #: a running cell is a straggler once it exceeds this multiple of the
    #: median completed-cell duration (and straggler_min_s) — it is then
    #: speculatively re-dispatched to an idle worker, first result wins
    straggler_factor: float = 4.0
    straggler_min_s: float = 10.0
    #: SIGTERM-to-SIGKILL grace when reclaiming a worker
    worker_grace_s: float = 5.0

    def validate(self) -> None:
        if self.cell_timeout_s <= 0:
            raise ValueError("limits.cell_timeout_s must be > 0")
        if self.max_attempts < 1:
            raise ValueError("limits.max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("limits backoff delays must be >= 0")
        if self.backoff_factor < 1:
            raise ValueError("limits.backoff_factor must be >= 1")
        if not 0 <= self.jitter_frac < 1:
            raise ValueError("limits.jitter_frac must be in [0, 1)")
        if self.straggler_factor < 1:
            raise ValueError("limits.straggler_factor must be >= 1")


@dataclass
class CampaignManifest:
    """Everything a campaign run needs, as one validated record."""

    scenario: str
    grid: Dict[str, List[Any]] = field(default_factory=dict)
    base: Dict[str, Any] = field(default_factory=dict)
    seed: int = 1
    shards: int = 1
    workers: int = 1
    #: extra modules imported (orchestrator + workers) before scenario
    #: lookup — how non-builtin scenarios join a campaign
    modules: List[str] = field(default_factory=list)
    out: Optional[str] = None
    journal_fsync: bool = True
    limits: LimitsPolicy = field(default_factory=LimitsPolicy)

    def validate(self) -> None:
        """Check counts, limits, and the grid against the scenario."""
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.limits.validate()
        self.import_modules()
        spec = self.to_spec()
        spec.validate()
        self.scenario = spec.scenario  # canonical, as SweepSpec.validate

    def import_modules(self) -> None:
        """Import the manifest's extra scenario modules (idempotent)."""
        for module in self.modules:
            importlib.import_module(module)

    def to_spec(self) -> SweepSpec:
        """The equivalent sweep spec (same cells, same per-cell seeds)."""
        return SweepSpec(
            scenario=self.scenario,
            grid=dict(self.grid),
            base=dict(self.base),
            seed=self.seed,
        )

    def out_path(self) -> str:
        """The merged-output path (shard/journal names derive from it)."""
        if self.out:
            return self.out
        return os.path.join(
            DEFAULT_RESULTS_DIR, f"{self.scenario}_campaign.json"
        )

    def to_json_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def sha(self) -> str:
        """Content hash, journaled so a resume can flag manifest edits."""
        blob = json.dumps(self.to_json_dict(), sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def manifest_from_dict(doc: Dict[str, Any]) -> CampaignManifest:
    """Build and validate a manifest from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ValueError("campaign manifest must be a JSON object")
    doc = dict(doc)
    limits_doc = doc.pop("limits", {}) or {}
    known = {f.name for f in dataclasses.fields(CampaignManifest)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValueError(
            f"campaign manifest: unknown key(s) {', '.join(unknown)}; "
            f"valid: {', '.join(sorted(known))}"
        )
    known_limits = {f.name for f in dataclasses.fields(LimitsPolicy)}
    unknown = sorted(set(limits_doc) - known_limits)
    if unknown:
        raise ValueError(
            f"campaign manifest limits: unknown key(s) {', '.join(unknown)}; "
            f"valid: {', '.join(sorted(known_limits))}"
        )
    if "scenario" not in doc:
        raise ValueError("campaign manifest must name a scenario")
    manifest = CampaignManifest(limits=LimitsPolicy(**limits_doc), **doc)
    manifest.validate()
    return manifest


def load_manifest(path: str) -> CampaignManifest:
    """Load + validate a manifest file; errors name the offending key."""
    doc = load_json_or_none(path, label="campaign manifest")
    if doc is None:
        raise ValueError(f"cannot read campaign manifest {path!r}")
    return manifest_from_dict(doc)


def shard_of(cell_index: int, shards: int) -> Tuple[int, int]:
    """The 1-based ``(index, count)`` shard owning one grid position.

    Matches ``sweep --shard I/N``: position ``k`` belongs to shard
    ``k % N + 1``, so campaign shard files are interchangeable with
    hand-run sharded sweeps.
    """
    return cell_index % shards + 1, shards
