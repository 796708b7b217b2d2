"""The Scenario protocol: one uniform lifecycle for every experiment.

A *scenario* wraps one experiment module (web-search, incast, fairness,
RDCN, ...) behind a four-step protocol::

    configure(**overrides) -> config      # validated config dataclass
    build(config)          -> runnable    # zero-arg callable -> raw result
    run(config)            -> ScenarioResult   # times build()() + collect(),
                                               # then ends the simulation
    collect(config, raw)   -> (metrics, series)

Every scenario returns the same :class:`ScenarioResult` record — a flat
``metrics`` dict (scalar figures of merit), a ``series`` dict (the lists a
figure would plot), and ``provenance`` (seed, config, wall time, events
processed) — so sweeps, benchmarks, and the CLI can treat all experiments
interchangeably.  Concrete scenarios register themselves with
:mod:`repro.scenarios.registry` from their own experiment modules.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.engine import run_scope


def config_to_jsonable(value: Any) -> Any:
    """Recursively convert a config (dataclasses, tuples, ...) into
    JSON-serializable primitives; non-serializable leaves become repr()."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: config_to_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): config_to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [config_to_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


@dataclass
class ScenarioResult:
    """Uniform result record returned by every scenario.

    ``raw`` carries the experiment module's native result object for
    in-process callers (benchmarks, notebooks); it is dropped when the
    result crosses a process boundary or is persisted to JSON.  It
    outlives the simulation (:meth:`Scenario.run` tears that down), so
    it holds plain data only — never the network, a port or an endpoint.
    """

    scenario: str
    metrics: Dict[str, Optional[float]] = field(default_factory=dict)
    series: Dict[str, List] = field(default_factory=dict)
    provenance: Dict[str, Any] = field(default_factory=dict)
    raw: Any = None

    def to_json_dict(self) -> Dict[str, Any]:
        """The persistable view (raw stripped)."""
        return {
            "scenario": self.scenario,
            "metrics": dict(self.metrics),
            "series": {k: list(v) for k, v in self.series.items()},
            "provenance": config_to_jsonable(self.provenance),
        }

    @classmethod
    def from_json_dict(cls, doc: Dict[str, Any]) -> "ScenarioResult":
        """The result a persisted view holds (``raw`` is gone); a cell
        document's other keys (``params``, ``status``, ...) are ignored."""
        return cls(
            scenario=doc.get("scenario", ""),
            metrics=doc.get("metrics", {}),
            series=doc.get("series", {}),
            provenance=doc.get("provenance", {}),
        )


class Scenario:
    """Base class for registered scenarios.

    Subclasses set ``name``, ``description``, and ``config_cls`` and
    implement :meth:`build` and :meth:`collect`.  ``tiny_overrides``
    names a sub-second configuration used by smoke tests and
    ``python -m repro run <scenario> --tiny``.
    """

    name: str = ""
    description: str = ""
    config_cls: type = None

    # -- step 1: configure -------------------------------------------------
    def configure(self, **overrides):
        """Instantiate the config dataclass, rejecting unknown fields."""
        valid = {f.name for f in dataclasses.fields(self.config_cls)}
        unknown = sorted(set(overrides) - valid)
        if unknown:
            raise ValueError(
                f"scenario {self.name!r}: unknown config field(s) "
                f"{', '.join(unknown)}; valid fields: {', '.join(sorted(valid))}"
            )
        return self.config_cls(**overrides)

    def config_fields(self) -> List[str]:
        """Names of the tunable config fields."""
        return [f.name for f in dataclasses.fields(self.config_cls)]

    def tiny_overrides(self) -> Dict[str, Any]:
        """Overrides for a fast (sub-second) smoke run."""
        return {}

    # -- step 2: build -----------------------------------------------------
    def build(self, config):
        """Return a zero-arg callable executing the experiment once."""
        raise NotImplementedError

    # -- step 4: collect ---------------------------------------------------
    def collect(self, config, raw) -> Tuple[Dict[str, Any], Dict[str, List]]:
        """Derive (metrics, series) from the raw experiment result."""
        raise NotImplementedError

    # -- step 3: run (orchestrates the other three) ------------------------
    def run(self, config=None, **overrides) -> ScenarioResult:
        """configure -> build -> execute -> collect, with provenance."""
        if config is not None and overrides:
            raise ValueError(
                f"scenario {self.name!r}: pass either a config object or "
                f"keyword overrides, not both (got config and "
                f"{', '.join(sorted(overrides))})"
            )
        if config is None:
            config = self.configure(**overrides)
        # The scope ends the run: every simulator the experiment built is
        # closed once collect() has read it, on success and on exception,
        # so back-to-back cells never carry dead simulators
        # (docs/INVARIANTS.md#run-teardown).
        with run_scope():
            runnable = self.build(config)
            # Wall time feeds the wall_time_s provenance field only — it
            # never influences simulation behaviour or persisted metric
            # values.
            start = time.perf_counter()  # lint: disable=wall-clock
            raw = runnable()
            wall_s = time.perf_counter() - start  # lint: disable=wall-clock
            metrics, series = self.collect(config, raw)
        provenance = {
            "scenario": self.name,
            "algorithm": getattr(config, "algorithm", None),
            "seed": getattr(config, "seed", None),
            "config": config_to_jsonable(config),
            "wall_time_s": wall_s,
            "events_processed": getattr(raw, "events_processed", 0),
        }
        return ScenarioResult(
            scenario=self.name,
            metrics=metrics,
            series=series,
            provenance=provenance,
            raw=raw,
        )
