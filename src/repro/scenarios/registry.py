"""Name -> scenario wiring, mirroring :mod:`repro.cc.registry`.

Experiment modules register their scenario classes with the
:func:`register` decorator::

    @register
    class WebsearchScenario(Scenario):
        name = "websearch"
        ...

Lookup is lazy: :func:`get_scenario` / :func:`scenario_names` import the
built-in experiment modules on first use, so ``import repro.scenarios``
stays cheap and free of circular imports.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Type

from repro.scenarios.base import Scenario

#: name -> singleton scenario instance
SCENARIOS: Dict[str, Scenario] = {}

#: the experiment modules that self-register built-in scenarios
BUILTIN_MODULES = (
    "repro.experiments.websearch",
    "repro.experiments.incast",
    "repro.experiments.fairness",
    "repro.experiments.rdcn",
    "repro.experiments.bursty",
    "repro.experiments.coexistence",
    "repro.experiments.permutation",
    "repro.experiments.multibottleneck",
    "repro.experiments.lbmatrix",
)


def register(cls: Type[Scenario]) -> Type[Scenario]:
    """Class decorator: instantiate and index a scenario by its name."""
    instance = cls()
    if not instance.name:
        raise ValueError(f"{cls.__name__} must set a non-empty name")
    if instance.config_cls is None:
        raise ValueError(f"{cls.__name__} must set config_cls")
    existing = SCENARIOS.get(instance.name)
    if existing is not None and type(existing) is not cls:
        raise ValueError(
            f"scenario name {instance.name!r} already registered "
            f"by {type(existing).__name__}"
        )
    SCENARIOS[instance.name] = instance
    return cls


def load_builtin_scenarios() -> None:
    """Import every built-in experiment module (idempotent)."""
    for module in BUILTIN_MODULES:
        importlib.import_module(module)


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name; raises KeyError with the catalog."""
    load_builtin_scenarios()
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario: {name!r} "
            f"(registered: {', '.join(scenario_names())})"
        ) from None


def scenario_names() -> List[str]:
    """Sorted names of every registered scenario."""
    load_builtin_scenarios()
    return sorted(SCENARIOS)
