"""Name -> scenario wiring.

Names and lookups are one :class:`repro.registry.Registry` whose entries
are singleton scenario instances.  Experiment modules register their
scenario classes with the :func:`register` decorator::

    @register
    class WebsearchScenario(Scenario):
        name = "websearch"
        ...
"""

from __future__ import annotations

from typing import Type

from repro.registry import Registry
from repro.scenarios.base import Scenario

#: each experiment module that self-registers a built-in scenario -> the
#: name it registers
BUILTIN_CATALOG = {
    "repro.experiments.websearch": ("websearch",),
    "repro.experiments.incast": ("incast",),
    "repro.experiments.fairness": ("fairness",),
    "repro.experiments.rdcn": ("rdcn",),
    "repro.experiments.multibottleneck": ("multi_bottleneck",),
    "repro.experiments.lbmatrix": ("lb_matrix",),
}

REGISTRY: Registry[Scenario] = Registry("scenario", BUILTIN_CATALOG, type)
#: name -> singleton scenario instance
SCENARIOS = REGISTRY.entries
load_builtin_scenarios = REGISTRY.load_builtins
get_scenario = REGISTRY.get
scenario_names = REGISTRY.names


def register(cls: Type[Scenario]) -> Type[Scenario]:
    """Class decorator: instantiate and index a scenario by its name."""
    instance = cls()
    if not instance.name:
        raise ValueError(f"{cls.__name__} must set a non-empty name")
    if instance.config_cls is None:
        raise ValueError(f"{cls.__name__} must set config_cls")
    REGISTRY.add(instance.name, instance)
    return cls
