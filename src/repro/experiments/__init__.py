"""Per-figure experiment runners shared by tests, benches, and examples.

Each module exposes plain functions that build a network, deploy one CC
algorithm via :class:`repro.experiments.driver.FlowDriver`, run the event
loop, and return result dataclasses — so a pytest-benchmark target, an
example script, and an integration test all execute the same code path.

Every module also registers a :class:`repro.scenarios.base.Scenario`
wrapper with the scenario registry (see :mod:`repro.scenarios`), which
gives all six experiments — ``websearch`` (figs. 6-7, with or without
incast queries), ``incast``, ``fairness``, ``rdcn``,
``multi_bottleneck`` and the ``lb_matrix`` fabric stress (the host
permutation at its default load) — a uniform
``configure -> build -> run -> collect`` lifecycle, a common
:class:`ScenarioResult` record, and access to the parallel sweep runner
(``python -m repro sweep <scenario> ...``).
"""

from repro.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.experiments.driver": ("FlowDriver",),
})
