"""First-class scenario layer: registry + parallel sweep runner.

Usage::

    from repro.scenarios import get_scenario, run_sweep

    result = get_scenario("websearch").run(load=0.6, max_flows=100)
    sweep = run_sweep(
        "websearch",
        grid={"algorithm": ["powertcp", "hpcc"], "load": [0.2, 0.6]},
        jobs=4,
    )
    sweep.persist()

See :mod:`repro.scenarios.base` for the Scenario protocol and
:mod:`repro.scenarios.sweep` for the grid/seeding semantics.
"""

from repro.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.scenarios.base": ("Scenario", "ScenarioResult"),
    "repro.scenarios.registry": (
        "SCENARIOS",
        "get_scenario",
        "load_builtin_scenarios",
        "register",
        "scenario_names",
    ),
    "repro.scenarios.sweep": (
        "SweepCell", "SweepResult", "SweepRunner", "SweepSpec", "run_sweep",
    ),
})
