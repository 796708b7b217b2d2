"""Determinism regression suite.

The engine overhaul (tuple heap, packet pooling, GC pause) must never
make two identical runs diverge: same scenario + same seed must produce
the identical event count and identical metrics, regardless of pool
reuse, anonymous-port RNG fallbacks, or the process's allocation history.
"""

import pytest

from compiled_support import require_compiled
from repro.scenarios import get_scenario
from repro.sim.engine import engine_defaults


def _run_tiny(name, **extra):
    scenario = get_scenario(name)
    overrides = dict(scenario.tiny_overrides())
    overrides.update(extra)
    result = scenario.run(**overrides)
    return result.provenance["events_processed"], result.metrics


@pytest.mark.parametrize(
    # the "-b1" suffix keeps the test ids CI history tracks stable
    "scheduler", ["heap", "compiled"], ids=lambda s: f"{s}-b1"
)
@pytest.mark.parametrize(
    "scenario,extra",
    [
        ("incast", {"algorithm": "powertcp"}),
        ("incast", {"algorithm": "dcqcn"}),  # timers + ECN RNG + CNPs
        ("websearch", {"algorithm": "hpcc", "seed": 7}),
        ("lb_matrix", {"algorithm": "powertcp", "seed": 3}),
    ],
)
def test_same_seed_same_run(scenario, extra, scheduler):
    # compiled cells skip visibly when the optional extension is unbuilt
    require_compiled(scheduler)
    with engine_defaults(scheduler=scheduler):
        events_a, metrics_a = _run_tiny(scenario, **extra)
        events_b, metrics_b = _run_tiny(scenario, **extra)
    assert events_a == events_b
    assert metrics_a == metrics_b


@pytest.mark.parametrize(
    "scenario,extra",
    [
        ("incast", {"algorithm": "powertcp"}),
        ("websearch", {"algorithm": "hpcc", "seed": 7}),
    ],
)
def test_compiled_scheduler_matches_heap_exactly(scenario, extra):
    # The compiled drain pops the same heap in the same (time, seq)
    # order, so swapping schedulers must not move a single event or
    # metric (docs/INVARIANTS.md#compiled-parity).
    require_compiled("compiled")
    with engine_defaults(scheduler="heap"):
        events_h, metrics_h = _run_tiny(scenario, **extra)
    with engine_defaults(scheduler="compiled"):
        events_c, metrics_c = _run_tiny(scenario, **extra)
    assert events_h == events_c
    assert metrics_h == metrics_c


def test_different_seeds_diverge():
    # Sanity check that the seed actually feeds the workload: two seeds
    # should not produce the same flow arrival pattern.
    events_a, _ = _run_tiny("websearch", algorithm="powertcp", seed=1)
    events_b, _ = _run_tiny("websearch", algorithm="powertcp", seed=2)
    assert events_a != events_b


def test_anonymous_ports_are_deterministic_and_distinct():
    # Unnamed ports derive their ECN RNG from a per-simulator counter:
    # distinct sequences per port, identical across simulators.
    import random

    from repro.sim.engine import Simulator
    from repro.sim.port import EgressPort

    def mark_draws(sim):
        ports = [EgressPort(sim, 1e9, 0) for _ in range(2)]
        return [[p.rng.random() for _ in range(4)] for p in ports]

    draws_a = mark_draws(Simulator())
    draws_b = mark_draws(Simulator())
    assert draws_a == draws_b  # per-simulator counter: stable across runs
    assert draws_a[0] != draws_a[1]  # two anonymous ports never share a seed
    # Named ports keep their historical name-derived seed.
    sim = Simulator()
    named = EgressPort(sim, 1e9, 0, name="bottleneck")
    reference = random.Random("bottleneck")
    assert [named.rng.random() for _ in range(4)] == [
        reference.random() for _ in range(4)
    ]
