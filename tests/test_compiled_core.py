"""Compiled event core: parity, fallback, and loader-gating tests.

Contract under test (``docs/INVARIANTS.md#compiled-parity``): the
pure-Python heap loop is the reference, and the C drain must reproduce
its ``(time, seq)`` order — and therefore every result — exactly.  The
fallback tests simulate an installation without a C compiler by forcing
the loader's failure branch (``force_unavailable``): the whole engine
surface must keep working on the pure-Python path.
"""

import heapq
import random

import pytest

from compiled_support import require_compiled
from repro.sim import Simulator, compiled_available, engine_defaults
from repro.sim._compiled import compiled_error, force_unavailable, load_compiled


def _kernel():
    require_compiled("compiled")
    return load_compiled()


# ----------------------------------------------------------------------
# Heap primitives
# ----------------------------------------------------------------------


def test_heap_ops_match_heapq_order():
    ck = _kernel()
    rng = random.Random(11)
    entries = [
        (rng.randrange(10**7), seq, None, ()) for seq in range(4000)
    ]
    ours, reference = [], []
    for entry in entries:
        ck.heappush(ours, entry)
        heapq.heappush(reference, entry)
    popped = [ck.heappop(ours) for _ in range(len(entries))]
    expected = [heapq.heappop(reference) for _ in range(len(entries))]
    assert popped == expected
    assert popped == sorted(entries)


def test_heap_ops_interoperate_with_heapq():
    # The engine mixes heapq pushes (ports, at/after) with compiled pops:
    # (time, seq) is a total order, so any valid heap layout pops in the
    # same sequence.
    ck = _kernel()
    rng = random.Random(12)
    entries = [(rng.randrange(10**6), seq, None, ()) for seq in range(2000)]
    mixed = []
    for i, entry in enumerate(entries):
        (heapq.heappush if i % 2 else ck.heappush)(mixed, entry)
    drained = []
    for i in range(len(entries)):
        drained.append((heapq.heappop if i % 3 == 0 else ck.heappop)(mixed))
    assert drained == sorted(entries)


def test_heappop_empty_raises_indexerror():
    ck = _kernel()
    with pytest.raises(IndexError):
        ck.heappop([])


# ----------------------------------------------------------------------
# Run-loop parity
# ----------------------------------------------------------------------


def _churn_workload(sim, seed=42, streams=40, horizon=600_000):
    """Self-rescheduling churn with cancellable timers; returns the trace."""
    rng = random.Random(seed)
    trace = []
    timers = []

    def tick(tag):
        trace.append((sim.now, tag))
        delay = rng.randrange(1, 4000)
        if sim.now + delay < horizon:
            sim.after(delay, tick, tag)
        if rng.random() < 0.25:
            timers.append(
                sim.after_cancellable(rng.randrange(1, 9000), tick, -tag - 1)
            )
        if timers and rng.random() < 0.5:
            timers.pop(rng.randrange(len(timers))).cancel()

    for tag in range(streams):
        sim.at(rng.randrange(1, 1500), tick, tag)
    return trace


def _run(scheduler, *, budget=None, horizon=700_000):
    sim = Simulator(scheduler=scheduler)
    trace = _churn_workload(sim)
    if budget is None:
        sim.run(until=horizon)
    else:
        while True:
            if sim.run(until=horizon, max_events=budget) < budget:
                break
    return trace, sim.events_processed, sim.now, sim.pending


@pytest.mark.parametrize("budget", [None, 997], ids=["unbudgeted", "budgeted"])
def test_drain_matches_reference_loop(budget):
    require_compiled("compiled")
    reference = _run("heap", budget=budget)
    compiled = _run("compiled", budget=budget)
    assert compiled[0] == reference[0]  # full (time, tag) event trace
    assert compiled[1:] == reference[1:]


def test_budget_hit_does_not_advance_clock():
    require_compiled("compiled")
    for scheduler in ("heap", "compiled"):
        sim = Simulator(scheduler=scheduler)
        sim.at(10, lambda: None)
        sim.at(20, lambda: None)
        assert sim.run(until=1000, max_events=1) == 1
        assert sim.now == 10  # budget tripped: no advance to the horizon
        assert sim.pending == 1
        assert sim.run(until=1000) == 1
        assert sim.now == 1000  # horizon reached: clock advances


def test_callback_exception_keeps_counters_consistent():
    require_compiled("compiled")

    def boom():
        raise RuntimeError("scheduled failure")

    results = {}
    for scheduler in ("heap", "compiled"):
        sim = Simulator(scheduler=scheduler)
        sim.at(1, lambda: None)
        sim.at(2, boom)
        sim.at(3, lambda: None)
        with pytest.raises(RuntimeError, match="scheduled failure"):
            sim.run()
        results[scheduler] = (sim.events_processed, sim.pending, sim.now)
    assert results["compiled"] == results["heap"]


def test_cancelled_compaction_consumes_no_budget():
    require_compiled("compiled")
    for scheduler in ("heap", "compiled"):
        sim = Simulator(scheduler=scheduler)
        fired = []
        for k in range(5):
            sim.at_cancellable(10 + k, fired.append, k).cancel()
        sim.at(100, fired.append, "real")
        assert sim.run(max_events=1) == 1
        assert fired == ["real"]
        assert sim.pending == 0


def test_compiled_sim_composes_with_step_and_peek():
    require_compiled("compiled")
    sim = Simulator(scheduler="compiled")
    seen = []
    sim.at(5, seen.append, "a")
    sim.at(9, seen.append, "b")
    assert sim.peek_time() == 5
    assert sim.step() is True  # step() uses the shared heap path
    assert seen == ["a"]
    sim.run()
    assert seen == ["a", "b"]


# ----------------------------------------------------------------------
# Loader gating and the no-compiler fallback
# ----------------------------------------------------------------------


def test_best_mode_uses_compiled_when_available():
    require_compiled("compiled")
    assert Simulator(scheduler="best").scheduler == "compiled"
    with engine_defaults(scheduler="best"):
        assert Simulator().scheduler == "compiled"


def test_forced_fallback_simulates_no_compiler_install():
    # The pip-install-without-gcc cycle: "best" silently degrades to the
    # pure-Python reference and a full workload still runs.
    with force_unavailable():
        assert not compiled_available()
        assert "forced unavailable" in compiled_error()
        sim = Simulator(scheduler="best")
        assert sim.scheduler == "heap"
        trace = _churn_workload(sim, streams=10, horizon=100_000)
        sim.run(until=120_000)
        assert trace
        assert sim.now == 120_000


def test_explicit_compiled_request_fails_loudly_without_extension():
    with force_unavailable():
        with pytest.raises(RuntimeError, match="compiled event core is unavailable"):
            Simulator(scheduler="compiled")


def test_fallback_matches_compiled_results_exactly():
    # The same workload through the forced pure-Python path and the real
    # compiled path must agree event for event.
    require_compiled("compiled")
    with force_unavailable():
        fallback = _run("best")
    compiled = _run("best")
    assert fallback == compiled


def test_engine_report_names_every_engine():
    from repro.perf.bench import engine_report

    lines = "\n".join(engine_report())
    for name in ("heap", "compiled", "best"):
        assert name in lines
    for gone in ("calendar", "auto"):
        assert gone not in lines
    if compiled_available():
        assert "loaded" in lines
    else:
        assert "unavailable" in lines
