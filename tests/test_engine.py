"""Unit tests for the discrete-event engine."""

import gc

import pytest

from compiled_support import require_compiled
from repro.sim.engine import (
    SCHEDULER_MODES,
    Simulator,
    engine_defaults,
    run_scope,
)


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.at(300, fired.append, "c")
    sim.at(100, fired.append, "a")
    sim.at(200, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_ties_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for label in "abcde":
        sim.at(50, fired.append, label)
    sim.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.at(123, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [123]
    assert sim.now == 123


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.at(100, fired.append, "early")
    sim.at(900, fired.append, "late")
    sim.run(until=500)
    assert fired == ["early"]
    assert sim.now == 500  # clock advanced to the horizon
    sim.run()
    assert fired == ["early", "late"]


def test_after_is_relative_to_now():
    sim = Simulator()
    times = []
    sim.at(100, lambda: sim.after(50, lambda: times.append(sim.now)))
    sim.run()
    assert times == [150]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.at_cancellable(100, fired.append, "x")
    sim.at(50, event.cancel)
    sim.run()
    assert fired == []


def test_cannot_schedule_in_the_past():
    sim = Simulator()
    sim.at(100, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.at(50, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.after(-1, lambda: None)


def test_events_scheduled_during_run_are_processed():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.after(10, chain, n + 1)

    sim.at(0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 50


def test_step_processes_single_event():
    sim = Simulator()
    fired = []
    sim.at(10, fired.append, 1)
    sim.at(20, fired.append, 2)
    assert sim.step()
    assert fired == [1]
    assert sim.step()
    assert fired == [1, 2]
    assert not sim.step()


def test_peek_time_skips_cancelled():
    sim = Simulator()
    event = sim.at_cancellable(10, lambda: None)
    sim.at(20, lambda: None)
    event.cancel()
    assert sim.peek_time() == 20


def test_peek_time_prunes_cancelled_heap_entries():
    sim = Simulator()
    events = [sim.at_cancellable(10 + i, lambda: None) for i in range(3)]
    sim.at(100, lambda: None)
    for event in events:
        event.cancel()
    # pending reports the *live* count immediately; the heap keeps the
    # cancelled entries only until lazy compaction reaches them.
    assert sim.pending == 1
    assert sim.heap_entries == 4
    assert sim.peek_time() == 100
    assert sim.heap_entries == 1  # cancelled prefix physically removed
    assert sim.pending == 1


def test_peek_time_empty_and_all_cancelled():
    sim = Simulator()
    assert sim.peek_time() is None
    event = sim.at_cancellable(10, lambda: None)
    event.cancel()
    assert sim.pending == 0
    assert sim.peek_time() is None
    assert sim.heap_entries == 0


def test_max_events_bound():
    sim = Simulator()
    for i in range(10):
        sim.at(i, lambda: None)
    processed = sim.run(max_events=4)
    assert processed == 4
    assert sim.events_processed == 4


def test_run_returns_processed_count():
    sim = Simulator()
    sim.at(1, lambda: None)
    sim.at(2, lambda: None)
    assert sim.run() == 2


def test_max_events_with_until_leaves_clock_resumable():
    sim = Simulator()
    fired = []
    for t in (10, 20, 30):
        sim.at(t, fired.append, t)
    assert sim.run(until=100, max_events=1) == 1
    # Budget tripped first: the clock must NOT jump to the horizon, or
    # the remaining events would fire in the past on the next run.
    assert fired == [10]
    assert sim.now == 10
    assert sim.run(until=100) == 2
    assert fired == [10, 20, 30]
    assert sim.now == 100  # horizon reached normally this time


def test_max_events_zero_processes_nothing():
    sim = Simulator()
    sim.at(10, lambda: None)
    assert sim.run(until=100, max_events=0) == 0
    assert sim.now == 0
    assert sim.pending == 1


def test_cancelled_events_do_not_consume_max_events_budget():
    sim = Simulator()
    fired = []
    doomed = sim.at_cancellable(10, fired.append, "doomed")
    sim.at(20, fired.append, "live")
    doomed.cancel()
    assert sim.run(max_events=1) == 1
    assert fired == ["live"]


# ----------------------------------------------------------------------
# The cancellable-timer API (at_cancellable / after_cancellable)
# ----------------------------------------------------------------------
def test_fast_path_returns_no_handle():
    sim = Simulator()
    assert sim.at(10, lambda: None) is None
    assert sim.after(10, lambda: None) is None


def test_at_cancellable_fires_like_at():
    sim = Simulator()
    fired = []
    sim.at_cancellable(100, fired.append, "timer")
    sim.at(50, fired.append, "fast")
    sim.run()
    assert fired == ["fast", "timer"]


def test_after_cancellable_relative_and_validated():
    sim = Simulator()
    fired = []
    sim.at(100, lambda: sim.after_cancellable(50, lambda: fired.append(sim.now)))
    sim.run()
    assert fired == [150]
    with pytest.raises(ValueError):
        sim.after_cancellable(-1, lambda: None)
    with pytest.raises(ValueError):
        sim.at_cancellable(sim.now - 1, lambda: None)


def test_cancel_is_idempotent_and_safe_after_firing():
    sim = Simulator()
    fired = []
    event = sim.at_cancellable(10, fired.append, "x")
    sim.run()
    assert fired == ["x"]
    event.cancel()  # already fired: must be a no-op
    event.cancel()
    assert sim.pending == 0
    doomed = sim.at_cancellable(20, fired.append, "y")
    doomed.cancel()
    doomed.cancel()  # double-cancel must not decrement the live count twice
    assert sim.pending == 0
    sim.run()
    assert fired == ["x"]


def test_pending_tracks_live_events_only():
    sim = Simulator()
    sim.at(10, lambda: None)
    timers = [sim.at_cancellable(20 + i, lambda: None) for i in range(5)]
    assert sim.pending == 6
    for timer in timers[:3]:
        timer.cancel()
    assert sim.pending == 3
    assert sim.heap_entries == 6  # cancelled entries await lazy compaction
    sim.run()
    assert sim.pending == 0
    assert sim.heap_entries == 0
    assert sim.events_processed == 3


def test_cancellation_heavy_timer_workload():
    # Mimics retransmission timers: every "ack" cancels and re-arms the
    # timer; only the final timer may fire.  Exercises live-count
    # bookkeeping and lazy compaction under churn.
    sim = Simulator()
    fired = []
    state = {"timer": None}

    def fire():
        fired.append(sim.now)

    def arm():
        if state["timer"] is not None:
            state["timer"].cancel()
        state["timer"] = sim.after_cancellable(1_000, fire)

    for t in range(0, 500, 10):
        sim.at(t, arm)
    sim.run()
    # Only the last re-armed timer fires (at 490 + 1000).
    assert fired == [1490]
    assert sim.pending == 0
    assert sim.events_processed == 51  # 50 arms + 1 timer


def test_mixed_fast_and_cancellable_tie_order():
    sim = Simulator()
    fired = []
    sim.at(50, fired.append, "fast-1")
    sim.at_cancellable(50, fired.append, "timer")
    sim.at(50, fired.append, "fast-2")
    sim.run()
    assert fired == ["fast-1", "timer", "fast-2"]  # scheduling order


@pytest.mark.parametrize("scheduler", ["heap", "compiled"])
def test_run_pauses_gc_and_leaves_the_callers_setting(scheduler):
    require_compiled(scheduler)
    seen = []
    sim = Simulator(scheduler=scheduler)
    sim.at(10, lambda: seen.append(gc.isenabled()))
    assert gc.isenabled()
    sim.run()
    assert seen == [False] and gc.isenabled()
    gc.disable()  # a caller that already paused the collector keeps it so
    try:
        sim.at(20, lambda: seen.append(gc.isenabled()))
        sim.run()
        assert seen == [False, False] and not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["calendar", "auto", "nope"])
def test_unknown_scheduler_rejected_naming_the_accepted_set(name):
    assert SCHEDULER_MODES == ("heap", "compiled", "best")
    with pytest.raises(ValueError, match="unknown scheduler") as err:
        Simulator(scheduler=name)
    assert all(accepted in str(err.value) for accepted in SCHEDULER_MODES)
    with pytest.raises(ValueError, match="unknown scheduler"):
        with engine_defaults(scheduler=name):
            pass


# ----------------------------------------------------------------------
# End of life: close(), use after close, run_scope
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheduler", ["heap", "compiled"])
def test_close_releases_events_and_runs_hooks_once(scheduler):
    require_compiled(scheduler)
    sim = Simulator(scheduler=scheduler)
    closed = []
    sim.on_close(lambda: closed.append("net"))
    sim.on_close(lambda: closed.append("driver"))
    sim.at(10, closed.append, "fired")
    timer = sim.after_cancellable(50, closed.append, "timer")
    sim.run(until=20)
    sim.close()
    sim.close()  # idempotent: hooks do not run twice
    assert closed == ["fired", "net", "driver"]
    assert sim.pending == 0 and sim.heap_entries == 0 and sim.pool is None
    assert sim.events_processed == 1 and sim.now == 20  # still readable
    # the owner may still hold the handle: it is dead, not dangling
    assert timer.cancelled and timer.fn is None and timer.args is None
    timer.cancel()
    assert sim.pending == 0


@pytest.mark.parametrize("scheduler", ["heap", "compiled"])
def test_use_after_close_raises_naming_close(scheduler):
    require_compiled(scheduler)
    sim = Simulator(scheduler=scheduler)
    sim.close()
    for use in (
        lambda: sim.run(),
        lambda: sim.run(until=5),
        lambda: sim.step(),
        lambda: sim.at(1, print),
        lambda: sim.after(1, print),
        lambda: sim.at_cancellable(1, print),
        lambda: sim.after_cancellable(1, print),
        lambda: sim.on_close(print),
    ):
        with pytest.raises(RuntimeError, match=r"close\(\)"):
            use()
    assert sim.peek_time() is None


@pytest.mark.parametrize("scheduler", ["heap", "compiled"])
def test_close_is_safe_after_a_callback_raised_mid_run(scheduler):
    require_compiled(scheduler)
    sim = Simulator(scheduler=scheduler)

    def boom():
        raise ZeroDivisionError("mid-run")

    sim.at(10, boom)
    sim.at(20, print, "never")
    sim.after_cancellable(30, print, "never")
    with pytest.raises(ZeroDivisionError):
        sim.run()
    assert sim.pending == 2 and gc.isenabled()
    sim.close()
    assert sim.pending == 0 and sim.heap_entries == 0
    sim.close()


def test_run_scope_closes_what_was_built_inside_it():
    outside = Simulator()
    with run_scope():
        first = Simulator()
        with run_scope():
            inner = Simulator()
            inner.at(1, print)
        with pytest.raises(RuntimeError, match=r"close\(\)"):
            inner.run()  # the inner scope ended the inner simulator only
        first.at(5, lambda: None)
        assert first.run() == 1
    with pytest.raises(RuntimeError, match=r"close\(\)"):
        first.at(9, print)
    outside.at(1, lambda: None)
    assert outside.run() == 1  # never belonged to a scope
    later = Simulator()  # nor does one built after the scope ended
    later.at(1, lambda: None)
    assert later.run() == 1


def test_run_scope_closes_on_exception():
    built = []
    with pytest.raises(ZeroDivisionError):
        with run_scope():
            built.append(Simulator())
            built[0].at(10, lambda: 1 / 0)
            built[0].run()
    with pytest.raises(RuntimeError, match=r"close\(\)"):
        built[0].run()
