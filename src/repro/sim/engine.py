"""Discrete-event simulation engine: one binary heap, two drain loops.

Events are ``(time, seq, fn, args)`` tuples.  The sequence number breaks
ties in insertion order, which makes runs fully deterministic: two events
scheduled for the same nanosecond always fire in the order they were
scheduled.  Because entries are plain tuples, ordering compares at C
speed and the ~95 % of events that are never cancelled (tx completions,
packet deliveries, probe ticks) cost **zero object allocations** — this
is the engine's fast path (:meth:`Simulator.at` / :meth:`Simulator.after`),
and it returns no handle.

There is exactly one event store — the ``_heap`` list, a binary heap
ordered by ``heapq`` — and the ports' inlined pushes go straight at it.
``Simulator(scheduler=...)`` only chooses what *drains* it:

* ``"heap"`` (default) — the pure-Python run loop; the behavioural
  reference.
* ``"compiled"`` — the same list, drained by the optional C extension
  (``repro._ckernel.corekernel`` via the gated loader
  :mod:`repro.sim._compiled`).  ``(time, seq)`` is a total order, so the
  pop sequence — and therefore every simulation result — is
  byte-identical to the pure-Python loop
  (``docs/INVARIANTS.md#compiled-parity``).  Raises at construction
  when the extension is not built.
* ``"best"`` — resolves to ``"compiled"`` when the extension loaded,
  else falls back to ``"heap"``.  The right choice for perf-sensitive
  callers that must still run on boxes without a C compiler.

Cancellable events — retransmission timers, pacing timers, DCQCN's rate
timers — go through the explicit :meth:`Simulator.at_cancellable` /
:meth:`Simulator.after_cancellable` API, which allocates an :class:`Event`
handle.  Cancellation only marks the handle; its heap entry is skipped
lazily when popped, keeping both operations O(log n) / O(1).  The live
count (:attr:`Simulator.pending`) is maintained eagerly, so diagnostics
never over-report cancelled entries awaiting compaction.

``Simulator.run`` pauses the cyclic garbage collector for the duration
of the loop (when it was enabled on entry): the hot path allocates
almost nothing, so GC passes are pure overhead mid-run.

The process-wide default scheduler can be set temporarily with
:func:`engine_defaults`, so benchmarks and tests can flip the drain loop
without threading a parameter through every experiment constructor.

A run has an explicit end of life, :meth:`Simulator.close`.  Everything
built on a simulator is cyclic by construction (bidirectional links,
ports caching their own bound callbacks, hosts <-> endpoints) and the
collector is off while it runs, so a finished run that is merely dropped
stays in memory until some later generation-2 pass.  ``close`` releases
the pending events and runs the teardown hooks the layers above
registered with :meth:`Simulator.on_close`, after which the whole graph
dies by reference counting (``docs/INVARIANTS.md#run-teardown``).
:func:`run_scope` closes every simulator constructed inside its block —
that is how ``Scenario.run`` ends the run of experiments that construct
their simulators internally.
"""

from __future__ import annotations

import gc
import heapq
from contextlib import contextmanager
from itertools import count
from typing import Any, Callable, Optional

#: sentinel horizon for ``run(until=None)`` — far beyond any nanosecond
#: clock a simulation can reach (≈292 years)
_FOREVER = 1 << 63

#: concrete scheduler names a ``Simulator`` can resolve to
SCHEDULERS = ("heap", "compiled")

#: everything ``Simulator(scheduler=...)`` accepts: the concrete
#: schedulers plus "best" (compiled when available, else heap)
SCHEDULER_MODES = SCHEDULERS + ("best",)

#: process-wide defaults picked up by ``Simulator()`` when the
#: corresponding constructor argument is omitted (see
#: :func:`engine_defaults`)
_ENGINE_DEFAULTS = {"scheduler": "heap"}


@contextmanager
def engine_defaults(*, scheduler: Optional[str] = None):
    """Temporarily override the process-wide engine defaults.

    Every ``Simulator()`` constructed inside the ``with`` block picks up
    the overridden ``scheduler`` unless the caller passes one explicitly.
    This is how the perf suite and the determinism tests flip the drain
    loop for scenarios that construct their own simulators internally.
    The previous defaults are restored on exit (also on exceptions);
    nesting composes.
    """
    previous = dict(_ENGINE_DEFAULTS)
    if scheduler is not None:
        if scheduler not in SCHEDULER_MODES:
            raise ValueError(
                f"unknown scheduler {scheduler!r}; available: {SCHEDULER_MODES}"
            )
        _ENGINE_DEFAULTS["scheduler"] = scheduler
    try:
        yield
    finally:
        _ENGINE_DEFAULTS.update(previous)


#: one list per open :func:`run_scope`, innermost last, holding the
#: simulators constructed inside it
_RUN_SCOPES: list = []


@contextmanager
def run_scope():
    """Close every ``Simulator`` constructed inside the ``with`` block.

    The simulators stay usable until the block exits (on success and on
    exceptions alike), so results can still be read off the network
    inside it.  Scopes nest: a simulator belongs to the innermost scope
    open at its construction.
    """
    opened: list = []
    _RUN_SCOPES.append(opened)
    try:
        yield
    finally:
        _RUN_SCOPES.pop()
        for sim in opened:
            sim.close()


def _closed_error() -> RuntimeError:
    return RuntimeError(
        "this Simulator was closed: close() ended the run and released its "
        "events; construct a new Simulator for another run"
    )


class Event:
    """A cancellable scheduled callback.

    Returned only by :meth:`Simulator.at_cancellable` /
    :meth:`Simulator.after_cancellable`; the non-cancellable fast path
    (:meth:`Simulator.at` / ``after``) never allocates one.  Call
    :meth:`cancel` to prevent the callback from firing (e.g.
    retransmission timers superseded by an ACK).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_fired", "_sim")

    def __init__(
        self,
        sim: "Simulator",
        time: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
    ):
        self._sim = sim
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._fired = False

    def cancel(self) -> None:
        """Mark the event so the engine skips it when its time comes.

        Idempotent; cancelling an event that already fired is a no-op.
        """
        if not self.cancelled and not self._fired:
            self.cancelled = True
            self._sim._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "cancelled" if self.cancelled
            else "fired" if self._fired
            else "pending"
        )
        return f"Event(t={self.time}, fn={getattr(self.fn, '__name__', self.fn)}, {state})"


class Simulator:
    """Event loop with an integer-nanosecond clock.

    Typical usage::

        sim = Simulator()
        sim.after(1_000, port.enqueue, packet)
        timer = sim.after_cancellable(rto_ns, sender.on_rto)
        sim.run(until=10 * SEC)
        timer.cancel()
    """

    __slots__ = (
        "now",
        "_heap",
        "_seq",
        "_events_processed",
        "_live",
        "pool",
        "scheduler",
        "_drain",
        "_closers",
        "__weakref__",
    )

    def __init__(self, *, scheduler: Optional[str] = None) -> None:
        if scheduler is None:
            scheduler = _ENGINE_DEFAULTS["scheduler"]
        if scheduler not in SCHEDULER_MODES:
            raise ValueError(
                f"unknown scheduler {scheduler!r}; available: {SCHEDULER_MODES}"
            )
        self.now: int = 0
        #: entries are (time, seq, fn, args) — fn is None for cancellable
        #: events, whose Event handle then rides in the args slot
        self._heap: list = []
        self._seq = count()
        self._events_processed = 0
        self._live = 0
        #: lazily attached per-simulator :class:`repro.sim.packet.PacketPool`
        #: (opaque to the engine; see ``repro.sim.packet.get_pool``)
        self.pool: Optional[object] = None
        #: compiled drain loop (corekernel.drain) when the compiled
        #: engine is active, else None
        self._drain = None
        if scheduler == "best":
            from repro.sim._compiled import compiled_available

            scheduler = "compiled" if compiled_available() else "heap"
        if scheduler == "compiled":
            from repro.sim._compiled import compiled_error, load_compiled

            module = load_compiled()
            if module is None:
                raise RuntimeError(
                    "scheduler='compiled' requested but the compiled event "
                    f"core is unavailable ({compiled_error()}); build it "
                    "with 'python setup.py build_ext --inplace' or use "
                    "scheduler='best' for automatic fallback"
                )
            self._drain = module.drain
        #: name of the active event scheduler ("heap" or "compiled")
        self.scheduler = scheduler
        #: teardown hooks run by :meth:`close`; None once closed
        self._closers: Optional[list] = []
        if _RUN_SCOPES:
            _RUN_SCOPES[-1].append(self)

    # ------------------------------------------------------------------
    # End of life
    # ------------------------------------------------------------------
    def on_close(self, fn: Callable[[], Any]) -> None:
        """Register ``fn()`` to run when the simulation is closed.

        Whatever builds cyclic structure on this simulator (the network
        container, the flow driver) registers the method that takes its
        share apart, so :meth:`close` is the one teardown entry point.
        """
        if self._closers is None:
            raise _closed_error()
        self._closers.append(fn)

    def close(self) -> None:
        """End this run: release everything that keeps its graph cyclic.

        Runs the :meth:`on_close` hooks, drops every pending event
        (cancelling the handles of cancellable ones, which their owners
        may still hold) and detaches the packet pool.  Afterwards nothing
        built on this simulator is part of a reference cycle through the
        engine, so the run is freed by reference counting as soon as the
        caller lets go of it — no collector pass involved.  Counters
        (:attr:`events_processed`, ``now``) stay readable; scheduling or
        running raises.  Idempotent, and safe after a callback raised
        mid-run.
        """
        closers = self._closers
        if closers is None:
            return
        self._closers = None
        for fn in closers:
            fn()
        for _time, _seq, fn, event in self._heap:
            if fn is None:
                event.cancelled = True
                event.fn = event.args = event._sim = None
        self._heap.clear()
        self._live = 0
        self.pool = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``time_ns`` (fast path).

        Allocation-free apart from the heap tuple; returns no handle.
        Use :meth:`at_cancellable` when the caller may need to cancel.
        """
        if self._closers is None:
            raise _closed_error()
        if time_ns < self.now:
            raise ValueError(
                f"cannot schedule in the past: {time_ns} < now={self.now}"
            )
        heapq.heappush(self._heap, (time_ns, next(self._seq), fn, args))
        self._live += 1

    def after(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` ``delay_ns`` nanoseconds from now (fast path)."""
        if self._closers is None:
            raise _closed_error()
        if delay_ns < 0:
            raise ValueError(f"negative delay: {delay_ns}")
        heapq.heappush(
            self._heap, (self.now + delay_ns, next(self._seq), fn, args)
        )
        self._live += 1

    def at_cancellable(
        self, time_ns: int, fn: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``fn(*args)`` at ``time_ns``; returns a cancellable handle.

        This is the timer API: retransmission/pacing/rate timers that an
        ACK may supersede.  Costs one :class:`Event` allocation.
        """
        if self._closers is None:
            raise _closed_error()
        if time_ns < self.now:
            raise ValueError(
                f"cannot schedule in the past: {time_ns} < now={self.now}"
            )
        event = Event(self, time_ns, next(self._seq), fn, args)
        heapq.heappush(self._heap, (time_ns, event.seq, None, event))
        self._live += 1
        return event

    def after_cancellable(
        self, delay_ns: int, fn: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``fn(*args)`` after ``delay_ns``; returns a cancellable handle."""
        if delay_ns < 0:
            raise ValueError(f"negative delay: {delay_ns}")
        return self.at_cancellable(self.now + delay_ns, fn, *args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Process events in order.

        Stops when the heap is empty, when the next event is past ``until``
        (the clock is then advanced to ``until``), or after ``max_events``
        events.  When the ``max_events`` budget trips first the clock is
        *not* advanced to ``until`` — live events at or before the horizon
        remain pending, so a later ``run`` resumes without time-travel.
        Cancelled events are compacted without consuming the budget.
        Returns the number of events processed by this call.
        """
        if self._closers is None:
            raise _closed_error()
        if self._drain is not None:
            return self._run_compiled(until, max_events)
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        horizon = _FOREVER if until is None else until
        limit = -1 if max_events is None else max_events
        processed = 0
        budget_hit = False
        pause = gc.isenabled()
        if pause:
            gc.disable()
        try:
            # Pop-first loop: one heappop per event instead of a peek +
            # pop pair.  An entry past the horizon or budget is re-pushed
            # with its original sequence number, so ordering is unaffected
            # (and it happens at most once per run call).  The unbudgeted
            # loop — how every scenario drives the engine — is split out
            # so the common path pays no budget compare per event, and
            # the plain-entry branch (the ~95 % case) falls through first.
            if limit == -1:
                while heap:
                    time_, seq, fn, args = pop(heap)
                    if fn is not None:
                        if time_ > horizon:
                            push(heap, (time_, seq, fn, args))
                            break
                        self.now = time_
                        processed += 1
                        fn(*args)
                    else:
                        event = args
                        if event.cancelled:
                            continue
                        if time_ > horizon:
                            push(heap, (time_, seq, fn, args))
                            break
                        event._fired = True
                        self.now = time_
                        processed += 1
                        event.fn(*event.args)
            else:
                while heap:
                    time_, seq, fn, args = pop(heap)
                    if fn is None:
                        event = args
                        if event.cancelled:
                            continue
                        if time_ > horizon:
                            push(heap, (time_, seq, fn, args))
                            break
                        if processed == limit:
                            push(heap, (time_, seq, fn, args))
                            budget_hit = True
                            break
                        event._fired = True
                        self.now = time_
                        processed += 1
                        event.fn(*event.args)
                    else:
                        if time_ > horizon:
                            push(heap, (time_, seq, fn, args))
                            break
                        if processed == limit:
                            push(heap, (time_, seq, fn, args))
                            budget_hit = True
                            break
                        self.now = time_
                        processed += 1
                        fn(*args)
        finally:
            if pause:
                gc.enable()
            self._events_processed += processed
            self._live -= processed
        if until is not None and not budget_hit and self.now < until:
            self.now = until
        return processed

    def _run_compiled(
        self, until: Optional[int], max_events: Optional[int]
    ) -> int:
        """:meth:`run` via the compiled drain loop — identical semantics.

        ``corekernel.drain`` pops from the *same* ``_heap`` list the
        Python fast path (and the ports' inlined pushes) use, mirroring
        the reference loop event for event: lazy cancellation
        compaction, horizon/budget re-push with the original sequence
        number, per-event clock advance, and the counter accounting of
        the ``finally`` clause (also on callback exceptions).  Only the
        GC pause and the final clock advance to ``until`` live here.
        """
        pause = gc.isenabled()
        if pause:
            gc.disable()
        try:
            processed, budget_hit = self._drain(
                self, self._heap, until, max_events
            )
        finally:
            if pause:
                gc.enable()
        if until is not None and not budget_hit and self.now < until:
            self.now = until
        return processed

    def step(self) -> bool:
        """Process exactly one pending event.  Returns False if none left."""
        if self._closers is None:
            raise _closed_error()
        heap = self._heap
        while heap:
            time_, _seq, fn, args = heapq.heappop(heap)
            if fn is None:
                event = args
                if event.cancelled:
                    continue
                event._fired = True
                fn = event.fn
                args = event.args
            self.now = time_
            self._events_processed += 1
            self._live -= 1
            fn(*args)
            return True
        return False

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of *live* scheduled events (cancelled entries excluded)."""
        return self._live

    @property
    def heap_entries(self) -> int:
        """Raw heap length, including cancelled entries awaiting lazy
        compaction (diagnostics only — see :attr:`pending` for the live
        count)."""
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        """Total events executed since construction."""
        return self._events_processed

    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or None if none is scheduled.

        Physically removes any cancelled prefix (the same lazy compaction
        the run loop performs); the live count is unaffected because
        cancellation already discounted those entries.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2] is None and head[3].cancelled:
                heapq.heappop(heap)
                continue
            return head[0]
        return None
