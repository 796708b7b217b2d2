"""Egress ports: serialization, queueing, ECN marking, and INT stamping.

An :class:`EgressPort` models one output of a switch (or the host NIC): a
set of strict-priority FIFO queues drained at the port's line rate, a link
to a peer node (propagation delay), optional membership in a switch-wide
:class:`~repro.sim.buffer.SharedBuffer` governed by Dynamic Thresholds,
optional ECN marking, and the INT stamping PowerTCP/HPCC rely on.

Telemetry semantics follow the paper exactly: the per-hop record carries
the egress queue length, timestamp, cumulative transmitted bytes, and
bandwidth, all taken *when the packet is scheduled for transmission*
(i.e. at the moment it starts serializing).

The per-packet transmit pipeline — ``enqueue`` / ``_start_tx`` /
``_finish_tx``, pushing straight onto the simulator's one event heap —
is defined once, on :class:`EgressPort`.  Packet-train batching
(opt-in, ``Simulator(tx_batch_limit=n)`` with ``n > 1``) is the
:class:`TrainPort` subclass, which holds all train state and logic.
"""

from __future__ import annotations

import random
import weakref
from array import array
from collections import deque
from heapq import heappop, heappush
from typing import List, Optional

from repro.sim.buffer import _NEVER
from repro.sim.engine import Simulator
from repro.sim.packet import DATA, HopRecord, Packet, get_pool
from repro.units import tx_time_ns

NUM_PRIORITIES = 8

_port_counter = 0

#: per-simulator count of anonymous ports, for the fallback RNG seed —
#: deterministic across runs (unlike the global port_id counter, which
#: keeps incrementing across simulators in one process)
_anon_ports = weakref.WeakKeyDictionary()


def _next_port_id() -> int:
    global _port_counter
    _port_counter += 1
    return _port_counter


def _anon_seed(sim: Simulator) -> str:
    """Fallback ECN-RNG seed for an unnamed port: distinct per port,
    stable across identical runs (a per-simulator construction counter)."""
    n = _anon_ports.get(sim, 0) + 1
    _anon_ports[sim] = n
    return f"port#{n}"


class EcnConfig:
    """RED-style ECN marking thresholds on the instantaneous queue.

    ``kmin == kmax`` degenerates to the DCTCP step mark at threshold K.
    Otherwise the marking probability ramps linearly from 0 at ``kmin``
    to ``pmax`` at ``kmax`` and is 1 above ``kmax`` (DCQCN's configuration).
    """

    __slots__ = ("kmin", "kmax", "pmax")

    def __init__(self, kmin: int, kmax: int, pmax: float):
        if kmin > kmax:
            raise ValueError(f"kmin {kmin} > kmax {kmax}")
        if not 0.0 <= pmax <= 1.0:
            raise ValueError(f"pmax must be in [0,1], got {pmax}")
        self.kmin = kmin
        self.kmax = kmax
        self.pmax = pmax

    @staticmethod
    def step(threshold: int) -> "EcnConfig":
        """DCTCP-style deterministic marking above ``threshold`` bytes."""
        return EcnConfig(threshold, threshold, 1.0)

    def should_mark(self, qlen: int, rng: random.Random) -> bool:
        """Marking decision for a packet arriving to a queue of ``qlen`` bytes."""
        if qlen <= self.kmin:
            return False
        if qlen >= self.kmax:
            return True
        fraction = (qlen - self.kmin) / (self.kmax - self.kmin)
        return rng.random() < fraction * self.pmax


class EgressPort:
    """One serializing output port.

    Parameters
    ----------
    sim:
        the event engine.
    rate_bps:
        line rate in bits per second.
    prop_delay_ns:
        one-way propagation delay of the attached link.
    peer:
        object with a ``receive(packet)`` method (a Switch or Host); may be
        attached later via :meth:`connect`.
    buffer:
        optional shared switch buffer enforcing Dynamic Thresholds.  Ports
        without a buffer (host NICs) never drop.
    ecn:
        optional ECN marking configuration applied to ECN-capable packets.
    int_stamping:
        whether this port appends INT records to INT-enabled packets.
    record_queuing:
        when True, per-packet queueing delays are appended to
        ``queuing_delays_ns`` (used for the Fig. 8b tail-latency metric).
    """

    __slots__ = (
        "sim",
        "rate_bps",
        "prop_delay_ns",
        "peer",
        "buffer",
        "ecn",
        "int_stamping",
        "name",
        "port_id",
        "rng",
        "queues",
        "qlen_bytes",
        "tx_bytes",
        "busy",
        "paused",
        "drops",
        "marks",
        "max_qlen_bytes",
        "record_queuing",
        "queuing_delays_ns",
        "_nonempty",
        "_pool",
        "_ser_cache",
        "_deliver",
        "_finish_cb",
    )

    def __new__(cls, sim: Simulator, *args, **kwargs):
        # Packet-train batching is fixed per simulator, so a plain port
        # built on a batching simulator is a TrainPort.  Subclasses
        # (CircuitPort) keep the per-packet bodies below.
        if cls is EgressPort and getattr(sim, "tx_batch_limit", 1) > 1:
            cls = TrainPort
        return object.__new__(cls)

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        prop_delay_ns: int,
        *,
        peer=None,
        buffer=None,
        ecn: Optional[EcnConfig] = None,
        int_stamping: bool = False,
        name: str = "",
        rng: Optional[random.Random] = None,
        record_queuing: bool = False,
    ):
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        if prop_delay_ns < 0:
            raise ValueError(f"negative propagation delay: {prop_delay_ns}")
        self.sim = sim
        self.rate_bps = rate_bps
        self.prop_delay_ns = prop_delay_ns
        self.peer = peer
        self.buffer = buffer
        self.ecn = ecn
        self.int_stamping = int_stamping
        self.name = name
        self.port_id = _next_port_id()
        # The RNG (ECN marking decisions) is seeded from the *name*, which
        # is stable across runs; the global port_id counter is not, and
        # seeding from it would make identical runs diverge.  Unnamed
        # ports fall back to a per-simulator construction counter, so two
        # anonymous ports never share a mark sequence.
        self.rng = rng if rng is not None else random.Random(name or _anon_seed(sim))
        self.queues: List[deque] = [deque() for _ in range(NUM_PRIORITIES)]
        self.qlen_bytes = 0
        self.tx_bytes = 0
        self.busy = False
        self.paused = False
        self.drops = 0
        self.marks = 0
        self.max_qlen_bytes = 0
        self.record_queuing = record_queuing
        self.queuing_delays_ns = array("q")
        self._nonempty = 0  # bitmask of non-empty priority queues
        self._pool = get_pool(sim)
        #: serialization-time memo: packet size -> ns at this port's rate
        #: (the rate is fixed for the port's lifetime)
        self._ser_cache = {}
        #: cached bound methods for the per-packet events — recreating a
        #: bound method per heappush is a measurable allocation on the
        #: hot path
        self._deliver = peer.receive if peer is not None else None
        self._finish_cb = self._finish_tx

    # ------------------------------------------------------------------
    def connect(self, peer, prop_delay_ns: Optional[int] = None) -> None:
        """Attach the downstream node, optionally overriding the link delay."""
        self.peer = peer
        self._deliver = peer.receive if peer is not None else None
        if prop_delay_ns is not None:
            self.prop_delay_ns = prop_delay_ns

    # ------------------------------------------------------------------
    # Enqueue path
    # ------------------------------------------------------------------
    def enqueue(self, pkt: Packet) -> bool:
        """Admit a packet; returns False if it was dropped.

        DT admission (when a shared buffer is attached) only polices DATA
        packets — small control packets (ACK/CNP/grant) are always admitted,
        mirroring how RDMA deployments protect control traffic.
        """
        size = pkt.size
        buffer = self.buffer
        if buffer is not None:
            # Inlined SharedBuffer.admits / on_enqueue / on_drop — one
            # call per enqueue on every switch port.
            if pkt.kind == DATA:
                used = buffer.used
                if (
                    used + size > buffer.capacity
                    or self.qlen_bytes >= buffer.alpha * (buffer.capacity - used)
                ):
                    self.drops += 1
                    buffer.drops += 1
                    return False
            buffer.used += size
            buffer.total_admitted += size
            # Control packets bypass DT admission, so the shared-memory
            # invariant still needs its (stripped-with--O) safety net.
            assert buffer.used <= buffer.capacity, "shared buffer overflow"

        ecn = self.ecn
        if ecn is not None and pkt.ecn_capable and self.qlen_bytes > ecn.kmin:
            # qlen <= kmin is should_mark's no-RNG fast reject — checking
            # it here skips the call for the uncongested common case.
            if ecn.should_mark(self.qlen_bytes, self.rng):
                pkt.ecn_marked = True
                self.marks += 1

        pkt.enqueue_ts = self.sim.now
        priority = pkt.priority
        self.queues[priority].append(pkt)
        self._nonempty |= 1 << priority
        qlen = self.qlen_bytes + size
        self.qlen_bytes = qlen
        if qlen > self.max_qlen_bytes:
            self.max_qlen_bytes = qlen
        if not self.busy and not self.paused:
            self._start_tx()
        return True

    # ------------------------------------------------------------------
    # Dequeue path
    # ------------------------------------------------------------------
    def _pop_next(self) -> Optional[Packet]:
        # Strict priority without scanning empty queues: the lowest set
        # bit of the nonempty mask is the highest-priority backlogged queue.
        mask = self._nonempty
        if not mask:
            return None
        priority = (mask & -mask).bit_length() - 1
        queue = self.queues[priority]
        pkt = queue.popleft()
        if not queue:
            self._nonempty = mask & (mask - 1)  # clear the lowest set bit
        return pkt

    def _stamp_qlen(self, pkt: Packet) -> int:
        """Queue length reported in INT records.

        A subclass hook: the base-class hot path inlines the plain
        ``qlen_bytes`` read, so VOQ ports (``CircuitPort``) override
        :meth:`_start_tx` wholesale and route through this hook there.
        """
        return self.qlen_bytes

    def _start_tx(self) -> None:
        # The per-packet hot path: the strict-priority pop, the INT stamp,
        # and the finish-event push are all inlined (no _pop_next /
        # _stamp_qlen / sim.at indirection) — this method and _finish_tx
        # execute once per packet per hop, millions of times per run.
        mask = self._nonempty
        if not mask:
            return
        priority = (mask & -mask).bit_length() - 1
        queue = self.queues[priority]
        pkt = queue.popleft()
        if not queue:
            self._nonempty = mask & (mask - 1)  # clear the lowest set bit
        self.busy = True
        size = pkt.size
        qlen = self.qlen_bytes - size
        self.qlen_bytes = qlen
        sim = self.sim
        now = sim.now
        tx_bytes = self.tx_bytes + size
        self.tx_bytes = tx_bytes
        if self.int_stamping and pkt.int_enabled:
            hops = pkt.int_hops
            if hops is None:
                hops = pkt.int_hops = []
            # inlined PacketPool.hop (one call per data packet per
            # stamping hop adds up)
            free = self._pool._hops
            if free:
                hop = free.pop()
                hop.qlen = qlen
                hop.ts_ns = now
                hop.tx_bytes = tx_bytes
                hop.bandwidth_bps = self.rate_bps
                hop.port_id = self.port_id
            else:
                hop = HopRecord(qlen, now, tx_bytes, self.rate_bps, self.port_id)
            hops.append(hop)
        if self.record_queuing and pkt.kind == DATA:
            self.queuing_delays_ns.append(now - pkt.enqueue_ts)
        cache = self._ser_cache
        try:
            ser = cache[size]
        except KeyError:
            ser = cache[size] = tx_time_ns(size, self.rate_bps)
        # Two heap events per hop, both on the engine's allocation-free
        # tuple fast path: _finish_tx frees the transmitter at the end of
        # serialization, then schedules the delivery at the peer.  The
        # delivery is deliberately *not* scheduled here at _start_tx time:
        # its heap sequence number would shift by one serialization time,
        # flipping same-nanosecond tie-breaks between ports with unequal
        # packet sizes/rates — and the fig4/6/7 series are bit-exact
        # regression guardrails.
        heappush(sim._heap, (now + ser, next(sim._seq), self._finish_cb, (pkt,)))
        sim._live += 1

    def _finish_tx(self, pkt: Packet) -> None:
        buffer = self.buffer
        if buffer is not None:
            buffer.used -= pkt.size  # inlined SharedBuffer.on_dequeue
            assert buffer.used >= 0, "shared buffer underflow"
        deliver = self._deliver
        if deliver is not None:
            sim = self.sim
            heappush(
                sim._heap,
                (sim.now + self.prop_delay_ns, next(sim._seq), deliver, (pkt,)),
            )
            sim._live += 1
        self.busy = False
        if not self.paused and self.qlen_bytes > 0:
            self._start_tx()

    # ------------------------------------------------------------------
    # Pause / resume (used by the circuit port during "nights")
    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Stop starting new transmissions (the in-flight one completes)."""
        self.paused = True

    def resume(self) -> None:
        """Resume draining the queues."""
        self.paused = False
        if not self.busy and self.qlen_bytes > 0:
            self._start_tx()

    # ------------------------------------------------------------------
    @property
    def utilization_bytes(self) -> int:
        """Cumulative bytes transmitted (basis of throughput sampling)."""
        return self.tx_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EgressPort({self.name or self.port_id}, "
            f"{self.rate_bps/1e9:g}Gbps, qlen={self.qlen_bytes}B)"
        )


class TrainPort(EgressPort):
    """An :class:`EgressPort` that serializes packet trains.

    ``EgressPort.__new__`` builds this class for every plain port of a
    ``Simulator(tx_batch_limit=n)`` with ``n > 1``.  When the transmitter
    is free, up to ``n`` back-to-back same-priority packets are committed
    as one *train* — per-packet finish events are elided entirely.  Each
    packet keeps its own serialization start time for INT/queuing-delay
    stamps, its own Dynamic-Thresholds buffer release (deferred to its
    individual finish time and flushed at every admission decision
    point), and its own delivery event at ``finish_i + prop_delay`` — all
    committed up front at train start.  The transmitter state is a
    ``_free_at`` timestamp instead of the ``busy`` flag + finish event
    (``busy`` stays False).  :meth:`_start_tx` keeps its meaning — "the
    transmitter may have work" — and checks ``_free_at`` itself, so the
    inherited :meth:`EgressPort.resume` serves both classes.

    An arrival during serialization with empty queues, matching priority,
    and train budget left *extends* the in-flight train in place —
    committed immediately with its serialization start at the train's
    current end, no queueing and no extra event (same-priority FIFO
    extension keeps departure order exact; only timing granularity is
    approximated, bounded by the train length like every other batching
    effect).  Arrivals that cannot extend (backlog, other priority, or
    budget exhausted) queue up and arm a single *wake* event at the train
    end, so work conservation is preserved with at most one event per
    train where the unbatched path pays one per packet.

    A PFC pause arriving mid-train truncates it: packets whose
    serialization had not started by the pause instant are returned to
    the queue front with qlen/tx/buffer/INT accounting undone and their
    delivery events un-scheduled (``Simulator._remove_entries`` —
    O(heap), acceptable because pauses are rare).  The per-packet train
    entries truncation needs are kept only when
    ``Simulator.pause_tracking`` is on (the PFC controller enables it;
    nothing else in the paper's scenarios pauses ports mid-run).

    The approximation relative to ``n == 1`` is only in *interleaving*:
    mid-train arrivals cannot preempt at packet boundaries and see the
    port's post-train queue length, so results are deterministic per
    configuration but not bit-identical across batching settings.  Elided
    per-packet completions are added back into
    ``Simulator.events_processed`` (see ``Simulator.events_coalesced``),
    so event counts stay comparable across configurations (up to the
    wake events, a few percent).
    """

    __slots__ = (
        "_batch_limit",
        "_train",
        "_train_prio",
        "_train_n",
        "_free_at",
        "_wake_armed",
        "_wake_cb",
    )

    def __init__(self, sim: Simulator, *args, **kwargs):
        super().__init__(sim, *args, **kwargs)
        #: packets per train; fixed per simulator so every port of a run
        #: agrees
        self._batch_limit = sim.tx_batch_limit
        #: last committed train: list of (pkt, start_ns, finish_ns, hop,
        #: qdelay, delivery_entry) tuples, kept only so a PFC pause
        #: before ``_free_at`` can truncate it (stale afterwards)
        self._train = None
        self._train_prio = 0
        #: packets committed to the in-flight train (extension budget)
        self._train_n = 0
        #: transmitter-free timestamp — the substitute for the ``busy``
        #: flag + finish event
        self._free_at = 0
        #: whether a wake event is pending at ``_free_at``
        self._wake_armed = False
        self._wake_cb = self._wake

    def enqueue(self, pkt: Packet) -> bool:
        """:meth:`EgressPort.enqueue` with the train commit paths."""
        size = pkt.size
        sim = self.sim
        now = sim.now
        buffer = self.buffer
        if buffer is not None:
            # Train batching defers releases; flush the due ones so the
            # DT admission below sees the exact occupancy.  The sentinel
            # keeps this to one compare when no release has come due;
            # the flush itself is inlined from SharedBuffer.release_due
            # (packed-int entries) — it fires on a large fraction of
            # enqueues under sustained load.
            if now >= buffer._next_release:
                deferred = buffer._deferred
                used = buffer.used
                release_limit = ((now + 1) << 20) - 1
                while deferred and deferred[0] <= release_limit:
                    used -= heappop(deferred) & 0xFFFFF
                buffer.used = used
                buffer._next_release = (
                    (deferred[0] >> 20) if deferred else _NEVER
                )
            # Inlined SharedBuffer.admits / on_enqueue / on_drop.
            if pkt.kind == DATA:
                used = buffer.used
                if (
                    used + size > buffer.capacity
                    or self.qlen_bytes >= buffer.alpha * (buffer.capacity - used)
                ):
                    self.drops += 1
                    buffer.drops += 1
                    return False
            buffer.used += size
            buffer.total_admitted += size
            assert buffer.used <= buffer.capacity, "shared buffer overflow"

        ecn = self.ecn
        if ecn is not None and pkt.ecn_capable and self.qlen_bytes > ecn.kmin:
            if ecn.should_mark(self.qlen_bytes, self.rng):
                pkt.ecn_marked = True
                self.marks += 1

        if not self._nonempty and not self.paused:
            # The hot paths, both skipping the deque append/pop
            # round-trip and the priority-mask updates:
            # * port free -> fused single-packet train (start = now);
            # * port serializing a train, queues empty, same priority,
            #   extension budget left -> extend the in-flight train
            #   (start = its current end).  Committing at arrival instead
            #   of waking at the train boundary elides the wake event for
            #   the dominant steady-state continuation; same-priority
            #   FIFO extension keeps departure *order* exact, and the
            #   commit-ahead horizon stays bounded by tx_batch_limit.
            if now >= self._free_at:
                start = now
                fresh = True
            elif (
                pkt.priority == self._train_prio
                and self._train_n < self._batch_limit
            ):
                start = self._free_at
                fresh = False
            else:
                start = -1
            if start >= 0:
                # qlen is 0 throughout: empty queues (the mask/byte-count
                # invariant) and the committed train's bytes are already
                # deducted.
                tx_bytes = self.tx_bytes + size
                self.tx_bytes = tx_bytes
                cache = self._ser_cache
                try:
                    ser = cache[size]
                except KeyError:
                    ser = cache[size] = tx_time_ns(size, self.rate_bps)
                t = start + ser
                if size > self.max_qlen_bytes:
                    self.max_qlen_bytes = size
                hop = None
                if self.int_stamping and pkt.int_enabled:
                    hops = pkt.int_hops
                    if hops is None:
                        hops = pkt.int_hops = []
                    # inlined PacketPool.hop (one call per data packet
                    # per stamping hop adds up)
                    free = self._pool._hops
                    if free:
                        hop = free.pop()
                        hop.qlen = 0
                        hop.ts_ns = start
                        hop.tx_bytes = tx_bytes
                        hop.bandwidth_bps = self.rate_bps
                        hop.port_id = self.port_id
                    else:
                        hop = HopRecord(
                            0, start, tx_bytes, self.rate_bps, self.port_id
                        )
                    hops.append(hop)
                qdelay = -1
                if self.record_queuing and pkt.kind == DATA:
                    # a fused packet serializes on arrival (zero wait); an
                    # extension packet waits for the committed train's end
                    qdelay = start - now
                    self.queuing_delays_ns.append(qdelay)
                if buffer is not None:
                    # inlined SharedBuffer.defer_release (packed-int entry)
                    heappush(buffer._deferred, (t << 20) | size)
                    if t < buffer._next_release:
                        buffer._next_release = t
                dentry = None
                deliver = self._deliver
                if deliver is not None:
                    dentry = (t + self.prop_delay_ns, next(sim._seq), deliver, (pkt,))
                    heappush(sim._heap, dentry)
                    sim._live += 1
                if fresh:
                    self._train_n = 1
                    self._train_prio = pkt.priority
                    if sim.pause_tracking:
                        # Arrival time is only re-read if a truncation
                        # returns this packet to the queue — so the
                        # store is needed (and paid) only under tracking.
                        pkt.enqueue_ts = now
                        self._train = [(pkt, start, t, hop, qdelay, dentry)]
                    else:
                        self._train = None
                else:
                    self._train_n += 1
                    if self._train is not None:
                        pkt.enqueue_ts = now
                        self._train.append((pkt, start, t, hop, qdelay, dentry))
                self._free_at = t
                sim.events_coalesced += 1
                return True
        pkt.enqueue_ts = now
        priority = pkt.priority
        self.queues[priority].append(pkt)
        self._nonempty |= 1 << priority
        qlen = self.qlen_bytes + size
        self.qlen_bytes = qlen
        if qlen > self.max_qlen_bytes:
            self.max_qlen_bytes = qlen
        # The steady backlogged case — mid-train with the wake already
        # armed — needs nothing more, so skip the call.
        if not self.paused and (now >= self._free_at or not self._wake_armed):
            self._start_tx()
        return True

    def _start_tx(self) -> None:
        # Start a train if the port is free, otherwise make sure a wake
        # event is pending at the in-flight train's end.
        sim = self.sim
        if sim.now >= self._free_at:
            self._start_train()
        elif not self._wake_armed:
            self._wake_armed = True
            heappush(sim._heap, (self._free_at, next(sim._seq), self._wake_cb, ()))
            sim._live += 1

    def _start_train(self) -> None:
        # Batched equivalent of EgressPort._start_tx: pop up to _batch_limit
        # back-to-back same-priority packets and commit the whole train
        # up front — INT hops, queuing delays, deferred buffer releases,
        # and per-packet delivery events — with *no* finish event at all.
        # The train entries are kept until _free_at only so a PFC pause
        # can truncate (see the class docstring for semantics).
        mask = self._nonempty
        if not mask:
            return
        sim = self.sim
        now = sim.now
        buffer = self.buffer
        if buffer is not None and now >= buffer._next_release:
            buffer.release_due(now)
        low = mask & -mask
        priority = low.bit_length() - 1
        queue = self.queues[priority]
        if mask == low and len(queue) == 1:
            # Single-packet fast path — the dominant shape under
            # paper-typical congestion control (near-empty queues): no
            # wake (no backlog remains), and a train entry is kept only
            # under pause tracking (later *extensions* of this train may
            # need to be truncated; the first packet itself never is).
            pkt = queue.popleft()
            self._nonempty = 0
            size = pkt.size
            # qlen after the pop is 0: this was the only queued packet.
            self.qlen_bytes = 0
            tx_bytes = self.tx_bytes + size
            self.tx_bytes = tx_bytes
            cache = self._ser_cache
            try:
                ser = cache[size]
            except KeyError:
                ser = cache[size] = tx_time_ns(size, self.rate_bps)
            t = now + ser
            hop = None
            if self.int_stamping and pkt.int_enabled:
                hops = pkt.int_hops
                if hops is None:
                    hops = pkt.int_hops = []
                # inlined PacketPool.hop, as on the fused enqueue path
                free = self._pool._hops
                if free:
                    hop = free.pop()
                    hop.qlen = 0
                    hop.ts_ns = now
                    hop.tx_bytes = tx_bytes
                    hop.bandwidth_bps = self.rate_bps
                    hop.port_id = self.port_id
                else:
                    hop = HopRecord(0, now, tx_bytes, self.rate_bps, self.port_id)
                hops.append(hop)
            qdelay = -1
            if self.record_queuing and pkt.kind == DATA:
                qdelay = now - pkt.enqueue_ts
                self.queuing_delays_ns.append(qdelay)
            if buffer is not None:
                # inlined SharedBuffer.defer_release (packed-int entry)
                heappush(buffer._deferred, (t << 20) | size)
                if t < buffer._next_release:
                    buffer._next_release = t
            dentry = None
            deliver = self._deliver
            if deliver is not None:
                dentry = (t + self.prop_delay_ns, next(sim._seq), deliver, (pkt,))
                heappush(sim._heap, dentry)
                sim._live += 1
            self._train_n = 1
            self._train_prio = priority
            if sim.pause_tracking:
                self._train = [(pkt, now, t, hop, qdelay, dentry)]
            else:
                self._train = None
            self._free_at = t
            sim.events_coalesced += 1
            return
        limit = self._batch_limit
        prop = self.prop_delay_ns
        pool = self._pool
        stamping = self.int_stamping
        recording = self.record_queuing
        qlen = self.qlen_bytes
        tx_bytes = self.tx_bytes
        ser_cache = self._ser_cache
        rate = self.rate_bps
        port_id = self.port_id
        deliver = self._deliver
        delays = self.queuing_delays_ns
        seq = sim._seq
        heap = sim._heap
        # Per-packet train entries exist only so a mid-train pause can
        # truncate; nothing in the paper's macro scenarios pauses ports,
        # so the bookkeeping is opt-in (Simulator.pause_tracking, set by
        # the PFC controller) and skipped otherwise.
        train = [] if sim.pause_tracking else None
        t = now
        pushed = 0
        n = 0
        while True:
            pkt = queue.popleft()
            size = pkt.size
            qlen -= size
            tx_bytes += size
            ser = ser_cache.get(size)
            if ser is None:
                ser = ser_cache[size] = tx_time_ns(size, rate)
            start = t
            t += ser
            hop = None
            if stamping and pkt.int_enabled:
                # Same values the unbatched path stamps at this packet's
                # serialization start (qlen excludes packets ahead of it
                # in the train; tx_bytes includes it and everything ahead).
                hop = pool.hop(qlen, start, tx_bytes, rate, port_id)
                hops = pkt.int_hops
                if hops is None:
                    hops = pkt.int_hops = []
                hops.append(hop)
            qdelay = -1
            if recording and pkt.kind == DATA:
                qdelay = start - pkt.enqueue_ts
                delays.append(qdelay)
            if buffer is not None:
                # inlined SharedBuffer.defer_release (packed-int entry)
                heappush(buffer._deferred, (t << 20) | size)
                if t < buffer._next_release:
                    buffer._next_release = t
            dentry = None
            if deliver is not None:
                dentry = (t + prop, next(seq), deliver, (pkt,))
                heappush(heap, dentry)
                pushed += 1
            n += 1
            if train is not None:
                train.append((pkt, start, t, hop, qdelay, dentry))
            if not queue:
                self._nonempty = mask & (mask - 1)  # clear the lowest set bit
                break
            if n >= limit:
                break
        self.qlen_bytes = qlen
        self.tx_bytes = tx_bytes
        self._train = train
        self._train_prio = priority
        self._train_n = n
        self._free_at = t
        # Backlog left behind (train cut at the limit, or another
        # priority is queued): arm the wake so the next train starts at
        # this one's end — the one event per train that replaces the
        # unbatched path's one finish event per packet.
        if self._nonempty and not self._wake_armed:
            self._wake_armed = True
            heappush(heap, (t, next(seq), self._wake_cb, ()))
            pushed += 1
        sim._live += pushed
        # Elided-event accounting: each packet's finish event would have
        # been one processed event on the unbatched path.  Folding them
        # back in (events_processed sums both counters) keeps the perf
        # suite's events/sec comparable across batch limits.
        sim.events_coalesced += n

    def _wake(self) -> None:
        # The elided finish event's only remaining job: start the next
        # train when packets arrived mid-serialization or a backlog was
        # left at the batch limit.  Superseded silently if a pause,
        # truncation, or same-nanosecond enqueue got there first.
        self._wake_armed = False
        if (
            not self.paused
            and self.qlen_bytes > 0
            and self.sim.now >= self._free_at
        ):
            self._start_train()

    def _truncate_train(self) -> None:
        # PFC pause mid-train: packets whose serialization had not
        # started by now go back to the queue front with qlen/tx/buffer
        # accounting undone, their INT hops detached, their queuing-delay
        # samples dropped, and their delivery events un-scheduled.
        train = self._train
        sim = self.sim
        now = sim.now
        cut = len(train)
        while cut > 0 and train[cut - 1][1] > now:
            cut -= 1
        # cut >= 1 always: the first packet starts at train start <= now.
        if cut == len(train):
            return  # every packet already started; nothing to undo
        buffer = self.buffer
        pool = self._pool
        queue = self.queues[self._train_prio]
        qlen = self.qlen_bytes
        tx_bytes = self.tx_bytes
        delays = self.queuing_delays_ns
        removed = []
        for pkt, _start, finish, hop, qdelay, dentry in reversed(train[cut:]):
            queue.appendleft(pkt)
            size = pkt.size
            qlen += size
            tx_bytes -= size
            if hop is not None:
                pkt.int_hops.pop()
                pool.recycle_hop(hop)
            if qdelay >= 0:
                delays.pop()
            if buffer is not None:
                buffer.cancel_deferred(finish, size)
            if dentry is not None:
                removed.append(dentry)
        if removed:
            sim._remove_entries(removed)
        returned = len(train) - cut
        sim.events_coalesced -= returned
        self._train_n -= returned
        self.qlen_bytes = qlen
        self.tx_bytes = tx_bytes
        self._nonempty |= 1 << self._train_prio
        del train[cut:]
        self._free_at = train[-1][2]

    def pause(self) -> None:
        """Stop starting new trains.

        With ``Simulator.pause_tracking`` enabled (the PFC controller
        does this), packets of the committed train that have not started
        serializing yet return to the queue — the pause boundary stays
        packet-granular, exactly like the unbatched port.  Without
        tracking, a pause takes effect at the end of the committed train
        (at most ``tx_batch_limit`` packets later).
        """
        self.paused = True
        if self._train is not None and self.sim.now < self._free_at:
            self._truncate_train()
