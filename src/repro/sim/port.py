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

There is one transmit path: ``enqueue`` / ``_start_tx`` / ``_finish_tx``
push straight onto the simulator's one event heap, the transmitter state
is the ``busy`` flag plus one finish event per packet, and shared-buffer
memory is released in ``_finish_tx`` — so ``buffer.used``, the INT
stamps and a pause boundary are exact at every instant.
"""

from __future__ import annotations

import random
import weakref
from collections import deque
from heapq import heappush
from typing import Dict, List, Optional

from repro.sim.engine import Simulator
from repro.sim.packet import DATA, HopRecord, Packet, get_pool
from repro.units import tx_time_ns

NUM_PRIORITIES = 8

_port_counter = 0

#: per-simulator count of anonymous ports, for the fallback RNG seed —
#: deterministic across runs (unlike the global port_id counter, which
#: keeps incrementing across simulators in one process)
_anon_ports = weakref.WeakKeyDictionary()

#: serialization-time memo, line rate -> {packet size: ns}.  A pure
#: function of (size, rate), so every port of one rate reads one table —
#: web-search tails put ~1,000 distinct sizes through each of a fat-tree's
#: 64 ports.  Bounded by rates x wire sizes, whatever runs in the process.
_ser_caches: Dict[float, Dict[int, int]] = {}


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
    name:
        stable label; it also seeds the port's ECN generator.  An unnamed
        port is seeded ``port#<n>`` from a per-simulator construction
        counter instead, so identical runs draw identical marks.
    rng:
        optional ECN-marking generator to use instead of the seeded one;
        ``port.rng`` returns whichever applies.
    record_queuing:
        when True, every data packet's queueing delay is counted in
        ``queuing_delays_ns``, a ``delay -> packets`` mapping (the Fig. 8b
        tail-latency metric; :class:`repro.analysis.stats.Distribution`
        reads percentiles off it).  Its size follows the range of delays
        the buffer allows, not the number of packets sent.

    A port costs what it carries: each priority's queue is created by the
    first packet of that priority, and the ECN generator by the first
    marking decision (its seed is fixed at construction, so when other
    ports first mark does not change this port's sequence).
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
        "_rng",
        "_rng_seed",
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
        # anonymous ports never share a mark sequence.  The seed is taken
        # here, so that counter advances in construction order; the
        # generator (2.5 KB of state) is built by the first marking
        # decision (``rng``), which most ports never make.
        self._rng = rng
        self._rng_seed = None if rng is not None else name or _anon_seed(sim)
        #: one FIFO per strict priority, created by the first packet of
        #: that priority (most ports only ever see priority 0)
        self.queues: List[Optional[deque]] = [None] * NUM_PRIORITIES
        self.qlen_bytes = 0
        self.tx_bytes = 0
        self.busy = False
        self.paused = False
        self.drops = 0
        self.marks = 0
        self.max_qlen_bytes = 0
        self.record_queuing = record_queuing
        self.queuing_delays_ns: Dict[int, int] = {}
        self._nonempty = 0  # bitmask of non-empty priority queues
        self._pool = get_pool(sim)
        #: serialization-time memo: packet size -> ns at this port's rate
        #: (the rate is fixed for the port's lifetime)
        self._ser_cache = _ser_caches.setdefault(rate_bps, {})
        #: cached bound methods for the per-packet events — recreating a
        #: bound method per heappush is a measurable allocation on the
        #: hot path
        self._deliver = peer.receive if peer is not None else None
        self._finish_cb = self._finish_tx

    @property
    def rng(self) -> random.Random:
        """The ECN-marking generator, built from its fixed seed on first use."""
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self._rng_seed)
        return rng

    @rng.setter
    def rng(self, rng: random.Random) -> None:
        self._rng = rng

    # ------------------------------------------------------------------
    def connect(self, peer, prop_delay_ns: Optional[int] = None) -> None:
        """Attach the downstream node, optionally overriding the link delay."""
        self.peer = peer
        self._deliver = peer.receive if peer is not None else None
        if prop_delay_ns is not None:
            self.prop_delay_ns = prop_delay_ns

    def close(self) -> None:
        """Run teardown: unlink from the peer and drop the cached callbacks.

        ``_finish_cb`` is a cycle through the port itself and
        ``_deliver``/``peer`` close the cycle over the (bidirectional)
        link.  Counters stay readable.
        """
        self.peer = self._deliver = self._finish_cb = None

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
        queue = self.queues[priority]
        if queue is None:
            queue = self.queues[priority] = deque()
        queue.append(pkt)
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
            delays = self.queuing_delays_ns
            delay = now - pkt.enqueue_ts
            delays[delay] = delays.get(delay, 0) + 1
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
