"""HOMA (Montazeri et al., SIGCOMM 2018) — receiver-driven transport.

The paper's representative of the receiver-driven school.  The model here
keeps the two mechanisms HOMA's behaviour in the paper's evaluation hinges
on:

* **unscheduled data** — the first ``RTTbytes`` of every message leave at
  line rate immediately (this is what builds ToR queues under incast);
* **receiver grants with overcommitment** — each receiver paces grants at
  its downlink rate to the ``overcommitment`` smallest-remaining messages
  (SRPT), keeping at most one BDP granted-but-undelivered per message.
  Overcommitment > 1 admits more traffic than the downlink can carry,
  trading latency for utilization (Figs. 9-11 sweep levels 1-6).

Packets carry priorities served by the switches' 8-level priority queues:
grants ride the highest priority, unscheduled data above scheduled data,
and scheduled data is ranked by the receiver (smaller remaining = higher
priority).

What is intentionally *not* modeled (documented substitution): HOMA's
priority-cutoff learning and its RESEND/timeout machinery — reliability
reuses the simulator's cumulative-ACK/go-back-N transport, which does not
change queue dynamics at the bottleneck.

Per the paper's configuration, ``RTTbytes = HostBw * base_rtt`` and the
best overcommitment level in their setup was 1.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, nsmallest
from typing import Dict, Iterable, List, Tuple

from repro.cc.registry import (
    HOMA_TRANSPORT,
    Requirements,
    register_algorithm,
)
from repro.sim.engine import Simulator
from repro.sim.host import Host
from repro.sim.packet import DATA, GRANT, Packet, get_pool
from repro.transport.flow import Flow
from repro.transport.receiver import Receiver
from repro.transport.sender import Sender
from repro.units import tx_time_ns

register_algorithm(
    "homa",
    requirements=Requirements(transport=HOMA_TRANSPORT),
    params=("overcommitment",),
    description="HOMA: receiver-driven grants with overcommitment",
)

PRIO_CONTROL = 0
PRIO_UNSCHED_SMALL = 1
PRIO_UNSCHED_LARGE = 2
PRIO_SCHED_BASE = 3
PRIO_LOWEST = 7


class HomaSender(Sender):
    """Message sender: unscheduled prefix at line rate, then grant-gated."""

    def __init__(self, *args, rtt_bytes: int, **kwargs):
        super().__init__(*args, **kwargs)
        self.rtt_bytes = rtt_bytes
        self.granted = min(self.flow.size_bytes, rtt_bytes)
        # No congestion window: HOMA performs no sender-side CC.
        self.cwnd = float("inf")
        self.pacing_rate_bps = self.host_bw_bps
        # Priority changes between unscheduled and scheduled data can
        # reorder packets of one message in the fabric; HOMA tolerates
        # reordering (the receiver buffers), so duplicate-ACK rewind is
        # disabled and recovery relies on the RTO.
        self.dup_ack_threshold = 10 ** 9
        self.priority = (
            PRIO_UNSCHED_SMALL
            if self.flow.size_bytes <= rtt_bytes
            else PRIO_UNSCHED_LARGE
        )

    def _send_limit(self) -> int:
        return min(self.flow.size_bytes, self.granted)

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind == GRANT:
            if pkt.grant_bytes > self.granted:
                self.granted = pkt.grant_bytes
                self.priority = pkt.sched_priority  # receiver-assigned rank
                self._try_send()
            self._pool.release(pkt)
            return
        super().on_packet(pkt)


class HomaReceiver(Receiver):
    """Message receiver: feeds the per-host grant scheduler.

    Unlike the go-back-N base receiver, HOMA buffers out-of-order
    segments: priority changes legitimately reorder a message's packets in
    flight, and discarding them would misattribute loss.
    """

    def __init__(self, *args, scheduler: "HomaGrantScheduler", rtt_bytes: int, **kwargs):
        super().__init__(*args, **kwargs)
        self.scheduler = scheduler
        self.rtt_bytes = rtt_bytes
        self.granted = min(self.flow.size_bytes, rtt_bytes)
        self._ooo_ranges: Dict[int, int] = {}  # seq -> end_seq

    @property
    def remaining_bytes(self) -> int:
        """Bytes still missing (SRPT key)."""
        return self.flow.size_bytes - self.rcv_nxt

    @property
    def needs_grant(self) -> bool:
        """True while some suffix of the message is ungranted."""
        return self.granted < self.flow.size_bytes

    def start(self) -> None:
        super().start()
        if self.needs_grant:
            self.scheduler.add(self)

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind == DATA and pkt.seq > self.rcv_nxt:
            # Buffer the out-of-order range, then let the base class send
            # its (duplicate) cumulative ACK.
            end = self._ooo_ranges.get(pkt.seq, 0)
            if pkt.end_seq > end:
                self._ooo_ranges[pkt.seq] = pkt.end_seq
        before = self.rcv_nxt
        super().on_packet(pkt)
        self._absorb_buffered()
        if self.flow.finish_ns is not None:
            self.scheduler.remove(self)
        elif self.needs_grant:
            if self.rcv_nxt != before:
                self.scheduler.reranked(self)
            self.scheduler.poke()

    def _absorb_buffered(self) -> None:
        """Advance rcv_nxt through any now-contiguous buffered ranges."""
        advanced = True
        while advanced and self._ooo_ranges:
            advanced = False
            for seq in sorted(self._ooo_ranges):
                if seq > self.rcv_nxt:
                    break
                end = self._ooo_ranges.pop(seq)
                if end > self.rcv_nxt:
                    self.rcv_nxt = end
                    advanced = True
        if self.rcv_nxt > self.flow.bytes_received:
            self.flow.bytes_received = self.rcv_nxt
        if (
            self.rcv_nxt >= self.flow.size_bytes
            and self.flow.finish_ns is None
        ):
            self.flow.finish_ns = self.sim.now
            if self.on_complete is not None:
                self.on_complete(self.flow)


def _srpt_key(receiver: HomaReceiver):
    # (remaining_bytes, flow id), spelled out: this runs once per active
    # message per grant tick, and the property call doubles its cost.
    flow = receiver.flow
    return flow.size_bytes - receiver.rcv_nxt, flow.flow_id


def srpt_first(receivers: Iterable[HomaReceiver], k: int) -> List[HomaReceiver]:
    """The ``k`` highest-ranked messages, best first.

    SRPT with a deterministic flow-id tiebreak, so equal-remaining
    messages are served round-robin-stably rather than arbitrarily.
    Equal to ``sorted(receivers, key=...)[:k]``.  This is the definition;
    the pacer keeps the same order incrementally
    (:meth:`HomaGrantScheduler._candidates`) and the tests hold it to
    this function grant for grant.
    """
    return nsmallest(k, receivers, key=_srpt_key)


class HomaGrantScheduler:
    """Per-host grant pacer with SRPT ranking and overcommitment.

    Every ``tick`` (one MTU at downlink rate) one grant of one MTU is
    issued to the highest-ranked message among the ``overcommitment``
    smallest-remaining active messages that still has grant headroom
    (granted − received < RTTbytes).
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        *,
        overcommitment: int = 1,
        mtu_payload: int = 1000,
    ):
        if overcommitment < 1:
            raise ValueError(f"overcommitment must be >= 1, got {overcommitment}")
        self.sim = sim
        self.host = host
        self.overcommitment = overcommitment
        self.mtu_payload = mtu_payload
        self.active: Dict[int, HomaReceiver] = {}
        #: heap of ``_srpt_key`` entries: the current key of every active
        #: message, plus keys that went stale when their message received
        #: more data (skipped when they surface, swept when they pile up)
        self._ranked: List[Tuple[int, int]] = []
        self.grants_sent = 0
        self._tick_ns = tx_time_ns(mtu_payload + 48, host.nic.rate_bps)
        self._running = False
        self._pool = get_pool(sim)

    # ------------------------------------------------------------------
    def add(self, receiver: HomaReceiver) -> None:
        """Track a new incoming message that will need grants."""
        self.active[receiver.flow.flow_id] = receiver
        heappush(self._ranked, _srpt_key(receiver))
        self.poke()

    def reranked(self, receiver: HomaReceiver) -> None:
        """``receiver.rcv_nxt`` advanced: file its new, smaller key."""
        ranked = self._ranked
        heappush(ranked, _srpt_key(receiver))
        if len(ranked) > 2 * len(self.active) + 64:
            ranked[:] = map(_srpt_key, self.active.values())
            heapify(ranked)

    def remove(self, receiver: HomaReceiver) -> None:
        """Stop tracking a completed (or fully granted) message."""
        self.active.pop(receiver.flow.flow_id, None)

    def poke(self) -> None:
        """Ensure the grant pacer is running while work exists."""
        if not self._running and self.active:
            self._running = True
            self.sim.after(self._tick_ns, self._tick)

    # ------------------------------------------------------------------
    def _candidates(self) -> List[HomaReceiver]:
        """``srpt_first(self.active.values(), self.overcommitment)``
        without keying every active message once per MTU time: pop until
        ``overcommitment`` current keys have surfaced, then put those
        back."""
        ranked = self._ranked
        active = self.active
        current = []
        while ranked and len(current) < self.overcommitment:
            key = heappop(ranked)
            receiver = active.get(key[1])
            if receiver is not None and key == _srpt_key(receiver):
                current.append(key)
        for key in current:
            heappush(ranked, key)
        return [active[flow_id] for _, flow_id in current]

    def _tick(self) -> None:
        self._running = False
        if not self.active:
            return
        for rank, receiver in enumerate(self._candidates()):
            if not receiver.needs_grant:
                continue
            outstanding = receiver.granted - receiver.rcv_nxt
            if outstanding >= receiver.rtt_bytes:
                continue
            receiver.granted = min(
                receiver.granted + self.mtu_payload, receiver.flow.size_bytes
            )
            priority = min(PRIO_SCHED_BASE + rank, PRIO_LOWEST)
            grant = self._pool.grant(
                receiver.flow.flow_id,
                receiver.flow.dst,
                receiver.flow.src,
                receiver.granted,
                sched_priority=priority,
            )
            self.host.send(grant)
            self.grants_sent += 1
            if not receiver.needs_grant:
                self.remove(receiver)
            break  # one grant per tick: grants are paced at downlink rate
        if self.active:
            self._running = True
            self.sim.after(self._tick_ns, self._tick)
