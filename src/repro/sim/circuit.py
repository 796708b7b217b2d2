"""Optical circuit switching for reconfigurable datacenter networks (§5).

The paper's RDCN case study: ToR switches share one optical circuit switch
that cycles through a fixed permutation schedule.  Each *matching* connects
every ToR to exactly one other ToR for a "day" (circuit on, e.g. 225 µs),
separated by "nights" (reconfiguration, e.g. 20 µs).  Over one "week"
(all matchings) every ToR pair is directly connected exactly once.

Components
----------
* :class:`CircuitSchedule` — pure time arithmetic: which matching is active
  at time *t*, and when the next window for a ToR pair opens.
* :class:`CircuitPort` — a ToR's circuit uplink with per-destination VOQs;
  only the VOQ of the currently-matched ToR drains, at circuit rate.
* :class:`RotorController` — drives day/night transitions on the event loop
  and accounts circuit utilization.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.packet import DATA, Packet
from repro.sim.port import EgressPort
from repro.units import tx_time_ns


class CircuitSchedule:
    """Rotation schedule over ``num_tors`` ToRs.

    The default matchings are cyclic shifts: in matching *m*, ToR *i*'s
    circuit connects to ToR ``(i + m + 1) mod N``, so N-1 matchings cover
    every ordered pair once per week — the paper's "each pair of ToR
    switches has direct connectivity once over a length of 24 matchings"
    with 25 ToRs.

    A slot is night-then-day: reconfiguration happens first, then the
    circuit is up for ``day_ns``.
    """

    def __init__(
        self,
        num_tors: int,
        day_ns: int,
        night_ns: int,
        matchings: Optional[Sequence[Sequence[int]]] = None,
    ):
        if num_tors < 2:
            raise ValueError("need at least two ToRs")
        if day_ns <= 0 or night_ns < 0:
            raise ValueError("day must be positive, night non-negative")
        self.num_tors = num_tors
        self.day_ns = day_ns
        self.night_ns = night_ns
        if matchings is None:
            matchings = [
                [(i + m + 1) % num_tors for i in range(num_tors)]
                for m in range(num_tors - 1)
            ]
        self.matchings: List[Tuple[int, ...]] = [tuple(m) for m in matchings]
        for m, matching in enumerate(self.matchings):
            if sorted(matching) != list(range(num_tors)):
                raise ValueError(f"matching {m} is not a permutation: {matching}")
        self.slot_ns = night_ns + day_ns
        self.period_ns = len(self.matchings) * self.slot_ns
        # Per-ToR lookup: destination ToR -> matching index.
        self._matching_of: List[Dict[int, int]] = []
        for tor in range(num_tors):
            lookup = {}
            for m, matching in enumerate(self.matchings):
                peer = matching[tor]
                if peer != tor:
                    lookup[peer] = m
            self._matching_of.append(lookup)

    # ------------------------------------------------------------------
    def slot_at(self, t_ns: int) -> Tuple[int, bool, int]:
        """Return ``(matching_index, is_day, time_into_phase)`` at ``t_ns``."""
        cycle = t_ns % self.period_ns
        matching = cycle // self.slot_ns
        within = cycle % self.slot_ns
        if within < self.night_ns:
            return matching, False, within
        return matching, True, within - self.night_ns

    def peer_of(self, tor: int, t_ns: int) -> Optional[int]:
        """The ToR that ``tor``'s circuit reaches at ``t_ns`` (None at night)."""
        matching, is_day, _ = self.slot_at(t_ns)
        if not is_day:
            return None
        peer = self.matchings[matching][tor]
        return peer if peer != tor else None

    def window_for(self, tor: int, dst_tor: int, t_ns: int) -> Tuple[int, int]:
        """Next (or current) ``[start, end)`` day window connecting the pair."""
        matching = self._matching_of[tor].get(dst_tor)
        if matching is None:
            raise ValueError(f"no matching connects ToR {tor} to ToR {dst_tor}")
        period_start = (t_ns // self.period_ns) * self.period_ns
        start = period_start + matching * self.slot_ns + self.night_ns
        end = start + self.day_ns
        if t_ns >= end:
            start += self.period_ns
            end += self.period_ns
        return start, end

    def circuit_admits(
        self, tor: int, dst_tor: int, t_ns: int, prebuffer_ns: int = 0
    ) -> bool:
        """Should a packet for ``dst_tor`` enter the circuit VOQ at ``t_ns``?

        True while the pair's circuit is up, or within ``prebuffer_ns``
        before it comes up (reTCP's prebuffering policy).
        """
        start, end = self.window_for(tor, dst_tor, t_ns)
        return start - prebuffer_ns <= t_ns < end


class CircuitPort(EgressPort):
    """A ToR circuit uplink with per-destination-ToR virtual output queues.

    Only the VOQ of the currently matched destination drains.  INT records
    report the length of the packet's *own* VOQ, which is the queue a flow
    crossing this port actually waits in.
    """

    __slots__ = ("tor_id", "dst_tor_of", "voqs", "voq_bytes", "active_dst")

    def __init__(
        self,
        sim,
        rate_bps: float,
        prop_delay_ns: int,
        *,
        tor_id: int,
        dst_tor_of: Callable[[int], int],
        **kwargs,
    ):
        super().__init__(sim, rate_bps, prop_delay_ns, **kwargs)
        self.tor_id = tor_id
        self.dst_tor_of = dst_tor_of
        self.voqs: Dict[int, deque] = {}
        self.voq_bytes: Dict[int, int] = {}
        self.active_dst: Optional[int] = None
        self.paused = True  # circuits start dark until the controller runs

    # ------------------------------------------------------------------
    def enqueue(self, pkt: Packet) -> bool:
        """Admit to the VOQ of the packet's destination ToR."""
        dst_tor = self.dst_tor_of(pkt.dst)
        size = pkt.size
        buffer = self.buffer
        voq_len = self.voq_bytes.get(dst_tor, 0)
        if buffer is not None:
            if pkt.kind == DATA and not buffer.admits(voq_len, size):
                self.drops += 1
                buffer.on_drop()
                return False
            buffer.on_enqueue(size)

        if self.ecn is not None and pkt.ecn_capable:
            if self.ecn.should_mark(voq_len, self.rng):
                pkt.ecn_marked = True
                self.marks += 1

        pkt.enqueue_ts = self.sim.now
        voq = self.voqs.get(dst_tor)
        if voq is None:
            voq = self.voqs[dst_tor] = deque()
        voq.append(pkt)
        self.voq_bytes[dst_tor] = voq_len + size
        self.qlen_bytes += size
        if self.qlen_bytes > self.max_qlen_bytes:
            self.max_qlen_bytes = self.qlen_bytes
        if not self.busy and not self.paused:
            self._start_tx()
        return True

    def _pop_next(self) -> Optional[Packet]:
        if self.active_dst is None:
            return None
        voq = self.voqs.get(self.active_dst)
        if not voq:
            return None
        pkt = voq.popleft()
        self.voq_bytes[self.active_dst] -= pkt.size
        return pkt

    def _stamp_qlen(self, pkt: Packet) -> int:
        """Queue length reported in INT records: the packet's own VOQ."""
        return self.voq_bytes.get(self.dst_tor_of(pkt.dst), 0)

    def _start_tx(self) -> None:
        # The generic (non-inlined) transmit path: the base class fuses
        # the strict-priority pop and qlen stamp into its hot loop, which
        # a VOQ port cannot share — drain and telemetry go through
        # _pop_next / _stamp_qlen here instead.  Circuit uplinks are
        # a tiny fraction of a run's events, so the indirection is cheap.
        pkt = self._pop_next()
        if pkt is None:
            return
        self.busy = True
        size = pkt.size
        self.qlen_bytes -= size
        sim = self.sim
        now = sim.now
        tx_bytes = self.tx_bytes + size
        self.tx_bytes = tx_bytes
        if self.int_stamping and pkt.int_enabled:
            hops = pkt.int_hops
            if hops is None:
                hops = pkt.int_hops = []
            hops.append(
                self._pool.hop(
                    self._stamp_qlen(pkt), now, tx_bytes,
                    self.rate_bps, self.port_id,
                )
            )
        if self.record_queuing and pkt.kind == DATA:
            delays = self.queuing_delays_ns
            delay = now - pkt.enqueue_ts
            delays[delay] = delays.get(delay, 0) + 1
        ser = self._ser_cache.get(size)
        if ser is None:
            ser = self._ser_cache[size] = tx_time_ns(size, self.rate_bps)
        sim.at(now + ser, self._finish_cb, pkt)

    # ------------------------------------------------------------------
    def activate(self, dst_tor: int, peer) -> None:
        """Day start: connect to ``dst_tor`` (delivered to node ``peer``)."""
        self.active_dst = dst_tor
        self.peer = peer
        self._deliver = peer.receive if peer is not None else None
        self.resume()

    def deactivate(self) -> None:
        """Night: stop draining (the in-flight packet completes)."""
        self.active_dst = None
        self.pause()

    def voq_len_bytes(self, dst_tor: int) -> int:
        """Current occupancy of one destination's VOQ."""
        return self.voq_bytes.get(dst_tor, 0)


class RotorController:
    """Drives day/night transitions for all circuit ports of an RDCN.

    Also accounts per-day transmitted bytes so experiments can compute
    circuit utilization (paper reports 80–85 % for PowerTCP).
    """

    def __init__(
        self,
        sim,
        schedule: CircuitSchedule,
        circuit_ports: Sequence[CircuitPort],
        tor_nodes: Sequence,
    ):
        if len(circuit_ports) != schedule.num_tors:
            raise ValueError("one circuit port per ToR required")
        self.sim = sim
        self.schedule = schedule
        self.circuit_ports = list(circuit_ports)
        self.tor_nodes = list(tor_nodes)
        self.day_tx_bytes = 0
        self.days_elapsed = 0
        self._day_start_tx: List[int] = [0] * len(self.circuit_ports)
        self._matching = 0

    def start(self) -> None:
        """Begin the rotation (first night starts at the current time)."""
        self.sim.after(self.schedule.night_ns, self._day_start)

    def _day_start(self) -> None:
        matching = self.schedule.matchings[self._matching]
        for tor, port in enumerate(self.circuit_ports):
            peer = matching[tor]
            self._day_start_tx[tor] = port.tx_bytes
            if peer != tor:
                port.activate(peer, self.tor_nodes[peer])
        self.sim.after(self.schedule.day_ns, self._day_end)

    def _day_end(self) -> None:
        for tor, port in enumerate(self.circuit_ports):
            self.day_tx_bytes += port.tx_bytes - self._day_start_tx[tor]
            port.deactivate()
        self.days_elapsed += 1
        self._matching = (self._matching + 1) % len(self.schedule.matchings)
        self.sim.after(self.schedule.night_ns, self._day_start)

    def utilization(self) -> float:
        """Fraction of day capacity used across all ToRs so far."""
        if self.days_elapsed == 0:
            return 0.0
        capacity_bytes = (
            self.days_elapsed
            * len(self.circuit_ports)
            * self.schedule.day_ns
            * self.circuit_ports[0].rate_bps
            / 8e9
        )
        return self.day_tx_bytes / capacity_bytes if capacity_bytes else 0.0
