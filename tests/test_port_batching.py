"""Packet-train batching semantics (``Simulator(tx_batch_limit > 1)``).

What batching promises (see the ``repro.sim.port.TrainPort`` docstring):

* per-packet delivery events with exact serialization arithmetic on the
  fused and train-extension paths (idle port / in-flight train with
  empty queues) — timing identical to the unbatched port there;
* work conservation and exact departure *order* everywhere, with timing
  approximation bounded by the train length when backlogs form;
* per-packet DT buffer releases, INT stamps, and queuing-delay samples;
* packet-granular PFC pause via train truncation when
  ``Simulator.pause_tracking`` is on, train-granular pause otherwise.
"""

import pytest

from repro.sim.buffer import SharedBuffer
from repro.sim.circuit import CircuitPort
from repro.sim.engine import Simulator
from repro.sim.packet import HEADER_BYTES, Packet
from repro.sim.port import EgressPort
from repro.units import GBPS


class Sink:
    def __init__(self, sim):
        self.sim = sim
        self.packets = []

    def receive(self, pkt):
        self.packets.append((self.sim.now, pkt.seq))


def data(seq=0, payload=1000, prio=0, flow=1, **kwargs):
    return Packet.data(flow, 0, 1, seq, payload, priority=prio, **kwargs)


def deliveries(batch, feed, **port_kwargs):
    """Run ``feed(sim, port)`` under the given batch limit; return the
    sink's (time, seq) delivery log."""
    sim = Simulator(tx_batch_limit=batch)
    sink = Sink(sim)
    port = EgressPort(sim, 8 * GBPS, 1000, peer=sink, **port_kwargs)
    feed(sim, port)
    sim.run()
    return sim, port, sink.packets


# ----------------------------------------------------------------------
# Exact-timing paths: fused single-packet trains and train extension
# ----------------------------------------------------------------------
def test_fused_open_loop_matches_unbatched_exactly():
    # Arrivals spaced wider than serialization: every packet meets an
    # idle port, takes the fused path, and must keep byte-exact timing.
    def feed(sim, port):
        for i in range(10):
            sim.at(i * 5000, port.enqueue, data(seq=i, payload=1000 - HEADER_BYTES))

    _, _, unbatched = deliveries(1, feed)
    _, _, batched = deliveries(8, feed)
    assert batched == unbatched
    assert len(batched) == 10


def test_extension_back_to_back_matches_unbatched_exactly():
    # A burst within the train budget: the first packet is fused, the
    # rest arrive mid-serialization with empty queues and extend the
    # train at its exact end — identical times to the unbatched port.
    def feed(sim, port):
        for i in range(8):
            port.enqueue(data(seq=i, payload=1000 - HEADER_BYTES))

    _, _, unbatched = deliveries(1, feed)
    _, _, batched = deliveries(8, feed)
    assert batched == unbatched
    # 1000 ns per packet back-to-back + 1000 ns propagation.
    assert [t for t, _ in batched] == [2000 + 1000 * i for i in range(8)]


def test_events_processed_comparable_across_batching():
    def feed(sim, port):
        for i in range(8):
            port.enqueue(data(seq=i))

    sim1, _, _ = deliveries(1, feed)
    sim8, _, _ = deliveries(8, feed)
    # The exact subset: same packet count, same delivery events; the
    # coalesced completions are folded back into events_processed.
    assert sim8.events_processed == sim1.events_processed
    assert sim8.events_coalesced == 8


# ----------------------------------------------------------------------
# Order and work conservation beyond the exact subset
# ----------------------------------------------------------------------
def test_backlog_beyond_limit_departure_order_and_conservation():
    n = 25  # forces several trains (limit 4) with armed wakes

    def feed(sim, port):
        for i in range(n):
            port.enqueue(data(seq=i))

    _, port1, unbatched = deliveries(1, feed)
    _, port4, batched = deliveries(4, feed)
    assert [seq for _, seq in batched] == [seq for _, seq in unbatched]
    assert port4.tx_bytes == port1.tx_bytes
    # Last delivery identical: trains are back-to-back, so the final
    # packet's finish time is the same cumulative serialization sum.
    assert batched[-1] == unbatched[-1]


def test_strict_priority_respected_at_train_boundaries():
    def feed(sim, port):
        port.enqueue(data(seq=0, prio=3))
        # Arrive mid-serialization: the high-priority packet cannot
        # extend the prio-3 train, so it queues; the next train must
        # drain it before the remaining low-priority backlog.
        sim.at(10, port.enqueue, data(seq=1, prio=3))
        sim.at(20, port.enqueue, data(seq=2, prio=0))

    _, _, batched = deliveries(8, feed)
    # seq 1 queued (can't extend across priorities once seq 2 showed up?
    # No: seq 1 extends the prio-3 train at t=10 — queues still empty —
    # then seq 2 (prio 0) arrives mid-train and queues.  Priority takes
    # effect at the next boundary, after the committed train.
    assert [seq for _, seq in batched] == [0, 1, 2]


def test_wake_event_preserves_work_conservation():
    # A second burst lands while the first train is still serializing
    # and cannot extend (budget exhausted): it must be drained by the
    # wake at the train's end with no idle gap.
    def feed(sim, port):
        for i in range(4):
            port.enqueue(data(seq=i, payload=1000 - HEADER_BYTES))
        sim.at(1500, port.enqueue, data(seq=4, payload=1000 - HEADER_BYTES))

    _, _, batched = deliveries(4, feed)
    assert [seq for _, seq in batched] == [0, 1, 2, 3, 4]
    # Packet 4 queued behind a 4-packet train ending at t=4000; with no
    # idle gap its delivery is 4000 + 1000 (ser) + 1000 (prop).
    assert batched[-1][0] == 6000


# ----------------------------------------------------------------------
# Per-packet DT releases
# ----------------------------------------------------------------------
def test_deferred_release_keeps_dt_admission_exact():
    # Buffer fits exactly two packets.  Packet B arrives after packet
    # A's serialization finished but before any other event: the
    # deferred release must be flushed at B's admission, or the third
    # packet would be wrongly dropped.
    sim = Simulator(tx_batch_limit=8)
    sink = Sink(sim)
    buffer = SharedBuffer(capacity=2000, alpha=1000.0)
    port = EgressPort(sim, 8 * GBPS, 100, peer=sink, buffer=buffer)
    port.enqueue(data(seq=0, payload=1000 - HEADER_BYTES))  # release due t=1000
    port.enqueue(data(seq=1, payload=1000 - HEADER_BYTES))  # release due t=2000
    assert buffer.used == 2000
    dropped = []
    sim.at(
        1500,
        lambda: dropped.append(
            port.enqueue(data(seq=2, payload=1000 - HEADER_BYTES))
        ),
    )
    sim.run()
    # At t=1500 packet 0's 1000 bytes have left: admission must see
    # used=1000 and admit.
    assert dropped == [True]
    assert [seq for _, seq in sink.packets] == [0, 1, 2]
    # Deferred releases flush at admission points, not at end-of-run;
    # flush explicitly before checking the final occupancy.
    buffer.release_due(sim.now)
    assert buffer.used == 0


# ----------------------------------------------------------------------
# PFC pause mid-train: truncation (tracking on) vs train-end (off)
# ----------------------------------------------------------------------
def _pause_mid_train(tracking):
    sim = Simulator(tx_batch_limit=8)
    sim.pause_tracking = tracking
    sink = Sink(sim)
    port = EgressPort(
        sim, 8 * GBPS, 100, peer=sink, int_stamping=True, record_queuing=True
    )
    pkts = [
        data(seq=i, payload=1000 - HEADER_BYTES, int_enabled=True)
        for i in range(6)
    ]
    for pkt in pkts:
        port.enqueue(pkt)  # one fused + five extensions, ends t=6000
    sim.at(2500, port.pause)  # mid-packet-2 (serializing 2000..3000)
    sim.at(10_000, port.resume)
    sim.run()
    return sim, port, sink, pkts


def test_pause_mid_train_truncates_with_tracking():
    sim, port, sink, pkts = _pause_mid_train(tracking=True)
    times = {seq: t for t, seq in sink.packets}
    # Packets 0-2 had started serializing by t=2500: they complete on
    # the original schedule.
    assert [times[i] for i in range(3)] == [1100, 2100, 3100]
    # Packets 3-5 were truncated: their deliveries were un-scheduled
    # and they re-transmit after the resume at t=10000.
    assert [times[i] for i in range(3, 6)] == [11100, 12100, 13100]
    assert sorted(times) == list(range(6))  # each delivered exactly once
    # Undone accounting was re-applied on the second transmission: one
    # INT hop per packet, one queuing-delay sample per packet.
    assert all(len(p.int_hops) == 1 for p in pkts)
    assert len(port.queuing_delays_ns) == 6
    assert port.tx_bytes == 6000
    assert sim.pending == 0


def test_pause_mid_train_without_tracking_completes_train():
    sim, port, sink, pkts = _pause_mid_train(tracking=False)
    times = {seq: t for t, seq in sink.packets}
    # Without per-packet train entries the pause cannot truncate: the
    # whole committed train serializes on the original schedule.
    assert [times[i] for i in range(6)] == [1100 + 1000 * i for i in range(6)]
    assert all(len(p.int_hops) == 1 for p in pkts)
    assert port.tx_bytes == 6000


def test_truncation_restores_deferred_buffer_releases():
    sim = Simulator(tx_batch_limit=8)
    sim.pause_tracking = True
    sink = Sink(sim)
    buffer = SharedBuffer(capacity=50_000, alpha=1000.0)
    port = EgressPort(sim, 8 * GBPS, 100, peer=sink, buffer=buffer)
    for i in range(6):
        port.enqueue(data(seq=i, payload=1000 - HEADER_BYTES))
    sim.at(2500, port.pause)
    sim.at(10_000, port.resume)
    sim.run()
    # All six packets eventually left the switch exactly once.  The
    # re-committed train's releases flush at admission points, none of
    # which occur after the resume — flush explicitly before reading.
    buffer.release_due(sim.now)
    assert buffer.used == 0
    assert buffer.total_admitted == 6000
    assert len(sink.packets) == 6


# ----------------------------------------------------------------------
# Batching is per port kind: VOQ ports stay per-packet
# ----------------------------------------------------------------------
def test_circuit_port_stays_per_packet_on_a_batching_simulator():
    sim = Simulator(tx_batch_limit=8)
    sink = Sink(sim)
    plain = EgressPort(sim, 8 * GBPS, 100, peer=sink)
    circuit = CircuitPort(sim, 8 * GBPS, 100, tor_id=0, dst_tor_of=lambda dst: 1)
    circuit.activate(1, sink)

    for i in range(3):
        plain.enqueue(data(seq=i, payload=1000 - HEADER_BYTES))
    # One fused packet + two extensions: the whole train is committed at
    # arrival, nothing waits in the queue, three finish events elided.
    assert plain.qlen_bytes == 0
    assert sim.events_coalesced == 3

    for i in range(3, 6):
        circuit.enqueue(data(seq=i, payload=1000 - HEADER_BYTES))
    # The circuit-scheduled port serializes one packet and queues the
    # rest behind a per-packet finish event; it coalesces nothing.
    assert circuit.busy
    assert circuit.qlen_bytes == 2000
    assert sim.events_coalesced == 3

    sim.run()
    times = {seq: t for t, seq in sink.packets}
    assert [times[i] for i in range(6)] == [1100, 2100, 3100] * 2
    assert sim.events_coalesced == 3
    assert sim.pending == 0
