"""Unit tests for the optical circuit schedule, VOQ port, and controller."""

import pytest

from repro.sim.circuit import CircuitPort, CircuitSchedule, RotorController
from repro.sim.engine import Simulator
from repro.sim.packet import HEADER_BYTES, Packet
from repro.units import GBPS, USEC


def make_schedule(num_tors=4, day=225 * USEC, night=20 * USEC):
    return CircuitSchedule(num_tors, day, night)


# ----------------------------------------------------------------------
# CircuitSchedule
# ----------------------------------------------------------------------
def test_default_matchings_cover_all_pairs():
    sched = make_schedule(num_tors=5)
    for tor in range(5):
        peers = {m[tor] for m in sched.matchings}
        assert peers == set(range(5)) - {tor}


def test_matchings_are_permutations():
    sched = make_schedule(num_tors=6)
    for matching in sched.matchings:
        assert sorted(matching) == list(range(6))


def test_invalid_matching_rejected():
    with pytest.raises(ValueError):
        CircuitSchedule(3, 100, 10, matchings=[[0, 0, 1]])


def test_slot_phases():
    sched = make_schedule(num_tors=3, day=100, night=20)
    assert sched.slot_at(0) == (0, False, 0)  # night first
    assert sched.slot_at(20) == (0, True, 0)  # day starts
    assert sched.slot_at(119) == (0, True, 99)
    assert sched.slot_at(120) == (1, False, 0)


def test_peer_of_day_and_night():
    sched = make_schedule(num_tors=3, day=100, night=20)
    assert sched.peer_of(0, 10) is None  # night
    assert sched.peer_of(0, 30) == 1  # matching 0: shift by 1
    assert sched.peer_of(0, 150) == 2  # matching 1: shift by 2


def test_window_for_current_and_next_period():
    sched = make_schedule(num_tors=3, day=100, night=20)
    start, end = sched.window_for(0, 1, 0)
    assert (start, end) == (20, 120)
    # After the window closed, the next period's window is returned.
    start2, end2 = sched.window_for(0, 1, 130)
    assert start2 == 20 + sched.period_ns
    assert end2 == 120 + sched.period_ns


def test_circuit_admits_prebuffer():
    sched = make_schedule(num_tors=3, day=100, night=20)
    assert not sched.circuit_admits(0, 1, 5)
    assert sched.circuit_admits(0, 1, 5, prebuffer_ns=15)
    assert sched.circuit_admits(0, 1, 50)
    assert not sched.circuit_admits(0, 1, 120)  # window closed


def test_window_for_unconnected_pair_raises():
    sched = make_schedule(num_tors=3)
    with pytest.raises(ValueError):
        sched.window_for(1, 1, 0)


# ----------------------------------------------------------------------
# CircuitPort
# ----------------------------------------------------------------------
class Sink:
    def __init__(self, sim):
        self.sim = sim
        self.packets = []

    def receive(self, pkt):
        self.packets.append(pkt)


def test_voq_isolation_and_activation():
    sim = Simulator()
    port = CircuitPort(
        sim, 8 * GBPS, 100, tor_id=0, dst_tor_of=lambda host: host // 10
    )
    sink1, sink2 = Sink(sim), Sink(sim)
    # Host 10 is in ToR 1, host 20 in ToR 2.
    port.enqueue(Packet.data(1, 0, 10, 0, 1000))
    port.enqueue(Packet.data(2, 0, 20, 0, 1000))
    sim.run()
    assert sink1.packets == [] and sink2.packets == []  # dark circuit

    port.activate(1, sink1)
    sim.run()
    assert len(sink1.packets) == 1  # only ToR 1's VOQ drained
    assert len(sink2.packets) == 0
    assert port.voq_len_bytes(2) > 0

    port.deactivate()
    port.activate(2, sink2)
    sim.run()
    assert len(sink2.packets) == 1
    assert port.voq_len_bytes(2) == 0


def test_voq_int_stamp_reports_own_voq():
    sim = Simulator()
    port = CircuitPort(
        sim,
        8 * GBPS,
        100,
        tor_id=0,
        dst_tor_of=lambda host: host // 10,
        int_stamping=True,
    )
    sink = Sink(sim)
    first = Packet.data(1, 0, 10, 0, 1000, int_enabled=True)
    second = Packet.data(1, 0, 10, 1000, 1000, int_enabled=True)
    other = Packet.data(2, 0, 20, 0, 1000, int_enabled=True)
    port.enqueue(first)
    port.enqueue(second)
    port.enqueue(other)  # different VOQ: must not pollute flow 1's stamp
    port.activate(1, sink)
    sim.run()
    # first's stamp sees only its own VOQ (second waiting), not 'other'.
    assert first.int_hops[0].qlen == second.size


def test_voq_port_counts_queuing_delays_like_the_base_port():
    # tests/test_port.py::test_record_queuing_delays on the VOQ transmit
    # path: the two recording sites must not drift.
    sim = Simulator()
    port = CircuitPort(
        sim, 8 * GBPS, 100, tor_id=0, dst_tor_of=lambda host: host // 10,
        record_queuing=True,
    )
    port.enqueue(Packet.data(1, 0, 10, 0, 1000 - HEADER_BYTES))
    port.enqueue(Packet.data(1, 0, 10, 1, 1000 - HEADER_BYTES))
    port.enqueue(Packet.ack(Packet.data(2, 10, 0, 0, 1000), 1000, now=0))
    port.activate(1, Sink(sim))
    sim.run()
    # one data packet went straight out, one waited one serialization;
    # the ACK behind them is not a sample
    assert port.queuing_delays_ns == {0: 1, 1000: 1}


# ----------------------------------------------------------------------
# RotorController
# ----------------------------------------------------------------------
def test_controller_rotates_matchings():
    sim = Simulator()
    sched = CircuitSchedule(3, day_ns=100, night_ns=20)
    tors = [Sink(sim) for _ in range(3)]
    ports = [
        CircuitPort(sim, 8 * GBPS, 10, tor_id=i, dst_tor_of=lambda h: h // 10)
        for i in range(3)
    ]
    controller = RotorController(sim, sched, ports, tors)
    controller.start()
    sim.run(until=25)  # inside day of matching 0
    assert ports[0].active_dst == 1
    assert ports[1].active_dst == 2
    assert ports[2].active_dst == 0
    sim.run(until=125)  # night after matching 0
    assert ports[0].active_dst is None
    sim.run(until=145)  # day of matching 1
    assert ports[0].active_dst == 2
    assert controller.days_elapsed == 1


def test_controller_utilization_accounting():
    sim = Simulator()
    sched = CircuitSchedule(2, day_ns=1000, night_ns=100, matchings=[[1, 0]])
    tor_sinks = [Sink(sim), Sink(sim)]
    ports = [
        CircuitPort(sim, 8 * GBPS, 0, tor_id=i, dst_tor_of=lambda h: h // 10)
        for i in range(2)
    ]
    controller = RotorController(sim, sched, ports, tor_sinks)
    controller.start()
    # 1000B wire-size packet for ToR 1 queued at ToR 0.
    ports[0].enqueue(Packet.data(1, 0, 10, 0, 1000 - 48))
    sim.run(until=sched.period_ns + 100)
    assert controller.days_elapsed >= 1
    assert controller.day_tx_bytes == 1000
    assert 0 < controller.utilization() < 1
