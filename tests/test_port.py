"""Unit tests for egress ports: serialization, priorities, ECN, INT."""

import random
import tracemalloc

import pytest

from repro.experiments.driver import FlowDriver
from repro.sim.buffer import SharedBuffer
from repro.sim.engine import Simulator
from repro.sim.packet import HEADER_BYTES, Packet
from repro.sim.port import EcnConfig, EgressPort
from repro.topology.registry import build_topology
from repro.units import GBPS, MSEC


class Sink:
    """Records delivered packets with arrival times."""

    def __init__(self, sim):
        self.sim = sim
        self.packets = []

    def receive(self, pkt):
        self.packets.append((self.sim.now, pkt))


def make_port(sim, rate=8 * GBPS, delay=1000, **kwargs):
    sink = Sink(sim)
    port = EgressPort(sim, rate, delay, peer=sink, **kwargs)
    return port, sink


def data(seq=0, payload=1000, prio=0, flow=1, **kwargs):
    return Packet.data(flow, 0, 1, seq, payload, priority=prio, **kwargs)


def test_single_packet_timing():
    sim = Simulator()
    port, sink = make_port(sim)  # 8 Gbps: 1 byte per ns
    pkt = data(payload=1000 - HEADER_BYTES)  # wire size exactly 1000B
    port.enqueue(pkt)
    sim.run()
    # 1000 ns serialization + 1000 ns propagation.
    assert sink.packets == [(2000, pkt)]


def test_fifo_order_within_priority():
    sim = Simulator()
    port, sink = make_port(sim)
    pkts = [data(seq=i) for i in range(5)]
    for p in pkts:
        port.enqueue(p)
    sim.run()
    assert [p.seq for _, p in sink.packets] == [0, 1, 2, 3, 4]


def test_strict_priority_across_queues():
    sim = Simulator()
    port, sink = make_port(sim)
    low = data(seq=1, prio=5)
    high = data(seq=2, prio=0)
    # Fill the transmitter first so both wait in the queue.
    blocker = data(seq=0)
    port.enqueue(blocker)
    port.enqueue(low)
    port.enqueue(high)
    sim.run()
    assert [p.seq for _, p in sink.packets] == [0, 2, 1]


def test_back_to_back_serialization():
    sim = Simulator()
    port, sink = make_port(sim)
    port.enqueue(data(seq=0, payload=1000 - HEADER_BYTES))
    port.enqueue(data(seq=1, payload=1000 - HEADER_BYTES))
    sim.run()
    times = [t for t, _ in sink.packets]
    assert times[1] - times[0] == 1000  # one serialization apart


def test_qlen_accounting():
    sim = Simulator()
    port, _ = make_port(sim)
    for _ in range(3):
        port.enqueue(data())
    # One packet is in the transmitter; two wait.
    assert port.qlen_bytes == 2 * (1000 + HEADER_BYTES)
    sim.run()
    assert port.qlen_bytes == 0


def test_tx_bytes_counts_wire_size():
    sim = Simulator()
    port, _ = make_port(sim)
    port.enqueue(data(payload=500))
    sim.run()
    assert port.tx_bytes == 500 + HEADER_BYTES


def test_int_stamping_at_dequeue():
    sim = Simulator()
    port, sink = make_port(sim, int_stamping=True)
    first = data(seq=0, int_enabled=True)
    second = data(seq=1, int_enabled=True)
    third = data(seq=2, int_enabled=True)
    port.enqueue(first)  # starts transmitting immediately (queue empty)
    port.enqueue(second)
    port.enqueue(third)
    sim.run()
    hop0 = first.int_hops[0]
    hop1 = second.int_hops[0]
    hop2 = third.int_hops[0]
    assert hop0.qlen == 0  # nothing was waiting when it started
    assert hop1.qlen == third.size  # third was waiting behind second
    assert hop2.qlen == 0
    assert hop1.tx_bytes - hop0.tx_bytes == second.size
    assert hop2.ts_ns > hop1.ts_ns > hop0.ts_ns
    assert hop0.bandwidth_bps == port.rate_bps


def test_no_stamping_when_disabled():
    sim = Simulator()
    port, _ = make_port(sim, int_stamping=False)
    pkt = data(int_enabled=True)
    port.enqueue(pkt)
    sim.run()
    assert pkt.int_hops == []


def test_dt_buffer_drops_data_when_full():
    sim = Simulator()
    buf = SharedBuffer(3_000, alpha=1000.0)
    port, sink = make_port(sim, buffer=buf)
    results = [port.enqueue(data(seq=i)) for i in range(4)]
    assert results[:2] == [True, True]
    assert False in results  # capacity 3000 < 4 x 1048
    assert port.drops >= 1
    assert buf.drops == port.drops


def test_control_packets_bypass_dt():
    sim = Simulator()
    buf = SharedBuffer(2_000, alpha=0.0001)  # DT rejects any data queue
    port, _ = make_port(sim, buffer=buf)
    d = data()
    ack = Packet.ack(d, 100, now=0)
    assert port.enqueue(ack)  # always admitted
    assert port.drops == 0


def test_ecn_step_marking():
    sim = Simulator()
    port, _ = make_port(sim, ecn=EcnConfig.step(1_500))
    pkts = [data(seq=i, ecn_capable=True) for i in range(4)]
    for p in pkts:
        port.enqueue(p)
    # The first packet dequeues immediately; marking uses the queue length
    # seen on arrival: pkt2 sees 1048B (< K), pkt3 sees 2096B (> K).
    assert [p.ecn_marked for p in pkts] == [False, False, False, True]


def test_ecn_ignores_non_capable():
    sim = Simulator()
    port, _ = make_port(sim, ecn=EcnConfig.step(0))
    pkt = data(ecn_capable=False)
    port.enqueue(pkt)
    assert not pkt.ecn_marked


def test_ecn_red_probability_ramp():
    rng = random.Random(7)
    cfg = EcnConfig(kmin=1000, kmax=2000, pmax=0.5)
    assert not cfg.should_mark(500, rng)
    assert cfg.should_mark(5000, rng)
    marks = sum(cfg.should_mark(1500, rng) for _ in range(4000))
    assert 800 <= marks <= 1200  # ~ pmax/2 = 25%


def test_pause_resume():
    sim = Simulator()
    port, sink = make_port(sim)
    port.pause()
    port.enqueue(data(seq=0))
    sim.run()
    assert sink.packets == []
    port.resume()
    sim.run()
    assert len(sink.packets) == 1


def test_record_queuing_delays():
    sim = Simulator()
    port, _ = make_port(sim, record_queuing=True)
    port.enqueue(data(seq=0, payload=1000 - HEADER_BYTES))
    port.enqueue(data(seq=1, payload=1000 - HEADER_BYTES))
    sim.run()
    # one packet went straight out, one waited one serialization
    assert port.queuing_delays_ns == {0: 1, 1000: 1}


def test_ecn_config_validation():
    with pytest.raises(ValueError):
        EcnConfig(2000, 1000, 0.1)
    with pytest.raises(ValueError):
        EcnConfig(0, 10, 1.5)


# ----------------------------------------------------------------------
# A port costs what it carries: queues and the ECN generator on demand
# ----------------------------------------------------------------------
def _all_ports(net):
    return [h.nic for h in net.hosts] + [p for s in net.switches for p in s.ports]


def test_fan_in_costs_under_1500_bytes_per_port_before_traffic():
    sim = Simulator()
    tracemalloc.start()
    try:
        net = build_topology(sim, "dumbbell", left_hosts=256, right_hosts=1)
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    ports = _all_ports(net)
    assert len(ports) == 516
    # eight empty deques and a seeded Mersenne Twister per port read
    # ~9.9 KB here; hosts and switches included it is now ~0.93 KB
    assert traced / len(ports) < 1_500
    sim.close()


def _incast_255(law):
    """A fig. 4 cell by hand: a long flow plus 255 60.5 KB bursts, 9 ms."""
    sim = Simulator()
    net = build_topology(sim, "dumbbell", left_hosts=256, right_hosts=1)
    driver = FlowDriver(net, law)
    driver.start_flow(0, 256, 10 ** 12, at_ns=0)
    for src in range(1, 256):
        driver.start_flow(src, 256, 60_500, at_ns=10 * net.base_rtt_ns)
    driver.run(until_ns=9 * MSEC)
    return sim, net


def _priorities(port):
    return {prio for prio, queue in enumerate(port.queues) if queue is not None}


@pytest.mark.parametrize("law", ["powertcp", "dcqcn", "homa"])
def test_255_to_1_builds_only_what_its_traffic_needs(law):
    sim, net = _incast_255(law)
    ports = _all_ports(net)
    bottleneck = net.port("bottleneck")
    with_rng = [p for p in ports if p._rng is not None]
    if law == "dcqcn":
        # the one queue above kmin, and it did mark
        assert with_rng == [bottleneck] and bottleneck.marks > 0
    else:
        assert with_rng == []
    if law == "homa":
        held = [_priorities(p) for p in ports]
        assert set().union(*held) == {0, 1, 2, 3}
    else:
        assert all(_priorities(p) == {0} for p in ports)
    sim.close()


def test_circuit_port_never_builds_a_priority_queue(monkeypatch):
    from repro.experiments import rdcn

    circuit_ports = []

    def build(*args, **kwargs):
        net = build_topology(*args, **kwargs)
        circuit_ports.extend(net.extras["circuit_ports"])
        return net

    monkeypatch.setattr(rdcn, "build_topology", build)
    rdcn.run_rdcn(rdcn.RdcnConfig(duration_ns=1 * MSEC, flows_per_pair=2))
    assert any(port.tx_bytes for port in circuit_ports)  # they carried data
    assert all(_priorities(port) == set() for port in circuit_ports)


def test_lazy_generators_draw_in_seed_order_not_draw_order():
    def draws(first):
        sim = Simulator()
        ports = {"a": EgressPort(sim, 1e9, 0), "b": EgressPort(sim, 1e9, 0)}
        second = "b" if first == "a" else "a"
        out = {}
        for name in (first, second):
            out[name] = [ports[name].rng.random() for _ in range(4)]
        return out

    in_order = draws("a")
    assert draws("b") == in_order
    # the seeds are the construction counter's, as they always were
    for name, seed in (("a", "port#1"), ("b", "port#2")):
        reference = random.Random(seed)
        assert in_order[name] == [reference.random() for _ in range(4)]


def test_an_explicit_generator_is_the_one_drawn():
    sim = Simulator()
    rng = random.Random(11)
    port, _ = make_port(sim, rng=rng, ecn=EcnConfig(0, 10_000, 0.5))
    assert port.rng is rng
    before = rng.getstate()
    for seq in range(3):  # the third finds 1,048 B queued: a RED draw
        port.enqueue(data(seq=seq, ecn_capable=True))
    assert port.rng is rng and rng.getstate() != before
