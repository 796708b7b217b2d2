"""A finished flow's endpoints retire (docs/INVARIANTS.md, "Flow lifetime").

What retiring must not change is ``tests/test_cc_conformance.py``'s
retire-vs-keep comparison; here: what dies when, what a late packet
meets, and that memory follows the flows in flight.
"""

import tracemalloc
import weakref

import pytest

from test_run_teardown import no_collector  # noqa: F401  (fixture)
from repro.experiments.driver import FlowDriver
from repro.sim.engine import Simulator
from repro.sim.packet import PacketPool
from repro.topology.dumbbell import DumbbellParams, build_dumbbell
from repro.units import GBPS, MSEC, USEC


def make_driver(algorithm="powertcp", left=2, **dumbbell):
    sim = Simulator()
    net = build_dumbbell(
        sim,
        DumbbellParams(
            left_hosts=left, right_hosts=1, host_bw_bps=10 * GBPS,
            bottleneck_bw_bps=10 * GBPS, **dumbbell,
        ),
    )
    return sim, net, FlowDriver(net, algorithm)


# ----------------------------------------------------------------------
# What retires when
# ----------------------------------------------------------------------
@pytest.mark.parametrize("law", ["powertcp", "timely"])
def test_retired_sender_and_its_cc_die_by_reference_count(law, no_collector):
    # TIMELY is rate-based; PowerTCP keeps per-port INT snapshots.
    sim, net, driver = make_driver(law)
    flow = driver.start_flow(0, 2, 20_000, at_ns=0)
    driver.run(until_ns=0)  # launched
    sender = weakref.ref(driver.senders[flow.flow_id])
    cc = weakref.ref(sender().cc)
    receiver = weakref.ref(driver.receivers[flow.flow_id])
    driver.run()  # to the end: the sender's last RTO wake has fired
    assert flow.completed and flow.algorithm == law
    assert sender() is None and cc() is None and receiver() is None
    assert driver.senders == {} and driver.receivers == {}
    assert all(host.endpoints == {} for host in net.hosts)
    assert driver.flows == driver.completed == [flow]  # the record stays
    sim.close()


def test_dcqcn_and_homa_endpoints_wait_for_close():
    # DCQCN reacts to a late CNP (two timers restart); HOMA's receiver,
    # sender and grant scheduler are retired together or not at all.
    for law in ("dcqcn", "homa"):
        sim, net, driver = make_driver(law)
        a = driver.start_flow(0, 2, 20_000, at_ns=0)
        b = driver.start_flow(1, 2, 20_000, at_ns=0)
        driver.run(until_ns=5_000_000)
        assert a.completed and b.completed
        assert set(driver.senders) == {a.flow_id, b.flow_id}
        sink = net.host(2)
        assert set(sink.endpoints) == {a.flow_id, b.flow_id}
        sim.close()
        assert driver.senders == {} and sink.endpoints == {}


def test_receiver_that_saw_loss_is_kept():
    # 40 senders into a 60 KB buffer: drops, go-back-N, RTOs; then three
    # flows that have the link to themselves.
    sim, net, driver = make_driver("powertcp", left=40, buffer_bytes=60_000)
    burst = [driver.start_flow(src, 40, 30_000, at_ns=0) for src in range(40)]
    calm = [
        driver.start_flow(src, 40, 30_000, at_ns=(30 + src) * MSEC)
        for src in range(3)
    ]
    driver.run()
    assert all(f.completed for f in burst + calm)
    assert driver.senders == {}  # a done sender ignores whatever arrives
    kept = driver.receivers
    assert set(kept) == set(net.host(40).endpoints)
    assert {f.flow_id for f in burst if f.retransmissions} <= set(kept)
    for flow in burst + calm:
        if flow.flow_id in kept:
            assert flow.retransmissions or kept[flow.flow_id].out_of_order
        else:
            assert flow.retransmissions == 0
    assert len(kept) >= 30 and not {f.flow_id for f in calm} & set(kept)
    sim.close()


# ----------------------------------------------------------------------
# Late packets
# ----------------------------------------------------------------------
@pytest.fixture
def releases(monkeypatch):
    """Every shell handed back to the pool, in order."""
    released = []
    for name in ("release", "release_with_hops"):
        def method(self, pkt, _release=getattr(PacketPool, name)):
            released.append(pkt)
            _release(self, pkt)
        monkeypatch.setattr(PacketPool, name, method)
    return released


def test_late_ack_and_cnp_are_counted_and_recycled_once(releases):
    sim, net, driver = make_driver("powertcp")
    flow = driver.start_flow(0, 2, 5_000, at_ns=0)
    driver.run()
    host = net.host(0)
    assert flow.completed and host.endpoints == {} and host.late_packets == 0
    pool = sim.pool
    events = sim.events_processed

    final_ack = pool.ack(
        pool.data(flow.flow_id, 0, 2, 4_000, 1_000, int_enabled=True),
        5_000, now=sim.now,
    )
    hops = final_ack.int_hops
    hops.append(pool.hop(0, sim.now, 0, 10 * GBPS, 1))
    cnp = pool.cnp(flow.flow_id, 2, 0)
    del releases[:]
    host.receive(final_ack)  # the final ACK, duplicated
    host.receive(cnp)

    assert host.late_packets == 2
    assert releases == [final_ack, cnp]  # each shell once
    assert final_ack.int_hops is None and hops == []  # records recycled too
    assert sim.pending == 0 and sim.run() == 0  # nothing was scheduled
    assert sim.events_processed == events
    sim.close()


def test_retransmitted_segment_is_still_acked_after_the_sender_retired():
    sim, net, driver = make_driver("powertcp", left=40, buffer_bytes=60_000)
    flows = [driver.start_flow(src, 40, 30_000, at_ns=0) for src in range(40)]
    driver.run()
    flow = next(f for f in flows if f.retransmissions)
    assert flow.flow_id not in driver.senders  # the sender is gone ...
    receiver = driver.receivers[flow.flow_id]  # ... its receiver is not
    sender_host = net.host(flow.src)
    late = sender_host.late_packets

    # a go-back-N duplicate of the last segment, still in flight
    net.host(40).receive(
        sim.pool.data(flow.flow_id, flow.src, 40, 29_000, 1_000)
    )
    sim.run()

    assert receiver.rcv_nxt == 30_000
    # it was ACKed, and the ACK crossed the network to a host that no
    # longer knows the flow
    assert sender_host.late_packets == late + 1
    sim.close()


# ----------------------------------------------------------------------
# Memory follows the flows in flight
# ----------------------------------------------------------------------
def _churn(count: int, gap_ns: int = 30 * USEC):
    """``count`` back-to-back 20 KB flows, each started as the run reaches
    it; returns (tracemalloc peak over the run, worst endpoint excess)."""
    sim, net, driver = make_driver("powertcp")
    worst = [0]

    def feed(i):
        driver.start_flow(i % 2, 2, 20_000)
        if i % 25 == 0:
            active = sum(1 for f in driver.flows if f.sender_done_ns is None)
            for host in net.hosts:
                worst[0] = max(worst[0], len(host.endpoints) - active)
        if i + 1 < count:
            sim.after(gap_ns, feed, i + 1)

    sim.at(0, feed, 0)
    tracemalloc.start()
    try:
        driver.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(driver.completed) == count
    sim.close()
    return peak, worst[0]


def test_memory_follows_flows_in_flight_not_flows_finished():
    few, excess_few = _churn(200)
    many, excess_many = _churn(2_000)
    # never more endpoints on a host than flows still running
    assert excess_few <= 0 and excess_many <= 0
    # What a finished flow leaves behind is its plain record (~340 B with
    # its list slots), not its endpoints and CC state (2.7 KB on the
    # parent commit, where this reads ~2,700).
    per_finished_flow = (many - few) / 1_800
    assert per_finished_flow < 512
