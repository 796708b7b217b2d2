"""Unit/functional tests for the HOMA receiver-driven transport."""

import pytest

from repro.cc.homa import HomaGrantScheduler, srpt_first
from repro.experiments.driver import FlowDriver
from repro.scenarios.registry import get_scenario
from repro.sim.engine import Simulator
from repro.sim.host import Host
from repro.sim.packet import GRANT
from repro.topology.dumbbell import DumbbellParams, build_dumbbell
from repro.units import GBPS, MSEC


def homa_net(left=3, overcommit=1):
    sim = Simulator()
    net = build_dumbbell(
        sim,
        DumbbellParams(
            left_hosts=left,
            right_hosts=1,
            host_bw_bps=10 * GBPS,
            bottleneck_bw_bps=10 * GBPS,
        ),
    )
    driver = FlowDriver(net, "homa", cc_params={"overcommitment": overcommit})
    return sim, net, driver


def test_small_message_is_pure_unscheduled():
    sim, net, driver = homa_net()
    # Smaller than RTTbytes: must complete without any grant.
    flow = driver.start_flow(0, 3, driver.rtt_bytes // 2, at_ns=0)
    driver.run(until_ns=1 * MSEC)
    assert flow.completed
    scheduler = driver._homa_schedulers.get(3)
    assert scheduler is None or scheduler.grants_sent == 0


def test_large_message_needs_grants():
    sim, net, driver = homa_net()
    flow = driver.start_flow(0, 3, 10 * driver.rtt_bytes, at_ns=0)
    driver.run(until_ns=5 * MSEC)
    assert flow.completed
    assert driver._homa_schedulers[3].grants_sent > 0


def test_srpt_prefers_shorter_message():
    sim, net, driver = homa_net(left=3)
    long_flow = driver.start_flow(0, 3, 5_000_000, at_ns=0)
    short_flow = driver.start_flow(1, 3, 100_000, at_ns=100_000)
    driver.run(until_ns=20 * MSEC)
    assert short_flow.completed and long_flow.completed
    # SRPT: the short message must finish far earlier.
    assert short_flow.finish_ns < long_flow.finish_ns


def test_grant_outstanding_bounded_by_rtt_bytes():
    sim, net, driver = homa_net()
    flow = driver.start_flow(0, 3, 1_000_000, at_ns=0)
    sender = None
    horizon = 100_000
    while horizon <= 2 * MSEC:
        driver.run(until_ns=horizon)
        sender = driver.senders[flow.flow_id]
        outstanding = sender.granted - flow.bytes_received
        assert outstanding <= driver.rtt_bytes + sender.mtu_payload
        horizon += 100_000


def test_unscheduled_burst_leaves_at_line_rate():
    sim, net, driver = homa_net()
    flow = driver.start_flow(0, 3, driver.rtt_bytes, at_ns=0)
    # Run just past the serialization of RTTbytes at line rate.
    wire_time = int(driver.rtt_bytes * 8 / 10)  # ns at 10 Gbps (approx)
    driver.run(until_ns=2 * wire_time)
    sender = driver.senders[flow.flow_id]
    assert sender.snd_nxt == driver.rtt_bytes  # everything already sent


def test_overcommit_grants_multiple_messages():
    sim, net, driver = homa_net(left=3, overcommit=2)
    f1 = driver.start_flow(0, 3, 500_000, at_ns=0)
    f2 = driver.start_flow(1, 3, 500_000, at_ns=0)
    driver.run(until_ns=200_000)
    s1 = driver.senders[f1.flow_id]
    s2 = driver.senders[f2.flow_id]
    # With overcommitment 2 both messages hold grants beyond unscheduled.
    assert s1.granted > driver.rtt_bytes
    assert s2.granted > driver.rtt_bytes


def test_overcommit_one_serializes_messages():
    sim, net, driver = homa_net(left=3, overcommit=1)
    f1 = driver.start_flow(0, 3, 500_000, at_ns=0)
    f2 = driver.start_flow(1, 3, 500_001, at_ns=0)  # strictly larger
    driver.run(until_ns=200_000)
    s1 = driver.senders[f1.flow_id]
    s2 = driver.senders[f2.flow_id]
    # SRPT with OC=1: only the shorter message is being granted.
    assert s1.granted > driver.rtt_bytes
    assert s2.granted == driver.rtt_bytes


def test_homa_receiver_buffers_out_of_order():
    sim, net, driver = homa_net()
    flow = driver.start_flow(0, 3, 50_000, at_ns=0)
    driver.run(until_ns=100)  # let endpoints register
    receiver = net.host(3).endpoints[flow.flow_id]
    from repro.sim.packet import Packet

    receiver.on_packet(Packet.data(flow.flow_id, 0, 3, seq=1000, payload=1000))
    assert receiver.rcv_nxt == 0  # buffered, not advanced
    receiver.on_packet(Packet.data(flow.flow_id, 0, 3, seq=0, payload=1000))
    assert receiver.rcv_nxt == 2000  # gap filled + buffered range absorbed


# ----------------------------------------------------------------------
# The incremental SRPT order is srpt_first, grant for grant
# ----------------------------------------------------------------------
GRANT_CELLS = [
    # the benchmark's two homa cells (the 255:1 one drops and times out)
    ("incast", dict(fanout=64, burst_bytes=60_000, duration_ns=9 * MSEC)),
    ("incast", dict(fanout=255, burst_bytes=60_000, duration_ns=9 * MSEC)),
    # the fig10 / fig11 entries of repro.figures
    ("incast", dict(fanout=64, burst_bytes=60_000, duration_ns=10 * MSEC,
                    cc_params={"overcommitment": 4})),
    ("incast", dict(fanout=10, burst_bytes=200_000, duration_ns=4 * MSEC,
                    cc_params={"overcommitment": 6})),
    # the fig9 entry of repro.figures
    ("fairness", dict(homa_overcommit=2)),
    ("fairness", dict(homa_overcommit=5)),
]


@pytest.mark.parametrize(
    "scenario, overrides", GRANT_CELLS,
    ids=[f"{s}-{i}" for i, (s, _) in enumerate(GRANT_CELLS)],
)
def test_grant_sequence_is_the_srpt_first_reference(
    scenario, overrides, monkeypatch
):
    grants = []
    send = Host.send

    def logging_send(self, pkt):
        if pkt.kind == GRANT:
            grants.append(
                (self.sim.now, pkt.flow_id, pkt.grant_bytes, pkt.sched_priority)
            )
        send(self, pkt)

    monkeypatch.setattr(Host, "send", logging_send)
    run = lambda: get_scenario(scenario).run(algorithm="homa", **overrides)
    result = run()
    incremental, grants[:] = list(grants), []
    monkeypatch.setattr(
        HomaGrantScheduler, "_candidates",
        lambda self: srpt_first(self.active.values(), self.overcommitment),
    )
    reference = run()
    assert len(incremental) > 100 and incremental == grants
    assert result.metrics == reference.metrics
    assert (
        result.provenance["events_processed"]
        == reference.provenance["events_processed"]
    )


def test_stale_srpt_keys_are_swept():
    sim, net, driver = homa_net(left=3)
    driver.start_flow(0, 3, 5_000_000, at_ns=0)
    driver.start_flow(1, 3, 4_000_000, at_ns=0)
    driver.run(until_ns=3 * MSEC)  # thousands of segments, two messages
    scheduler = driver._homa_schedulers[3]
    assert len(scheduler.active) == 2
    assert len(scheduler._ranked) <= 2 * 2 + 65
    assert scheduler._candidates() == srpt_first(scheduler.active.values(), 1)
