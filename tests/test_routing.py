"""Routing-layer tests: registry, default ECMP, policies, spray transport.

Covers the contracts the routing refactor introduced:

* registry resolution (aliases, unknown names/params fail loudly);
* the default inline ECMP (``policy=None``) that keeps committed figure
  series byte-identical, its equivalence to the registered ``ecmp``
  policy object, and ``set_policy(None)`` restoring it;
* per-policy determinism (fixed seed => identical per-port bytes);
* spray rotation and seeded random picks;
* spray + reorder-tolerant receiver end-to-end delivery (all bytes
  ACKed, zero retransmissions on an uncongested fabric);
* the lb_matrix scenario separating the policies' fabric metrics;
* the HOMA x spray incompatibility error.
"""


import pytest

from repro.experiments.driver import FlowDriver
from repro.routing import (
    POLICIES,
    Requirements,
    get_policy,
    load_builtin_policies,
    make_policy,
    policy_names,
)
from repro.routing.ecmp import EcmpPolicy
from repro.routing.spray import SprayPolicy
from repro.sim.engine import Simulator
from repro.sim.host import Host
from repro.sim.packet import Packet
from repro.sim.port import EgressPort
from repro.sim.switch import RoutingError, Switch, ecmp_index
from repro.topology.registry import build_topology, make_topology_params
from repro.transport.flow import Flow
from repro.transport.receiver import Receiver
from repro.units import GBPS, MSEC

ALL_POLICIES = ("ecmp", "spray")


def tiny_fattree(**overrides):
    return make_topology_params(
        "fattree",
        num_pods=2,
        tors_per_pod=2,
        aggs_per_pod=2,
        num_cores=2,
        hosts_per_tor=2,
        host_bw_bps=10 * GBPS,
        fabric_bw_bps=10 * GBPS,
        **overrides,
    )


def run_cross_pod_flows(params, flow_bytes=40_000, flows=4, horizon=20 * MSEC):
    """A few cross-pod flows; returns (net, driver)."""
    sim = Simulator()
    net = build_topology(sim, "fattree", params)
    driver = FlowDriver(net, "powertcp")
    half = net.num_hosts // 2
    for i in range(flows):
        driver.start_flow(i % half, half + (i % half), flow_bytes, at_ns=0)
    driver.run(until_ns=horizon)
    return net, driver


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_catalog_lists_builtins():
    load_builtin_policies()
    assert set(ALL_POLICIES) <= set(policy_names())


def test_unknown_policy_raises_with_catalog():
    with pytest.raises(KeyError, match="ecmp"):
        get_policy("nope")


def test_aliases_resolve():
    assert get_policy("packet-spray").name == "spray"
    assert get_policy("hash").name == "ecmp"


def test_unknown_param_raises_typeerror():
    with pytest.raises(TypeError, match="bogus"):
        make_policy("spray", bogus=1)


def test_bad_param_values_raise():
    with pytest.raises(ValueError, match="mode"):
        make_policy("spray", mode="chaos").create()


def test_requirements_union():
    spray = get_policy("spray").requirements
    ecmp = get_policy("ecmp").requirements
    union = Requirements.union([spray, ecmp])
    assert union.reordering_tolerant_receiver
    assert not union.flow_stable
    empty = Requirements.union([])
    assert not empty.reordering_tolerant_receiver
    assert empty.flow_stable


def test_spec_create_returns_fresh_instances():
    spec = make_policy("spray")
    a, b = spec.create(), spec.create()
    assert a is not b


# ----------------------------------------------------------------------
# default ECMP (the byte-identity path)
# ----------------------------------------------------------------------
def forwarded_picks(switch, dst, flows=range(64)):
    """Index of the port ``switch.receive`` hands each flow's packet to."""

    def accepted():
        return [port.tx_bytes + port.qlen_bytes for port in switch.ports]

    picks = []
    for flow in flows:
        before = accepted()
        switch.receive(Packet.data(flow, 0, dst, 0, 100))
        (pick,) = [i for i, (b, a) in enumerate(zip(before, accepted())) if a != b]
        picks.append(pick)
    return picks


def four_way_switch(sim, switch_id, policy=None):
    switch = Switch(sim, switch_id, policy=policy)
    ports = [switch.add_port(EgressPort(sim, GBPS, 100)) for _ in range(4)]
    switch.set_route(9, tuple(ports))
    return switch


def test_default_switch_forwards_by_inline_ecmp():
    sim = Simulator()
    plain = four_way_switch(sim, 3)
    assert plain.policy is None
    expected = [ecmp_index(flow, 3, 4) for flow in range(64)]
    assert forwarded_picks(plain, 9) == expected
    assert forwarded_picks(four_way_switch(sim, 3, EcmpPolicy()), 9) == expected


def test_default_fattree_switches_carry_no_policy_object():
    sim = Simulator()
    net = build_topology(sim, "fattree", tiny_fattree())
    assert all(s.policy is None for s in net.switches)
    assert net.routing_name == "ecmp"
    assert net.routing_params == {}
    assert net.describe()["routing"] == "ecmp"


def test_set_policy_none_restores_the_default_picks():
    def fattree_tor():
        net = build_topology(Simulator(), "fattree", tiny_fattree())
        tor = net.switches[0]
        dst = next(d for d, row in sorted(tor.routes.items()) if len(row) > 1)
        return tor, dst

    untouched, dst = fattree_tor()
    toggled, _ = fattree_tor()
    toggled.set_policy(SprayPolicy())
    sprayed = forwarded_picks(toggled, dst, flows=[7] * 4)
    assert len(set(sprayed)) > 1  # the policy really was in charge
    toggled.set_policy(None)
    assert toggled.policy is None
    assert forwarded_picks(toggled, dst) == forwarded_picks(untouched, dst)


def test_policy_instances_are_per_switch():
    sim = Simulator()
    policy = EcmpPolicy()
    Switch(sim, 1, policy=policy)
    with pytest.raises(ValueError, match="per-switch"):
        Switch(sim, 2, policy=policy)


# ----------------------------------------------------------------------
# routing errors (bugfix: bare KeyError(dst))
# ----------------------------------------------------------------------
def test_unknown_destination_names_switch_and_routes():
    sim = Simulator()
    for policy in (None, EcmpPolicy()):
        switch = Switch(sim, 7, "leaf", policy=policy)
        port = switch.add_port(EgressPort(sim, GBPS, 100))
        switch.set_route(1, (port,))
        switch.set_route(2, (port,))
        with pytest.raises(RoutingError) as err:
            switch.receive(Packet.data(5, 0, 99, 0, 100))
        assert isinstance(err.value, KeyError)  # backcompat
        assert "leaf" in str(err.value)
        assert "99" in str(err.value)
        assert err.value.known_destinations == (1, 2)


# ----------------------------------------------------------------------
# policy arithmetic
# ----------------------------------------------------------------------
def test_ecmp_policy_matches_inline_arithmetic():
    sim = Simulator()
    plain = Switch(sim, 3)
    routed = Switch(sim, 3, policy=EcmpPolicy())
    for switch in (plain, routed):
        ports = [switch.add_port(EgressPort(sim, GBPS, 100)) for _ in range(4)]
        switch.set_route(9, tuple(ports))
    for flow in range(64):
        pkt = Packet.data(flow, 0, 9, 0, 100)
        assert plain.ports.index(plain.route_for(pkt)) == routed.ports.index(
            routed.route_for(pkt)
        )
        assert plain.ports.index(plain.route_for(pkt)) == ecmp_index(
            flow, 3, 4
        )


def test_ecmp_salt_changes_mapping():
    picks = [ecmp_index(f, 1, 4) for f in range(32)]
    salted = [ecmp_index(f, 1, 4, salt=7) for f in range(32)]
    assert picks != salted


def test_spray_rotates_per_packet():
    policy = SprayPolicy()
    options = ("a", "b", "c")
    pkt = Packet.data(1, 0, 9, 0, 100)
    picks = [policy.select(pkt, options) for _ in range(6)]
    assert picks == ["a", "b", "c", "a", "b", "c"]


def test_spray_random_mode_is_seed_deterministic():
    class _Sw:
        switch_id = 5
        name = "s5"

    draws = []
    for _ in range(2):
        policy = SprayPolicy(mode="random", seed=3)
        policy.attach(_Sw())
        pkt = Packet.data(1, 0, 9, 0, 100)
        draws.append([policy.select(pkt, ("a", "b", "c")) for _ in range(16)])
    assert draws[0] == draws[1]
    assert len(set(draws[0])) > 1


# ----------------------------------------------------------------------
# determinism regression: fixed seed => identical per-port byte counts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("routing", ALL_POLICIES)
def test_policy_runs_are_deterministic(routing):
    def per_port_tx():
        net, _ = run_cross_pod_flows(
            tiny_fattree(routing=routing), flow_bytes=20_000
        )
        return [
            (s.name, p.name, p.tx_bytes)
            for s in net.switches
            for p in s.ports
        ]

    assert per_port_tx() == per_port_tx()


# ----------------------------------------------------------------------
# spray end-to-end: reordering tolerated, no spurious retransmissions
# ----------------------------------------------------------------------
def test_spray_delivers_all_bytes_without_retransmissions():
    net, driver = run_cross_pod_flows(
        tiny_fattree(routing="spray"), flow_bytes=60_000
    )
    assert net.routing_requirements().reordering_tolerant_receiver
    for flow in driver.flows:
        assert flow.completed
        assert flow.bytes_received == flow.size_bytes
        assert flow.retransmissions == 0
    assert net.total_drops() == 0


def test_reorder_tolerant_receiver_buffers_gap():
    sim = Simulator()
    host = Host(sim, 1)

    class _Sink:
        def receive(self, pkt):
            pass

    host.attach_nic(EgressPort(sim, GBPS, 100, peer=_Sink()))
    flow = Flow(5, 0, 1, 3000)
    receiver = Receiver(sim, host, flow, reorder_tolerant=True)
    receiver.start()
    # segments 2 and 3 arrive before segment 1
    receiver.on_packet(Packet.data(5, 0, 1, 1000, 1000))
    receiver.on_packet(Packet.data(5, 0, 1, 2000, 1000))
    assert receiver.rcv_nxt == 0
    assert receiver.out_of_order == 2
    receiver.on_packet(Packet.data(5, 0, 1, 0, 1000))
    assert receiver.rcv_nxt == 3000  # gap filled: cumulative ACK jumps
    assert flow.bytes_received == 3000
    assert flow.finish_ns is not None


def test_go_back_n_receiver_still_discards_gaps():
    sim = Simulator()
    host = Host(sim, 1)

    class _Sink:
        def receive(self, pkt):
            pass

    host.attach_nic(EgressPort(sim, GBPS, 100, peer=_Sink()))
    flow = Flow(5, 0, 1, 3000)
    receiver = Receiver(sim, host, flow)
    receiver.start()
    receiver.on_packet(Packet.data(5, 0, 1, 1000, 1000))
    receiver.on_packet(Packet.data(5, 0, 1, 0, 1000))
    assert receiver.rcv_nxt == 1000  # the buffered-jump never happens


# ----------------------------------------------------------------------
# lb_matrix scenario
# ----------------------------------------------------------------------
def test_lb_matrix_separates_policies():
    from repro.scenarios import get_scenario

    scenario = get_scenario("lb_matrix")
    signatures = {}
    for routing in ("ecmp", "spray"):
        result = scenario.run(
            **{**scenario.tiny_overrides(), "routing": routing}
        )
        metrics = result.metrics
        assert metrics["completed"] == metrics["total_flows"]
        signatures[routing] = (
            metrics["uplink_imbalance"],
            metrics["hotspot_peak_qlen_bytes"],
        )
        if routing == "spray":
            assert metrics["reorder_events"] > 0
            assert metrics["retransmissions"] == 0
        else:
            assert metrics["reorder_events"] == 0
    assert len(set(signatures.values())) == 2


def test_lb_matrix_does_not_mutate_shared_params():
    from repro.experiments.lbmatrix import LbMatrixConfig, run_lb_matrix

    fabric = {"hosts_per_tor": 2}
    config = LbMatrixConfig(
        routing="spray",
        topology_params=fabric,
        flow_bytes=20_000,
        duration_ns=1 * MSEC,
        drain_ns=2 * MSEC,
    )
    run_lb_matrix(config)
    assert fabric == {"hosts_per_tor": 2}
    assert config.fabric() == tiny_fattree(routing="spray", routing_params={})


# ----------------------------------------------------------------------
# HOMA x spray
# ----------------------------------------------------------------------
def test_homa_rejects_spraying_network():
    sim = Simulator()
    net = build_topology(sim, "fattree", tiny_fattree(routing="spray"))
    driver = FlowDriver(net, "homa")
    driver.start_flow(0, net.num_hosts - 1, 10_000, at_ns=0)
    with pytest.raises(ValueError, match="spray"):
        driver.run(until_ns=1 * MSEC)
