"""Derived wiring: `Network.install_routes` / `path_profile` against oracles.

The route tables the four builders used to write out by hand survive
here, transcribed by port name, as the oracle for the derived ones —
ECMP candidate *order* is what the flow hash indexes, so it is pinned by
a test that fails in milliseconds and not only by the figure series
(docs/INVARIANTS.md#derived-routing).
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.topology import (
    DumbbellParams,
    FatTreeParams,
    ParkingLotParams,
    RdcnParams,
    build_topology,
    topology_names,
)
from repro.units import GBPS


def route_names(net):
    """{switch name: {dst: [candidate port names, in row order]}}."""
    return {
        s.name: {dst: [p.name for p in row] for dst, row in sorted(s.routes.items())}
        for s in net.switches
    }


# ----------------------------------------------------------------------
# (a) the hand-written tables, as expected rows by port name
# ----------------------------------------------------------------------
def fattree_rows(p):
    """ToR -> its uplinks in ``a`` order, agg -> cores in ``c`` order or
    the one downlink, core -> the dst pod's aggs in ``a`` order."""
    rows = {}
    for tor in range(p.num_tors):
        rows[f"tor{tor}"] = {
            dst: [f"tor{tor}-down-{dst}"]
            if p.tor_of_host(dst) == tor
            else [f"tor{tor}-up{a}" for a in range(p.aggs_per_pod)]
            for dst in range(p.num_hosts)
        }
    for pod, a in itertools.product(range(p.num_pods), range(p.aggs_per_pod)):
        rows[f"agg{pod}-{a}"] = {
            dst: [f"agg{pod}-{a}-down{p.tor_of_host(dst) % p.tors_per_pod}"]
            if p.pod_of_host(dst) == pod
            else [f"agg{pod}-{a}-up{c}" for c in range(p.num_cores)]
            for dst in range(p.num_hosts)
        }
    for c in range(p.num_cores):
        rows[f"core{c}"] = {
            dst: [
                f"core{c}-down{p.pod_of_host(dst)}-{a}" for a in range(p.aggs_per_pod)
            ]
            for dst in range(p.num_hosts)
        }
    return rows


def dumbbell_rows(p):
    hosts = range(p.left_hosts + p.right_hosts)
    return {
        "left": {
            dst: [f"left-down-{dst}"] if dst < p.left_hosts else ["bottleneck"]
            for dst in hosts
        },
        "right": {
            dst: ["bottleneck-reverse"] if dst < p.left_hosts else [f"right-down-{dst}"]
            for dst in hosts
        },
    }


def parkinglot_rows(p):
    """Rightward over ``link{i}``, leftward over ``link{i-1}-rev``."""
    attached = {p.e2e_src: 0, p.e2e_dst: p.segments}
    for segment in range(p.segments):
        attached[p.cross_src(segment)] = segment
        attached[p.cross_dst(segment)] = segment + 1

    def row(index, dst):
        if index == attached[dst]:
            return [f"s{index}-down-{dst}"]
        return [f"link{index}"] if index < attached[dst] else [f"link{index - 1}-rev"]

    return {
        f"s{index}": {dst: row(index, dst) for dst in range(p.num_hosts)}
        for index in range(p.segments + 1)
    }


@pytest.mark.parametrize(
    "name, oracle, params",
    [
        ("fattree", fattree_rows, FatTreeParams()),
        ("fattree", fattree_rows, FatTreeParams(num_pods=2, hosts_per_tor=4)),
        ("fattree", fattree_rows, FatTreeParams(
            num_pods=3, tors_per_pod=3, aggs_per_pod=2, num_cores=4, hosts_per_tor=2)),
        ("dumbbell", dumbbell_rows, DumbbellParams()),
        ("dumbbell", dumbbell_rows, DumbbellParams(left_hosts=16, right_hosts=16)),
        ("dumbbell", dumbbell_rows, DumbbellParams(left_hosts=65, right_hosts=1)),
        ("parkinglot", parkinglot_rows, ParkingLotParams()),
        ("parkinglot", parkinglot_rows, ParkingLotParams(segments=5)),
        ("parkinglot", parkinglot_rows, ParkingLotParams(
            segments=4,
            segment_bw_bps=[10 * GBPS, 5 * GBPS, 8 * GBPS, 2 * GBPS],
            segment_delay_ns=[1000, 2000, 3000, 4000])),
    ],
)
def test_derived_rows_equal_the_hand_written_tables(name, oracle, params):
    net = build_topology(Simulator(), name, params)
    assert route_names(net) == oracle(params)


def test_rdcn_packet_core_rows_and_unused_tor_rows():
    p = RdcnParams(num_tors=4, hosts_per_tor=3)
    net = build_topology(Simulator(), "rdcn", p)
    rows = route_names(net)
    hosts = range(p.num_tors * p.hosts_per_tor)
    assert rows["packet-core"] == {
        dst: [f"pktcore-down{p.tor_of_host(dst)}"] for dst in hosts
    }
    # Local rows are what RdcnToR.receive reads; the remote rows (packet
    # uplink) exist for path_profile only.  The peerless circuit port is
    # never a candidate.
    for t in range(p.num_tors):
        assert rows[f"rtor{t}"] == {
            dst: [f"rtor{t}-down-{dst}" if p.tor_of_host(dst) == t else f"tor{t}-pktup"]
            for dst in hosts
        }


# ----------------------------------------------------------------------
# base RTT is the maximum over pairs; the two reproduced defects
# ----------------------------------------------------------------------
NON_DEFAULT_SHAPES = {
    "fattree": dict(num_pods=1, hosts_per_tor=2),
    "dumbbell": dict(left_hosts=3, right_hosts=5, bottleneck_bw_bps=25 * GBPS),
    "parkinglot": dict(segments=3, segment_delay_ns=[1000, 5000, 2000]),
    "rdcn": dict(num_tors=4, hosts_per_tor=3),
}


@pytest.mark.parametrize("name", topology_names())
@pytest.mark.parametrize("shape", ["default", "non-default"])
def test_base_rtt_is_the_largest_pair_rtt(name, shape):
    overrides = NON_DEFAULT_SHAPES[name] if shape == "non-default" else {}
    net = build_topology(Simulator(), name, **overrides)
    hosts = range(net.num_hosts)
    assert net.base_rtt_ns == max(
        net.path_rtt_ns(a, b) for a in hosts for b in hosts if a != b
    )


def test_single_pod_fattree_base_rtt_is_not_the_inter_pod_rtt():
    one_pod = build_topology(Simulator(), "fattree", num_pods=1, hosts_per_tor=2)
    assert one_pod.base_rtt_ns == 8894  # was 29,074: a path that does not exist
    one_tor = build_topology(Simulator(), "fattree", num_pods=1, tors_per_pod=1)
    assert one_tor.base_rtt_ns == 4714


@pytest.mark.parametrize("side", ["left_hosts", "right_hosts"])
def test_dumbbell_rejects_an_empty_side(side):
    with pytest.raises(ValueError, match=side):
        DumbbellParams(**{side: 0})


# ----------------------------------------------------------------------
# (b) ROADMAP item 5: INT hop count = path length, link for link
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name, overrides",
    [
        ("fattree", dict(num_pods=2, hosts_per_tor=2)),
        ("dumbbell", dict(left_hosts=3, right_hosts=2, bottleneck_bw_bps=40 * GBPS)),
        ("parkinglot", dict(segments=2, segment_bw_bps=[4 * GBPS, 8 * GBPS])),
        ("rdcn", dict(num_tors=3, hosts_per_tor=2)),
    ],
)
def test_int_stamps_follow_the_path_profile(name, overrides):
    sim = Simulator()
    net = build_topology(sim, name, **overrides)
    seen = []
    for host in net.hosts:
        host.default_handler = seen.append
    pairs = list(itertools.permutations(range(net.num_hosts), 2))
    for flow_id, (src, dst) in enumerate(pairs):
        net.host(src).send(Packet.data(flow_id, src, dst, 0, 1000, int_enabled=True))
    # RDCN: stop before the first day, so the packet network carries it.
    night_ns = getattr(net.extras["params"], "night_ns", None)
    sim.run(until=night_ns and night_ns - 1)
    assert len(seen) == len(pairs)
    for pkt in seen:
        stamped = tuple(hop.bandwidth_bps for hop in pkt.int_hops)
        assert stamped == net.path_profile(pkt.src, pkt.dst)[0][1:]


# ----------------------------------------------------------------------
# (c) shortest-path property over small random shapes
# ----------------------------------------------------------------------
_SHAPES = st.one_of(
    st.tuples(
        st.just("fattree"),
        st.fixed_dictionaries(dict(
            num_pods=st.integers(1, 3), tors_per_pod=st.integers(1, 3),
            aggs_per_pod=st.integers(1, 3), num_cores=st.integers(1, 3),
            hosts_per_tor=st.integers(1, 2))),
    ),
    st.tuples(
        st.just("parkinglot"), st.fixed_dictionaries(dict(segments=st.integers(1, 5)))
    ),
    st.tuples(
        st.just("dumbbell"),
        st.fixed_dictionaries(dict(
            left_hosts=st.integers(1, 4), right_hosts=st.integers(1, 4))),
    ),
)


def hops_to(net, dst):
    """Independent BFS: switch -> hop count to ``dst``'s edge switch."""
    dist = {net.host(dst).nic.peer: 0}
    while True:
        grown = {
            s: min(dist[p.peer] for p in s.ports if p.peer in dist) + 1
            for s in net.switches
            if s not in dist and any(p.peer in dist for p in s.ports)
        }
        if not grown:
            return dist
        dist.update(grown)


@settings(max_examples=25, deadline=None)
@given(_SHAPES)
def test_every_candidate_is_one_hop_closer(shape):
    name, overrides = shape
    net = build_topology(Simulator(), name, **overrides)
    for dst in range(net.num_hosts):
        dist = hops_to(net, dst)
        assert set(dist) == set(net.switches)  # every pair is reachable
        for switch in net.switches:
            row = switch.routes[dst]
            assert row
            for port in row:
                if dist[switch] == 0:
                    assert port.peer is net.host(dst)
                else:
                    assert dist[port.peer] == dist[switch] - 1
    for switch in net.switches:
        assert switch._single == {
            dst: row[0] for dst, row in switch.routes.items() if len(row) == 1
        }
