"""Tests for the experiment driver (algorithm deployment + flow lifecycle)."""

import pytest

from repro.experiments.driver import FlowDriver
from repro.sim.engine import Simulator
from repro.topology.dumbbell import DumbbellParams, build_dumbbell
from repro.units import GBPS, MSEC


def make_net(left=2, right=1):
    sim = Simulator()
    net = build_dumbbell(
        sim,
        DumbbellParams(
            left_hosts=left,
            right_hosts=right,
            host_bw_bps=10 * GBPS,
            bottleneck_bw_bps=10 * GBPS,
        ),
    )
    return sim, net


def test_flow_ids_are_unique_and_dense():
    sim, net = make_net(left=3)
    driver = FlowDriver(net, "powertcp")
    flows = [driver.start_flow(i, 3, 1000, at_ns=0) for i in range(3)]
    assert [f.flow_id for f in flows] == [1, 2, 3]


def test_start_flow_validation():
    sim, net = make_net()
    driver = FlowDriver(net, "powertcp")
    with pytest.raises(ValueError):
        driver.start_flow(0, 0, 1000)
    with pytest.raises(ValueError):
        driver.start_flow(0, 2, 0)


def test_start_flow_in_the_past_raises_eagerly():
    sim, net = make_net()
    driver = FlowDriver(net, "powertcp")
    sim.run(until=1000)  # advance the clock past the intended start
    with pytest.raises(ValueError, match=r"'late'.*1->2.*before sim\.now=1000"):
        driver.start_flow(1, 2, 1000, at_ns=500, tag="late")
    assert driver.flows == []  # nothing half-registered


def test_completed_flows_collected():
    sim, net = make_net()
    driver = FlowDriver(net, "powertcp")
    driver.start_flow(0, 2, 10_000, at_ns=0)
    driver.start_flow(1, 2, 10_000, at_ns=0)
    driver.run(until_ns=2 * MSEC)
    assert len(driver.completed) == 2
    assert driver.unfinished == []


def test_deferred_start_respects_at_ns():
    sim, net = make_net()
    driver = FlowDriver(net, "powertcp")
    flow = driver.start_flow(0, 2, 1000, at_ns=500_000)
    driver.run(until_ns=1 * MSEC)
    assert flow.start_ns == 500_000


def test_dcqcn_gets_ecn_marking_on_ports():
    sim, net = make_net()
    FlowDriver(net, "dcqcn")
    for switch in net.switches:
        for port in switch.ports:
            assert port.ecn is not None


def test_dctcp_threshold_uses_base_rtt():
    sim, net = make_net()
    FlowDriver(net, "dctcp")
    port = net.port("bottleneck")
    assert port.ecn is not None
    assert port.ecn.kmin == port.ecn.kmax  # step marking


def test_powertcp_leaves_ecn_off():
    sim, net = make_net()
    FlowDriver(net, "powertcp")
    assert net.port("bottleneck").ecn is None


def test_int_disabled_for_delay_based():
    sim, net = make_net()
    driver = FlowDriver(net, "theta-powertcp")
    flow = driver.start_flow(0, 2, 10_000, at_ns=0)
    driver.run(until_ns=0)  # launched; a finished flow's sender is retired
    sender = driver.senders[flow.flow_id]
    driver.run(until_ns=1 * MSEC)
    assert not sender.int_enabled


def test_homa_shares_scheduler_per_destination():
    sim, net = make_net(left=3)
    driver = FlowDriver(net, "homa")
    driver.start_flow(0, 3, 100_000, at_ns=0)
    driver.start_flow(1, 3, 100_000, at_ns=0)
    driver.run(until_ns=100_000)
    assert len(driver._homa_schedulers) == 1  # one per destination host


def test_rtt_bytes_matches_host_bdp():
    sim, net = make_net()
    driver = FlowDriver(net, "homa")
    expected = int(net.host_bw_bps * net.base_rtt_ns / 8e9)
    assert driver.rtt_bytes == expected


def test_spec_object_can_be_passed_directly():
    from repro.cc.registry import make_algorithm

    sim, net = make_net()
    spec = make_algorithm("hpcc", eta=0.9)
    driver = FlowDriver(net, spec)
    flow = driver.start_flow(0, 2, 10_000, at_ns=0)
    driver.run(until_ns=1 * MSEC)
    assert flow.completed


def test_unknown_cc_param_fails_at_driver_construction():
    sim, net = make_net()
    with pytest.raises(TypeError, match="powertcp"):
        FlowDriver(net, "powertcp", cc_params={"gama": 0.9})


def test_cc_params_rejected_with_bound_spec_mapping_and_callable():
    from repro.cc.registry import make_algorithm

    sim, net = make_net()
    spec = make_algorithm("powertcp")
    for algorithm in (spec, {"*": "powertcp"}, lambda flow: "powertcp"):
        with pytest.raises(ValueError, match="cc_params"):
            FlowDriver(net, algorithm, cc_params={"gamma": 0.5})


# ----------------------------------------------------------------------
# Per-flow algorithm mixing
# ----------------------------------------------------------------------
def test_tag_mapping_assigns_per_flow_algorithms():
    sim, net = make_net(left=4)
    driver = FlowDriver(net, {"new": "powertcp", "old": "dcqcn"})
    a = driver.start_flow(0, 4, 20_000, at_ns=0, tag="new")
    b = driver.start_flow(1, 4, 20_000, at_ns=0, tag="old")
    driver.run(until_ns=2 * MSEC)
    assert (a.algorithm, b.algorithm) == ("powertcp", "dcqcn")
    assert a.completed and b.completed


def test_mixed_requirements_union_enables_int_and_ecn():
    sim, net = make_net(left=4)
    driver = FlowDriver(net, {"new": "powertcp", "old": "dcqcn"})
    a = driver.start_flow(0, 4, 20_000, at_ns=0, tag="new")
    b = driver.start_flow(1, 4, 20_000, at_ns=0, tag="old")
    driver.run(until_ns=0)  # launched; a finished flow's sender is retired
    senders = dict(driver.senders)
    driver.run(until_ns=2 * MSEC)
    # Union: PowerTCP's INT stamping and DCQCN's ECN marking both active.
    assert driver.requirements.int_stamping
    assert driver.requirements.needs_ecn
    for switch in net.switches:
        for port in switch.ports:
            assert port.ecn is not None
            assert port.int_stamping
    # Per-flow features stay per-flow: only the PowerTCP sender echoes INT.
    assert senders[a.flow_id].int_enabled
    assert not senders[b.flow_id].int_enabled
    assert senders[b.flow_id].ecn_capable
    assert not senders[a.flow_id].ecn_capable


def test_unmatched_tag_raises_eagerly():
    sim, net = make_net()
    driver = FlowDriver(net, {"new": "powertcp"})
    with pytest.raises(KeyError, match="stray"):
        driver.start_flow(0, 2, 1000, at_ns=0, tag="stray")
    assert driver.flows == []


def test_mapping_fallback_group():
    sim, net = make_net()
    driver = FlowDriver(net, {"new": "powertcp", "*": "timely"})
    flow = driver.start_flow(0, 2, 10_000, at_ns=0, tag="anything")
    driver.run(until_ns=1 * MSEC)
    assert flow.algorithm == "timely"


def test_callable_assignment_resolves_eagerly_per_flow():
    sim, net = make_net(left=4)
    driver = FlowDriver(
        net, lambda flow: "dcqcn" if flow.src % 2 else "powertcp"
    )
    assert driver.deployed == {}  # nothing resolved until flows exist
    driver.start_flow(0, 4, 10_000, at_ns=0)
    driver.start_flow(1, 4, 10_000, at_ns=0)
    # Resolution happens at start_flow, not at launch time.
    assert set(driver.deployed) == {"powertcp", "dcqcn"}
    driver.run(until_ns=2 * MSEC)
    assert net.port("bottleneck").ecn is not None


def test_callable_assignment_typo_fails_at_start_flow():
    sim, net = make_net()
    driver = FlowDriver(net, lambda flow: "powrtcp")  # typo
    with pytest.raises(KeyError, match="powrtcp"):
        driver.start_flow(0, 2, 10_000, at_ns=500_000)
    assert driver.flows == []  # nothing scheduled for mid-run failure


def test_start_flow_algorithm_override():
    sim, net = make_net(left=3)
    driver = FlowDriver(net, "powertcp")
    flow = driver.start_flow(0, 3, 10_000, at_ns=0, algorithm="swift")
    other = driver.start_flow(1, 3, 10_000, at_ns=0)
    driver.run(until_ns=2 * MSEC)
    assert flow.algorithm == "swift"
    assert set(driver.deployed) == {"powertcp", "swift"}
    assert flow.completed and other.completed


def test_conflicting_ecn_configs_raise():
    sim, net = make_net(left=3)
    driver = FlowDriver(net, "dcqcn")
    with pytest.raises(ValueError, match="conflicting ECN"):
        driver.start_flow(0, 3, 10_000, at_ns=0, algorithm="dctcp")
    # The rejected deploy leaves no trace: a compatible mix still works.
    assert set(driver.deployed) == {"dcqcn"}
    flow = driver.start_flow(0, 3, 10_000, at_ns=0, algorithm="powertcp")
    driver.run(until_ns=2 * MSEC)
    assert flow.completed
    assert set(driver.deployed) == {"dcqcn", "powertcp"}


def test_homa_and_window_transports_can_mix():
    sim, net = make_net(left=4)
    driver = FlowDriver(net, {"rpc": "homa", "*": "powertcp"})
    a = driver.start_flow(0, 4, 50_000, at_ns=0, tag="rpc")
    b = driver.start_flow(1, 4, 50_000, at_ns=0)
    driver.run(until_ns=2 * MSEC)
    assert a.completed and b.completed
    assert len(driver._homa_schedulers) == 1
    assert (a.algorithm, b.algorithm) == ("homa", "powertcp")
