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


def test_cc_params_rejected_with_bound_spec():
    from repro.cc.registry import make_algorithm

    sim, net = make_net()
    with pytest.raises(ValueError, match="cc_params"):
        FlowDriver(net, make_algorithm("powertcp"), cc_params={"gamma": 0.5})


def test_algorithm_is_one_name_or_spec_per_run():
    sim, net = make_net()
    for algorithm in ({"*": "powertcp"}, lambda flow: "powertcp"):
        with pytest.raises(TypeError, match="name or an AlgorithmSpec"):
            FlowDriver(net, algorithm)


def test_int_law_switches_stamping_on_at_construction():
    sim, net = make_net()
    driver = FlowDriver(net, "powertcp")
    assert driver.spec.name == "powertcp"
    for switch in net.switches:
        for port in switch.ports:
            assert port.int_stamping
            assert port.ecn is None
