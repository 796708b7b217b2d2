"""Property 1 (paper §3.1): power equals the bandwidth-window product.

We run long flows to steady state on a dumbbell and verify that the power
computed from INT feedback at the bottleneck matches ``b · w(t − t_f)``
— i.e. the measured normalized power equals the aggregate window in BDP
units.  This is the identity the whole control law rests on.
"""

import pytest

from repro.cc.base import StaticWindow
from repro.experiments.driver import FlowDriver
from repro.sim.engine import Simulator
from repro.topology.dumbbell import DumbbellParams, build_dumbbell
from repro.units import BITS_PER_BYTE, GBPS, MSEC, SEC


def run_steady_state(num_flows, window_bdp_multiple):
    sim = Simulator()
    net = build_dumbbell(
        sim,
        DumbbellParams(
            left_hosts=num_flows,
            right_hosts=1,
            host_bw_bps=10 * GBPS,
            bottleneck_bw_bps=10 * GBPS,
        ),
    )
    driver = FlowDriver(
        net,
        "static",
        cc_params={"bdp_multiple": window_bdp_multiple / num_flows},
    )
    flows = [
        driver.start_flow(i, num_flows, 10 ** 10, at_ns=0)
        for i in range(num_flows)
    ]
    driver.run(until_ns=3 * MSEC)
    return sim, net, driver, flows


def measured_norm_power(net, driver, flows):
    """Recompute normalized power from two fresh bottleneck INT stamps."""
    from repro.core.power import normalized_power_from_hop

    bottleneck = net.port("bottleneck")

    # Sample two dequeue events one base-RTT apart via the port counters.
    t0 = (net.sim.now, bottleneck.qlen_bytes, bottleneck.tx_bytes)
    net.sim.run(until=net.sim.now + net.base_rtt_ns)
    t1 = (net.sim.now, bottleneck.qlen_bytes, bottleneck.tx_bytes)

    from repro.sim.packet import HopRecord

    prev = HopRecord(t0[1], t0[0], t0[2], bottleneck.rate_bps, bottleneck.port_id)
    cur = HopRecord(t1[1], t1[0], t1[2], bottleneck.rate_bps, bottleneck.port_id)
    sample = normalized_power_from_hop(cur, prev, net.base_rtt_ns)
    return sample.norm


@pytest.mark.parametrize("num_flows", [1, 2, 4])
def test_power_equals_bandwidth_window_product(num_flows):
    """In steady state with aggregate inflight W, measured power / e must
    be W / BDP (Property 1, normalized form).

    The aggregate *inflight* bytes realize w(t − t_f): with a single flow
    whose NIC rate equals the bottleneck rate, ACK clocking caps inflight
    below the configured window, and power tracks the realized value —
    exactly what Property 1 states.
    """
    window_multiple = 1.5  # aggregate window of 1.5 BDP: standing queue
    sim, net, driver, flows = run_steady_state(num_flows, window_multiple)
    norm = measured_norm_power(net, driver, flows)

    wire_factor = 1048 / 1000  # header overhead on MTU segments
    aggregate_inflight = sum(
        driver.senders[f.flow_id].inflight for f in flows
    )
    bdp = net.host_bw_bps * net.base_rtt_ns / (BITS_PER_BYTE * SEC)
    expected = aggregate_inflight * wire_factor / bdp
    assert norm == pytest.approx(expected, rel=0.15)


def test_power_one_when_window_equals_bdp():
    sim, net, driver, flows = run_steady_state(2, 1.0)
    norm = measured_norm_power(net, driver, flows)
    assert norm == pytest.approx(1.0, rel=0.15)


def test_underutilized_pipe_power_below_one():
    sim, net, driver, flows = run_steady_state(2, 0.5)
    norm = measured_norm_power(net, driver, flows)
    assert norm == pytest.approx(0.5, rel=0.2)
