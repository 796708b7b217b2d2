"""Theorem 2 on the packet simulator: PowerTCP converges within a few
update intervals after perturbations (the paper: "convergence time as low
as five update intervals")."""

import pytest

from repro.experiments.driver import FlowDriver
from repro.sim.engine import Simulator
from repro.sim.tracing import CounterRateProbe, Probe
from repro.topology.dumbbell import DumbbellParams, build_dumbbell
from repro.units import GBPS, MSEC, USEC


@pytest.fixture(scope="module")
def run_perturbation():
    """A long flow in steady state; a second flow joins, then leaves.

    One 8 ms run, shared by every test of this module."""
    sim = Simulator()
    net = build_dumbbell(
        sim,
        DumbbellParams(
            left_hosts=2,
            right_hosts=1,
            host_bw_bps=10 * GBPS,
            bottleneck_bw_bps=10 * GBPS,
        ),
    )
    driver = FlowDriver(net, "powertcp")
    long_flow = driver.start_flow(0, 2, 10 ** 11, at_ns=0)
    # The perturbing flow: joins at 2 ms, carries 1 ms of traffic.
    perturber = driver.start_flow(1, 2, 600_000, at_ns=2 * MSEC)
    probe = CounterRateProbe(
        sim, 50 * USEC, lambda: long_flow.bytes_received
    ).start()
    qprobe = Probe(sim, 50 * USEC, lambda: net.port("bottleneck").qlen_bytes).start()
    driver.run(until_ns=8 * MSEC)
    return net, long_flow, perturber, probe, qprobe


def test_long_flow_halves_then_recovers(run_perturbation):
    net, long_flow, perturber, probe, qprobe = run_perturbation
    assert perturber.completed

    def window_mean(start_ns, end_ns):
        vals = [
            r
            for t, r in zip(probe.times_ns, probe.rates_bps)
            if start_ns <= t < end_ns
        ]
        return sum(vals) / len(vals)

    before = window_mean(1 * MSEC, 2 * MSEC)
    during = window_mean(2.3 * MSEC, 2.8 * MSEC)
    after = window_mean(perturber.finish_ns + 500 * USEC, 8 * MSEC)
    assert before > 0.9 * 10e9  # full line before
    assert during < 0.7 * before  # gave bandwidth to the joiner
    assert after > 0.9 * before  # recovered the full rate


def test_recovery_within_tens_of_rtts(run_perturbation):
    """After the perturber leaves, the long flow must be back above 90 %
    of line rate within ~20 base RTTs (Theorem 2's fast convergence; the
    fluid bound is ~5 update intervals, packetization adds slack)."""
    net, long_flow, perturber, probe, qprobe = run_perturbation
    leave = perturber.finish_ns
    deadline = leave + 20 * net.base_rtt_ns
    recovered = [
        t
        for t, r in zip(probe.times_ns, probe.rates_bps)
        if t > leave and r > 9e9
    ]
    assert recovered, "never recovered"
    assert recovered[0] <= deadline


def test_queue_returns_to_near_zero_after_perturbation(run_perturbation):
    net, long_flow, perturber, probe, qprobe = run_perturbation
    tail = [
        q
        for t, q in zip(qprobe.times_ns, qprobe.values)
        if t > perturber.finish_ns + 1 * MSEC
    ]
    assert sum(tail) / len(tail) < 5_000  # a few KB at most
