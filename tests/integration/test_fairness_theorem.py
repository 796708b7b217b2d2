"""Theorem 3: PowerTCP is β-weighted proportionally fair.

Two checks on the packet simulator:

* equal β -> equal long-run shares (Jain index ~ 1);
* β in ratio 1:2 -> throughput in (approximately) ratio 1:2, since
  ``(w_i)_e = (β̂ + b·τ)/β̂ · β_i`` (Appendix A).
"""

import dataclasses

import pytest

from repro.cc.registry import make_algorithm
from repro.core.powertcp import PowerTcp
from repro.experiments.driver import FlowDriver
from repro.experiments.fairness import FairnessConfig, run_fairness
from repro.sim.engine import Simulator
from repro.topology.dumbbell import DumbbellParams, build_dumbbell
from repro.units import GBPS, MSEC


def test_equal_beta_equal_shares():
    result = run_fairness(FairnessConfig(algorithm="powertcp"))
    assert result.final_epoch_jain() > 0.95


def test_jain_improves_to_near_one_by_last_epoch():
    result = run_fairness(FairnessConfig(algorithm="powertcp", num_flows=3))
    assert all(j > 0.9 for j in result.epoch_jain)


def test_weighted_fairness_follows_beta():
    """beta 500 : 1000 should share the bottleneck 1 : 2.

    Measured over 5-20 ms the ratio is 1.542 (1.543 from t=0; 1 ms
    windows run 1.45-1.70), so the test passes only through its +-35 %
    tolerance.  The gap to the predicted 2.0 is open: ROADMAP item 1(b)'s
    CC oracle is to explain it, and the tolerance is not to be widened.
    """
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
    betas = {0: 500.0, 1: 1000.0}

    # One PowerTCP spec whose per-flow factory gives each source its own
    # beta weighting.
    spec = make_algorithm("powertcp")
    spec.entry = dataclasses.replace(
        spec.entry,
        factory=lambda flow, net: PowerTcp(beta_bytes=betas[flow.src]),
    )
    driver = FlowDriver(net, spec)
    flows = [driver.start_flow(i, 2, 10 ** 11, at_ns=0) for i in range(2)]
    # Discard the first quarter (convergence), compare long-run goodput.
    driver.run(until_ns=5 * MSEC)
    converged = [f.bytes_received for f in flows]
    driver.run(until_ns=20 * MSEC)
    received = [f.bytes_received - c for f, c in zip(flows, converged)]
    ratio = received[1] / received[0]
    assert ratio == pytest.approx(2.0, rel=0.35)


def test_theta_powertcp_also_fair():
    result = run_fairness(FairnessConfig(algorithm="theta-powertcp"))
    assert result.final_epoch_jain() > 0.9
