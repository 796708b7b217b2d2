"""Permutation traffic on the fat-tree (ROADMAP scenario).

Every host sends one fixed-size message to a distinct host drawn from a
seeded random derangement (:func:`repro.workloads.permutation.permutation_pairs`),
so no receiver NIC is oversubscribed and the stress lands on the fabric:
with the scaled fat-tree's 2:1 ToR oversubscription, cross-rack
permutations contend for the uplinks.  A useful complement to incast
(receiver-bound) and web-search (Poisson) workloads: the permutation is
the canonical throughput/fairness stress for datacenter CC schemes.

Reported: completion count, tail FCT slowdown, aggregate goodput as a
fraction of the host line-rate bound, Jain fairness over per-flow
goodputs, and drops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.fairness import jain_index
from repro.analysis.fct import FctSummary, summarize_fct
from repro.experiments.driver import FlowDriver
from repro.experiments.websearch import ScaledFatTreeConfig
from repro.scenarios import registry as scenario_registry
from repro.scenarios.base import Scenario
from repro.sim.engine import Simulator
from repro.topology.registry import build_topology
from repro.transport.flow import Flow
from repro.units import BITS_PER_BYTE, MSEC, SEC
from repro.workloads.permutation import permutation_pairs


@dataclass
class PermutationConfig(ScaledFatTreeConfig):
    """One permutation cell: an algorithm, a message size, a seed."""

    algorithm: str = "powertcp"
    flow_bytes: int = 1_000_000
    #: fat-tree fields laid over ``scaled_fattree()``
    topology_params: Optional[dict] = None
    duration_ns: int = 4 * MSEC
    drain_ns: int = 16 * MSEC
    seed: int = 1
    mtu_payload: int = 1000
    cc_params: Optional[dict] = None


@dataclass
class PermutationResult:
    """Completed flows plus derived throughput/fairness statistics."""

    algorithm: str
    flow_bytes: int
    base_rtt_ns: int = 0
    host_bw_bps: float = 0.0
    flows: List[Flow] = field(default_factory=list)
    drops: int = 0
    events_processed: int = 0
    #: flow id -> exact per-path ideal FCT in ns
    ideal_fcts_ns: Optional[Dict[int, int]] = None

    def fct_summary(self, pct: float = 99.0) -> FctSummary:
        """Tail FCT slowdowns over the permutation's flows."""
        return summarize_fct(
            self.algorithm,
            self.flows,
            self.base_rtt_ns,
            self.host_bw_bps,
            pct,
            ideal_fcts_ns=self.ideal_fcts_ns,
        )

    def per_flow_goodput_bps(self) -> List[float]:
        """Goodput of each completed flow (size / FCT)."""
        return [
            f.size_bytes * BITS_PER_BYTE * SEC / f.fct_ns
            for f in self.flows
            if f.completed and f.fct_ns > 0
        ]

    def goodput_jain(self) -> Optional[float]:
        """Jain index across completed-flow goodputs."""
        goodputs = self.per_flow_goodput_bps()
        return jain_index(goodputs) if goodputs else None

    def aggregate_goodput_fraction(self) -> float:
        """Sum of flow goodputs over the all-hosts line-rate bound."""
        if not self.flows or self.host_bw_bps <= 0:
            return 0.0
        bound = len(self.flows) * self.host_bw_bps
        return sum(self.per_flow_goodput_bps()) / bound


def run_permutation(config: PermutationConfig) -> PermutationResult:
    """Run one permutation cell: every host sends to its derangement peer."""
    params = config.fabric()
    sim = Simulator()
    net = build_topology(sim, "fattree", params)
    driver = FlowDriver(
        net,
        config.algorithm,
        mtu_payload=config.mtu_payload,
        cc_params=config.cc_params,
    )

    rng = random.Random(config.seed)
    for src, dst in permutation_pairs(rng, net.num_hosts):
        driver.start_flow(src, dst, config.flow_bytes, at_ns=0)

    driver.run(until_ns=config.duration_ns + config.drain_ns)

    result = PermutationResult(
        algorithm=config.algorithm,
        flow_bytes=config.flow_bytes,
        base_rtt_ns=net.base_rtt_ns,
        host_bw_bps=params.host_bw_bps,
    )
    result.ideal_fcts_ns = driver.ideal_fcts_ns()
    result.flows = driver.flows
    result.drops = net.total_drops()
    result.events_processed = sim.events_processed
    return result


@scenario_registry.register
class PermutationScenario(Scenario):
    """Host-level permutation stress on the fat-tree fabric."""

    name = "permutation"
    description = "seeded host permutation on the fat-tree; goodput + Jain"
    config_cls = PermutationConfig

    def tiny_overrides(self) -> dict:
        return dict(flow_bytes=50_000, duration_ns=1 * MSEC, drain_ns=3 * MSEC)

    def build(self, config):
        return lambda: run_permutation(config)

    def collect(self, config, raw: PermutationResult):
        summary = raw.fct_summary(pct=99.0)
        metrics = {
            "completed": summary.completed,
            "total_flows": summary.total,
            "fct_p99_overall": summary.overall,
            "goodput_jain": raw.goodput_jain(),
            "aggregate_goodput_fraction": raw.aggregate_goodput_fraction(),
            "drops": raw.drops,
        }
        goodputs = raw.per_flow_goodput_bps()
        series = {"per_flow_goodput_bps": goodputs}
        return metrics, series
