"""CC × load-balancing matrix on the fat-tree (routing-layer scenario).

One cell runs a seeded permutation workload on the scaled fat-tree under
a chosen congestion-control algorithm *and* a chosen routing policy
(:mod:`repro.routing`), then reports how well the fabric spread the load:

* **uplink imbalance** — max/mean of per-uplink transmitted bytes across
  every ToR uplink (1.0 = perfectly spread, higher = hash collisions
  concentrated flows on few links);
* **uplink CV** — coefficient of variation of the same distribution;
* **hotspot peak queue** — the deepest queue any uplink built, the
  collision symptom congestion control then has to fight;
* **FCT p99 slowdown, reordering, retransmissions, drops** — what the
  imbalance costs transport;
* **goodput** — per-flow goodputs, their Jain index and their sum as a
  fraction of the all-hosts line-rate bound.

At the default ``load=1.0`` under ECMP the cell is the classic host
permutation stress: every host sends to exactly one other host and
receives from exactly one (a seeded derangement,
:func:`repro.workloads.permutation.permutation_pairs`), so no receiver
NIC is oversubscribed and the contention lands on the 2:1 ToR uplinks.

Sweeping ``algorithm`` × ``routing`` × ``load`` (see
``python -m repro sweep lb_matrix``) produces the matrix that
``ResultSet.view("lb_matrix")`` (:mod:`repro.analysis.results`) tabulates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from statistics import mean, pstdev
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.analysis.fairness import jain_index
from repro.analysis.fct import FctSummary, summarize_fct
from repro.experiments.driver import FlowDriver
from repro.experiments.websearch import ScaledFatTreeConfig
from repro.scenarios import registry as scenario_registry
from repro.scenarios.base import Scenario
from repro.sim.engine import Simulator
from repro.topology.registry import build_topology, resolve_topology_params
from repro.transport.flow import Flow
from repro.units import BITS_PER_BYTE, MSEC, SEC

if TYPE_CHECKING:  # params type only; built via the topology registry
    from repro.topology.fattree import FatTreeParams


@dataclass
class LbMatrixConfig(ScaledFatTreeConfig):
    """One matrix cell: a CC algorithm × a routing policy × a load."""

    algorithm: str = "powertcp"
    routing: str = "ecmp"
    routing_params: Optional[dict] = None
    #: flows per host (1.0 = one permutation pair per host).
    load: float = 1.0
    flow_bytes: int = 500_000
    #: fat-tree fields laid over ``scaled_fattree()``; ``routing`` and
    #: ``routing_params`` above take precedence
    topology_params: Optional[dict] = None
    duration_ns: int = 4 * MSEC
    drain_ns: int = 16 * MSEC
    seed: int = 1
    mtu_payload: int = 1000
    cc_params: Optional[dict] = None

    def fabric(self) -> "FatTreeParams":
        """The fat-tree this cell runs on, under the cell's routing."""
        return resolve_topology_params("fattree", super().fabric(), dict(
            routing=self.routing,
            routing_params=dict(self.routing_params or {}),
        ))


@dataclass
class LbMatrixResult:
    """Flows plus the fabric-side load-spread measurements."""

    algorithm: str
    routing: str
    load: float
    base_rtt_ns: int = 0
    host_bw_bps: float = 0.0
    flows: List[Flow] = field(default_factory=list)
    #: transmitted bytes per ToR uplink, in builder order.
    uplink_tx_bytes: List[int] = field(default_factory=list)
    #: deepest queue any ToR uplink built (bytes).
    hotspot_peak_qlen_bytes: int = 0
    #: out-of-order data arrivals summed over all receivers.
    reorder_events: int = 0
    retransmissions: int = 0
    drops: int = 0
    events_processed: int = 0
    #: flow id -> exact per-path ideal FCT in ns
    ideal_fcts_ns: Optional[Dict[int, int]] = None

    def uplink_imbalance(self) -> Optional[float]:
        """max/mean of per-uplink tx bytes (None when nothing was sent)."""
        if not self.uplink_tx_bytes or not any(self.uplink_tx_bytes):
            return None
        return max(self.uplink_tx_bytes) / mean(self.uplink_tx_bytes)

    def uplink_cv(self) -> Optional[float]:
        """Coefficient of variation of per-uplink tx bytes."""
        if not self.uplink_tx_bytes or not any(self.uplink_tx_bytes):
            return None
        avg = mean(self.uplink_tx_bytes)
        return pstdev(self.uplink_tx_bytes) / avg

    def fct_summary(self, pct: float = 99.0) -> FctSummary:
        """Tail FCT slowdowns over the cell's flows."""
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


def run_lb_matrix(config: LbMatrixConfig) -> LbMatrixResult:
    """Run one cell: a seeded permutation under (algorithm, routing)."""
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
    count = max(1, round(config.load * net.num_hosts))
    for src, dst in net.flow_pairs(count, rng):
        driver.start_flow(src, dst, config.flow_bytes, at_ns=0)

    driver.run(until_ns=config.duration_ns + config.drain_ns)

    uplinks = [
        port
        for per_tor in net.extras["tor_uplinks"]
        for port in per_tor
    ]
    result = LbMatrixResult(
        algorithm=config.algorithm,
        routing=net.routing_name,
        load=config.load,
        base_rtt_ns=net.base_rtt_ns,
        host_bw_bps=params.host_bw_bps,
    )
    result.ideal_fcts_ns = driver.ideal_fcts_ns()
    result.flows = driver.flows
    result.uplink_tx_bytes = [port.tx_bytes for port in uplinks]
    result.hotspot_peak_qlen_bytes = max(
        (port.max_qlen_bytes for port in uplinks), default=0
    )
    result.reorder_events = sum(
        receiver.out_of_order for receiver in driver.receivers.values()
    )
    result.retransmissions = sum(f.retransmissions for f in driver.flows)
    result.drops = net.total_drops()
    result.events_processed = sim.events_processed
    return result


@scenario_registry.register
class LbMatrixScenario(Scenario):
    """CC × routing-policy × load matrix on the fat-tree fabric."""

    name = "lb_matrix"
    description = (
        "CC x routing-policy permutation on the fat-tree; "
        "uplink imbalance + hotspot queue + FCT tails + goodput"
    )
    config_cls = LbMatrixConfig

    def tiny_overrides(self) -> dict:
        return dict(flow_bytes=30_000, duration_ns=1 * MSEC, drain_ns=3 * MSEC)

    def build(self, config):
        return lambda: run_lb_matrix(config)

    def collect(self, config, raw: LbMatrixResult):
        summary = raw.fct_summary(pct=99.0)
        metrics = {
            "completed": summary.completed,
            "total_flows": summary.total,
            "fct_p99_overall": summary.overall,
            "goodput_jain": raw.goodput_jain(),
            "aggregate_goodput_fraction": raw.aggregate_goodput_fraction(),
            "uplink_imbalance": raw.uplink_imbalance(),
            "uplink_cv": raw.uplink_cv(),
            "hotspot_peak_qlen_bytes": raw.hotspot_peak_qlen_bytes,
            "reorder_events": raw.reorder_events,
            "retransmissions": raw.retransmissions,
            "drops": raw.drops,
        }
        series = {
            "per_uplink_tx_bytes": list(raw.uplink_tx_bytes),
            "per_flow_goodput_bps": raw.per_flow_goodput_bps(),
        }
        return metrics, series
