"""Figs. 6 and 7: the web-search workload on the fat-tree.

Poisson arrivals of web-search-distributed flows between random inter-rack
host pairs, offered at a target ToR-uplink load.  ``requests_per_duration``
layers the synthetic distributed-file-system queries of §4.1 on top
(:func:`repro.workloads.incast.incast_queries`; 0, the default, adds
none).  Reported:

* 99.9-percentile FCT slowdown per flow-size bin (Fig. 6, at 20 %/60 %),
* short-flow and long-flow tail slowdown across loads (Fig. 7a/7b),
* the same tails across query rates and sizes (Fig. 7c-f), with the
  query flows' own tail,
* the CDF of switch buffer occupancy (Fig. 7g at 80 % load, Fig. 7h with
  queries).

The scaled-down topology default is 2:1 ToR oversubscription (event-budget
friendly); ``topology_params={"hosts_per_tor": 8}`` gives the paper's 4:1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.analysis.fct import FctSummary, slowdown_by_size_bin, summarize_fct
from repro.analysis.stats import percentile
from repro.experiments.driver import FlowDriver
from repro.scenarios import registry as scenario_registry
from repro.scenarios.base import Scenario
from repro.sim.engine import Simulator
from repro.sim.tracing import Probe
from repro.topology.registry import (
    build_topology,
    make_topology_params,
    resolve_topology_params,
)
from repro.transport.flow import Flow
from repro.units import GBPS, MSEC, USEC
from repro.workloads.arrivals import poisson_flows
from repro.workloads.distributions import WEB_SEARCH
from repro.workloads.incast import incast_queries

if TYPE_CHECKING:  # params type only; built via the topology registry
    from repro.topology.fattree import FatTreeParams


def scaled_fattree(
    hosts_per_tor: Optional[int] = None,
    host_bw_bps: float = 10 * GBPS,
    fabric_bw_bps: float = 10 * GBPS,
    num_pods: int = 2,
    paper_oversub: bool = False,
) -> "FatTreeParams":
    """A small 2-tier fat-tree.

    The default builds a **2:1** ToR oversubscription (4 hosts x 10 G =
    40 G down vs 2 aggs x 10 G = 20 G up), which keeps pure-Python event
    counts interactive.  Pass ``paper_oversub=True`` for the paper's
    **4:1** (8 hosts per ToR); combining it with an explicit
    ``hosts_per_tor`` is a contradiction and raises.
    """
    if paper_oversub:
        if hosts_per_tor is not None:
            raise ValueError(
                "pass either hosts_per_tor or paper_oversub=True, not both"
            )
        hosts_per_tor = 8
    elif hosts_per_tor is None:
        hosts_per_tor = 4
    return make_topology_params(
        "fattree",
        num_pods=num_pods,
        tors_per_pod=2,
        aggs_per_pod=2,
        num_cores=2,
        hosts_per_tor=hosts_per_tor,
        host_bw_bps=host_bw_bps,
        fabric_bw_bps=fabric_bw_bps,
    )


class ScaledFatTreeConfig:
    """Mixin for a config dataclass with a ``topology_params`` field: its
    fat-tree is ``scaled_fattree()`` with those fields laid over it."""

    def __post_init__(self):
        self.fabric()  # a bad topology_params key fails the config

    def fabric(self) -> "FatTreeParams":
        """The fat-tree this cell runs on."""
        return resolve_topology_params(
            "fattree", scaled_fattree(), self.topology_params
        )


@dataclass
class WebsearchConfig(ScaledFatTreeConfig):
    """One cell of the Fig. 6/7 matrix: an algorithm, a load and the
    incast queries laid over it."""

    algorithm: str = "powertcp"
    load: float = 0.6
    #: incast queries spread evenly over ``duration_ns`` (0 = none).  The
    #: paper's 1-16 requests/s over seconds of simulated time would give
    #: no query in a 20 ms window, so the rate here is per horizon.
    requests_per_duration: int = 0
    #: bytes per query, split evenly across its responders
    request_size_bytes: int = 2_000_000
    #: responders per query, drawn from racks other than the requester's
    fanout: int = 8
    #: fat-tree fields laid over ``scaled_fattree()``
    topology_params: Optional[dict] = None
    duration_ns: int = 20 * MSEC
    drain_ns: int = 20 * MSEC
    seed: int = 1
    #: shrink flow and query sizes by this factor (shape-preserving) so
    #: enough flows complete within a pure-Python event budget; FCT
    #: class/bin boundaries are rescaled symmetrically in the analysis.
    size_scale: float = 1.0
    buffer_probe_interval_ns: int = 100 * USEC
    mtu_payload: int = 1000
    max_flows: Optional[int] = None
    cc_params: Optional[dict] = None


@dataclass
class WebsearchResult:
    """Flows (tagged 'websearch' / 'incast') plus derived FCT/buffer
    statistics."""

    algorithm: str
    load: float
    base_rtt_ns: int = 0
    host_bw_bps: float = 0.0
    size_scale: float = 1.0
    flows: List[Flow] = field(default_factory=list)
    buffer_samples_bytes: List[float] = field(default_factory=list)
    drops: int = 0
    events_processed: int = 0
    incast_count: int = 0
    #: flow id -> exact per-path ideal FCT in ns
    ideal_fcts_ns: Optional[Dict[int, int]] = None

    def fct_summary(self, pct: float = 99.9, tag: Optional[str] = None) -> FctSummary:
        """Short/medium/long percentile slowdowns (optionally one tag only)."""
        return summarize_fct(
            self.algorithm,
            self.flows if tag is None else [f for f in self.flows if f.tag == tag],
            self.base_rtt_ns,
            self.host_bw_bps,
            pct,
            ideal_fcts_ns=self.ideal_fcts_ns,
            size_scale=self.size_scale,
        )

    def size_bins(self, pct: float = 99.9) -> List[Tuple[int, Optional[float], int]]:
        """Fig. 6 per-size-bin series (edges in original paper units)."""
        return slowdown_by_size_bin(
            self.flows,
            self.base_rtt_ns,
            self.host_bw_bps,
            pct,
            ideal_fcts_ns=self.ideal_fcts_ns,
            size_scale=self.size_scale,
        )


def run_websearch(config: WebsearchConfig) -> WebsearchResult:
    """Run one cell: web-search flows, then the incast queries."""
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
    distribution = (
        WEB_SEARCH.scaled(config.size_scale)
        if config.size_scale != 1.0
        else WEB_SEARCH
    )
    requests = poisson_flows(
        rng,
        params,
        distribution,
        config.load,
        config.duration_ns,
        max_flows=config.max_flows,
    )
    for request in requests:
        driver.start_flow(
            request.src, request.dst, request.size_bytes,
            at_ns=request.start_ns, tag="websearch",
        )
    queries = incast_queries(
        rng,
        num_hosts=params.num_hosts,
        hosts_per_tor=params.hosts_per_tor,
        count=config.requests_per_duration,
        request_size_bytes=max(
            1, int(config.request_size_bytes * config.size_scale)
        ),
        fanout=config.fanout,
        duration_ns=config.duration_ns,
    )
    for query in queries:
        for responder in query.responders:
            driver.start_flow(
                responder, query.requester, query.bytes_per_responder,
                at_ns=query.start_ns, tag="incast",
            )

    # Buffer occupancy across ToR switches (Fig. 7g samples the switches
    # the workload stresses).
    tors = net.extras["tors"]
    buffer_probes = [
        Probe(
            sim,
            config.buffer_probe_interval_ns,
            (lambda t: (lambda: t.buffer.used))(tor),
            until_ns=config.duration_ns,
        ).start()
        for tor in tors
    ]

    driver.run(until_ns=config.duration_ns + config.drain_ns)

    result = WebsearchResult(
        algorithm=config.algorithm,
        load=config.load,
        base_rtt_ns=net.base_rtt_ns,
        host_bw_bps=params.host_bw_bps,
        size_scale=config.size_scale,
    )
    result.ideal_fcts_ns = driver.ideal_fcts_ns()
    result.flows = driver.flows
    result.drops = net.total_drops()
    result.events_processed = sim.events_processed
    result.incast_count = len(queries)
    for probe in buffer_probes:
        result.buffer_samples_bytes.extend(probe.values)
    return result


@scenario_registry.register
class WebsearchScenario(Scenario):
    """Figs. 6/7: web-search traffic, optionally with incast queries."""

    name = "websearch"
    description = (
        "Poisson web-search flows (+ incast queries) on a fat-tree; "
        "FCT slowdown tails"
    )
    config_cls = WebsearchConfig

    def tiny_overrides(self) -> dict:
        return dict(
            duration_ns=2 * MSEC, drain_ns=6 * MSEC, size_scale=1 / 16,
            max_flows=15, load=0.4,
        )

    def build(self, config):
        return lambda: run_websearch(config)

    def collect(self, config, raw: WebsearchResult):
        summary = raw.fct_summary(pct=99.0)
        incast = raw.fct_summary(pct=99.0, tag="incast")
        metrics = {
            "fct_p99_short": summary.short,
            "fct_p99_medium": summary.medium,
            "fct_p99_long": summary.long,
            "fct_p99_overall": summary.overall,
            "completed": summary.completed,
            "total_flows": summary.total,
            "incast_fct_p99": incast.overall,
            "incast_events": raw.incast_count,
            "drops": raw.drops,
            "buffer_p50_bytes": percentile(raw.buffer_samples_bytes, 50.0)
            if raw.buffer_samples_bytes else None,
            "buffer_p99_bytes": percentile(raw.buffer_samples_bytes, 99.0)
            if raw.buffer_samples_bytes else None,
        }
        bins = raw.size_bins(pct=99.0)
        series = {
            "size_bin_edges_bytes": [edge for edge, _v, _n in bins],
            "size_bin_p99_slowdown": [v for _e, v, _n in bins],
            "size_bin_counts": [n for _e, _v, n in bins],
        }
        return metrics, series
