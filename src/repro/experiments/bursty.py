"""Figs. 7c-7f, 7h: web-search background traffic plus incast queries.

The paper layers the synthetic distributed-file-system query workload
(§4.1) on top of web-search traffic at 80 % load, sweeping the query
*rate* (incast frequency, Fig. 7c/d) and the query *size* (congestion
duration, Fig. 7e/f), and reports short-/long-flow tail slowdowns plus
the buffer-occupancy CDF (Fig. 7h).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.fct import FctSummary, summarize_fct
from repro.analysis.stats import percentile
from repro.experiments.driver import FlowDriver
from repro.experiments.websearch import ScaledFatTreeConfig
from repro.scenarios import registry as scenario_registry
from repro.scenarios.base import Scenario
from repro.sim.engine import Simulator
from repro.sim.tracing import Probe
from repro.topology.registry import build_topology
from repro.transport.flow import Flow
from repro.units import MSEC, USEC
from repro.workloads.arrivals import poisson_flows
from repro.workloads.distributions import WEB_SEARCH, EmpiricalCdf
from repro.workloads.incast import incast_events


@dataclass
class BurstyConfig(ScaledFatTreeConfig):
    """One cell of the Fig. 7c-f sweeps."""

    algorithm: str = "powertcp"
    load: float = 0.8
    request_rate_per_sec: float = 4.0
    request_size_bytes: int = 2_000_000
    fanout: int = 8
    #: fat-tree fields laid over ``scaled_fattree()``
    topology_params: Optional[dict] = None
    duration_ns: int = 20 * MSEC
    drain_ns: int = 20 * MSEC
    seed: int = 1
    distribution: EmpiricalCdf = WEB_SEARCH
    size_scale: float = 1.0  # see WebsearchConfig.size_scale
    buffer_probe_interval_ns: int = 100 * USEC
    mtu_payload: int = 1000
    max_flows: Optional[int] = None
    #: incast frequency is scaled up for short simulated horizons: the
    #: paper's 1-16 requests/s over seconds of simulated time would yield
    #: zero events in a 20 ms window, so rates here are per *duration*.
    requests_per_duration: Optional[int] = None
    cc_params: Optional[dict] = None


@dataclass
class BurstyResult:
    """Flows (tagged 'websearch' / 'incast') and buffer samples."""

    algorithm: str
    request_rate_per_sec: float
    request_size_bytes: int
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
        """Short/medium/long tail slowdowns (optionally one tag only)."""
        flows = (
            self.flows
            if tag is None
            else [f for f in self.flows if f.tag == tag]
        )
        return summarize_fct(
            self.algorithm,
            flows,
            self.base_rtt_ns,
            self.host_bw_bps,
            pct,
            ideal_fcts_ns=self.ideal_fcts_ns,
            size_scale=self.size_scale,
        )


def run_bursty(config: BurstyConfig) -> BurstyResult:
    """Run web-search + incast for one (rate, size) cell."""
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
        config.distribution.scaled(config.size_scale)
        if config.size_scale != 1.0
        else config.distribution
    )
    for request in poisson_flows(
        rng,
        params,
        distribution,
        config.load,
        config.duration_ns,
        max_flows=config.max_flows,
    ):
        driver.start_flow(
            request.src,
            request.dst,
            request.size_bytes,
            at_ns=request.start_ns,
            tag="websearch",
        )

    scaled_request = max(1, int(config.request_size_bytes * config.size_scale))
    if config.requests_per_duration is not None:
        # Deterministic count spread uniformly across the horizon.
        gap = config.duration_ns // (config.requests_per_duration + 1)
        event_times = [
            (i + 1) * gap for i in range(config.requests_per_duration)
        ]
        events = []
        for t in event_times:
            requester = rng.randrange(params.num_hosts)
            rack = requester // params.hosts_per_tor
            candidates = [
                h
                for h in range(params.num_hosts)
                if h // params.hosts_per_tor != rack
            ]
            responders = rng.sample(
                candidates, min(config.fanout, len(candidates))
            )
            per_responder = max(1, scaled_request // len(responders))
            events.append((t, requester, responders, per_responder))
    else:
        generated = incast_events(
            rng,
            num_hosts=params.num_hosts,
            hosts_per_tor=params.hosts_per_tor,
            request_rate_per_sec=config.request_rate_per_sec,
            request_size_bytes=scaled_request,
            fanout=config.fanout,
            duration_ns=config.duration_ns,
        )
        events = [
            (e.start_ns, e.requester, e.responders, e.bytes_per_responder)
            for e in generated
        ]

    for start_ns, requester, responders, per_responder in events:
        for responder in responders:
            driver.start_flow(
                responder, requester, per_responder, at_ns=start_ns, tag="incast"
            )

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

    result = BurstyResult(
        algorithm=config.algorithm,
        request_rate_per_sec=config.request_rate_per_sec,
        request_size_bytes=config.request_size_bytes,
        base_rtt_ns=net.base_rtt_ns,
        host_bw_bps=params.host_bw_bps,
        size_scale=config.size_scale,
    )
    result.ideal_fcts_ns = driver.ideal_fcts_ns()
    result.flows = driver.flows
    result.drops = net.total_drops()
    result.events_processed = sim.events_processed
    result.incast_count = len(events)
    for probe in buffer_probes:
        result.buffer_samples_bytes.extend(probe.values)
    return result


@scenario_registry.register
class BurstyScenario(Scenario):
    """Figs. 7c-7f/7h: web-search background plus periodic incast queries."""

    name = "bursty"
    description = "web-search load + incast queries on a fat-tree"
    config_cls = BurstyConfig

    def tiny_overrides(self) -> dict:
        return dict(
            load=0.4, requests_per_duration=1, request_size_bytes=200_000,
            fanout=2, duration_ns=2 * MSEC, drain_ns=6 * MSEC,
            size_scale=1 / 16, max_flows=10,
        )

    def build(self, config):
        return lambda: run_bursty(config)

    def collect(self, config, raw: BurstyResult):
        overall = raw.fct_summary(pct=99.0)
        incast = raw.fct_summary(pct=99.0, tag="incast")
        metrics = {
            "fct_p99_overall": overall.overall,
            "fct_p99_short": overall.short,
            "fct_p99_long": overall.long,
            "incast_fct_p99": incast.overall,
            "incast_events": raw.incast_count,
            "completed": overall.completed,
            "total_flows": overall.total,
            "drops": raw.drops,
            "buffer_p99_bytes": percentile(raw.buffer_samples_bytes, 99.0)
            if raw.buffer_samples_bytes else None,
        }
        return metrics, {}
