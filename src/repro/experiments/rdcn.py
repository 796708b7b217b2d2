"""Fig. 8: the reconfigurable-DCN case study.

One ToR pair carries persistent demand (parallel long flows between its
hosts).  Between circuit days the traffic rides the 25 Gbps packet
network; during the pair's day a 100 Gbps circuit opens for ~10 RTTs.

* Fig. 8a — pair throughput and circuit-VOQ length over time: reTCP fills
  the circuit instantly (prebuffered VOQ, high latency); HPCC keeps the
  VOQ empty but ramps too slowly to use the day; PowerTCP fills the
  circuit within ~1 RTT at near-zero VOQ.
* Fig. 8b — tail (99th percentile) per-packet queuing latency vs packet-
  network bandwidth for reTCP-600µs / reTCP-1800µs / HPCC / PowerTCP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.analysis.stats import Distribution
from repro.experiments.driver import FlowDriver
from repro.scenarios import registry as scenario_registry
from repro.scenarios.base import Scenario
from repro.sim.circuit import CircuitSchedule
from repro.sim.engine import Simulator
from repro.sim.tracing import CounterRateProbe, Probe
from repro.topology.registry import (
    build_topology,
    make_topology_params,
    resolve_topology_params,
)
from repro.units import GBPS, MSEC, USEC

if TYPE_CHECKING:  # params type only; built via the topology registry
    from repro.topology.rdcn import RdcnParams


def scaled_rdcn(
    num_tors: int = 4,
    hosts_per_tor: int = 4,
    host_bw_bps: float = 25 * GBPS,
    circuit_bw_bps: float = 100 * GBPS,
    packet_bw_bps: float = 25 * GBPS,
    day_ns: int = 225 * USEC,
    night_ns: int = 20 * USEC,
    prebuffer_ns: int = 0,
) -> "RdcnParams":
    """A small RDCN: fewer ToRs so the watched pair's day recurs often,
    with the paper's link rates and day/night durations."""
    return make_topology_params(
        "rdcn",
        num_tors=num_tors,
        hosts_per_tor=hosts_per_tor,
        host_bw_bps=host_bw_bps,
        circuit_bw_bps=circuit_bw_bps,
        packet_bw_bps=packet_bw_bps,
        day_ns=day_ns,
        night_ns=night_ns,
        prebuffer_ns=prebuffer_ns,
    )


PAPER_WEEK_NS = 24 * (225 + 20) * 1000  # 25 ToRs: 24 matchings of 245 us


def scaled_prebuffer_ns(params: RdcnParams, paper_prebuffer_ns: int) -> int:
    """Scale a paper prebuffer value (600/1800 µs) to a shortened week.

    Prebuffering admits packets into the VOQ a *fraction of the rotation
    period* ahead of the day; with fewer ToRs the week shrinks, so the
    absolute prebuffer must shrink proportionally or it would cover the
    whole schedule and starve the packet network.
    """
    week_ns = len(
        CircuitSchedule(params.num_tors, params.day_ns, params.night_ns).matchings
    ) * (params.day_ns + params.night_ns)
    return int(paper_prebuffer_ns * week_ns / PAPER_WEEK_NS)


@dataclass
class RdcnConfig:
    """One Fig. 8 run: an algorithm plus the prebuffering policy."""

    algorithm: str = "powertcp"
    #: RDCN fields laid over ``scaled_rdcn()``; a non-zero
    #: ``prebuffer_ns`` below takes precedence
    topology_params: Optional[dict] = None
    src_tor: int = 0
    dst_tor: int = 1
    flows_per_pair: int = 4
    duration_ns: int = 4 * MSEC
    probe_interval_ns: int = 10 * USEC
    mtu_payload: int = 1000
    prebuffer_ns: int = 0  # reTCP's knob; 0 for feedback-based CC
    cc_params: Optional[dict] = None

    def __post_init__(self):
        self.fabric()  # a bad topology_params key fails the config

    def fabric(self) -> "RdcnParams":
        """The RDCN this cell runs on, with the cell's prebuffer."""
        params = resolve_topology_params(
            "rdcn", scaled_rdcn(), self.topology_params
        )
        if self.prebuffer_ns:
            params = resolve_topology_params(
                "rdcn", params, {"prebuffer_ns": self.prebuffer_ns}
            )
        return params


@dataclass
class RdcnResult:
    """Fig. 8a series plus the Fig. 8b scalar metrics."""

    algorithm: str
    prebuffer_ns: int
    times_ns: List[int] = field(default_factory=list)
    pair_throughput_bps: List[float] = field(default_factory=list)
    voq_len_bytes: List[float] = field(default_factory=list)
    day_windows: List[tuple] = field(default_factory=list)
    circuit_utilization: float = 0.0
    tail_queuing_latency_ns: float = 0.0
    mean_goodput_bps: float = 0.0
    drops: int = 0
    events_processed: int = 0

    def peak_voq_bytes(self) -> float:
        """Largest sampled VOQ occupancy."""
        return max(self.voq_len_bytes) if self.voq_len_bytes else 0.0


def run_rdcn(config: RdcnConfig) -> RdcnResult:
    """Run the ToR-pair scenario for one algorithm/prebuffer setting."""
    params = config.fabric()
    sim = Simulator()
    net = build_topology(sim, "rdcn", params)

    cc_params = dict(config.cc_params or {})
    if config.algorithm == "retcp":
        cc_params.setdefault("prebuffer_ns", params.prebuffer_ns)
        cc_params.setdefault("flows_per_pair", config.flows_per_pair)
    driver = FlowDriver(
        net, config.algorithm, mtu_payload=config.mtu_payload, cc_params=cc_params
    )

    flows = []
    for i in range(config.flows_per_pair):
        src = config.src_tor * params.hosts_per_tor + (i % params.hosts_per_tor)
        dst = config.dst_tor * params.hosts_per_tor + (i % params.hosts_per_tor)
        flows.append(driver.start_flow(src, dst, 10 ** 12, at_ns=0, tag="pair"))

    # Pair throughput: bytes received by the destination hosts.
    throughput_probe = CounterRateProbe(
        sim,
        config.probe_interval_ns,
        lambda: sum(f.bytes_received for f in flows),
    ).start()
    circuit_port = net.extras["circuit_ports"][config.src_tor]
    voq_probe = Probe(
        sim,
        config.probe_interval_ns,
        lambda: circuit_port.voq_len_bytes(config.dst_tor),
    ).start()

    # Pair-day accounting for circuit utilization.
    schedule = net.extras["schedule"]
    day_marks: List[tuple] = []

    def mark_window(start: int, end: int) -> None:
        day_marks.append((start, end, circuit_port.tx_bytes))

    t = 0
    windows = []
    while True:
        start, end = schedule.window_for(config.src_tor, config.dst_tor, t)
        if start >= config.duration_ns:
            break
        windows.append((start, end))
        sim.at(start, mark_window, start, end)
        sim.at(min(end, config.duration_ns), mark_window, start, end)
        t = end + 1

    driver.run(until_ns=config.duration_ns)

    result = RdcnResult(algorithm=config.algorithm, prebuffer_ns=params.prebuffer_ns)
    result.times_ns = voq_probe.times_ns
    result.voq_len_bytes = voq_probe.values
    result.pair_throughput_bps = throughput_probe.rates_bps
    result.day_windows = windows
    result.drops = net.total_drops()

    # Circuit utilization over the pair's completed day windows.
    used_bytes = 0
    capacity_bytes = 0.0
    for i in range(0, len(day_marks) - 1, 2):
        start, end, tx_start = day_marks[i]
        _, _, tx_end = day_marks[i + 1]
        used_bytes += tx_end - tx_start
        window_ns = min(end, config.duration_ns) - start
        capacity_bytes += window_ns * params.circuit_bw_bps / 8e9
    result.circuit_utilization = (
        used_bytes / capacity_bytes if capacity_bytes else 0.0
    )

    # Tail queuing latency across circuit VOQs, ToR packet uplinks, and
    # the packet core (Fig. 8b's y-axis).
    delays = Distribution()
    for port in net.labeled_ports.values():
        delays.merge(port.queuing_delays_ns)
    for port in net.extras["packet_switch"].ports:
        delays.merge(port.queuing_delays_ns)
    if delays:
        result.tail_queuing_latency_ns = delays.percentile(99.0)

    total_received = sum(f.bytes_received for f in flows)
    result.mean_goodput_bps = total_received * 8e9 / config.duration_ns
    result.events_processed = sim.events_processed
    return result


@scenario_registry.register
class RdcnScenario(Scenario):
    """Fig. 8: one ToR pair riding the reconfigurable circuit schedule."""

    name = "rdcn"
    description = "ToR-pair demand over a rotating circuit (RDCN case study)"
    config_cls = RdcnConfig

    def tiny_overrides(self) -> dict:
        return dict(duration_ns=1 * MSEC, flows_per_pair=2)

    def build(self, config):
        return lambda: run_rdcn(config)

    def collect(self, config, raw: RdcnResult):
        metrics = {
            "circuit_utilization": raw.circuit_utilization,
            "peak_voq_bytes": raw.peak_voq_bytes(),
            "tail_queuing_latency_ns": raw.tail_queuing_latency_ns,
            "mean_goodput_bps": raw.mean_goodput_bps,
            "drops": raw.drops,
        }
        series = {
            "times_ns": list(raw.times_ns),
            "voq_len_bytes": list(raw.voq_len_bytes),
            "pair_throughput_bps": list(raw.pair_throughput_bps),
        }
        return metrics, series
