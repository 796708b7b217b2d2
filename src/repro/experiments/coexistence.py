"""Deployment mix: N CC algorithms coexisting on any registered topology.

The deployment question PowerTCP §6 raises (and "It's Time to Replace TCP
in the Datacenter" makes explicit): a new scheme is never rolled out
atomically, so how does it behave *next to* the incumbent — at every
rollout fraction, on real multi-path fabrics, with groups arriving at
different times?  This module models that as a list of
:class:`GroupSpec` records — each one an (algorithm, rollout fraction,
staggered ``start_ns``, per-group ``cc_params``) tuple — deployed over
any topology in :mod:`repro.topology.registry`:

* **dumbbell** — every group's flows are long flows through the single
  shared bottleneck (the PR-2 two-group setup, generalized);
* **fattree** — flows land on seeded permutation pairs, so the groups
  contend on the oversubscribed ToR uplinks;
* **parkinglot** — flows spread round-robin over the segment cross
  paths, so every segment link carries an even mix of groups.

Reported per group: steady-state share and within-group Jain fairness;
pairwise cross-group throughput ratios (1.0 = algorithm-blind sharing);
and, for staggered rollouts, the *time to fair* after each group's start
— how long until the instantaneous Jain index across all active flows
first reaches ``fair_threshold``.

Backward compatibility: the PR-2 two-group surface
(``algorithm_a``/``algorithm_b``/``flows_per_group``/``cc_params_a``/
``cc_params_b``) is still accepted and mapped onto a two-entry
``GroupSpec`` list named ``a``/``b``, so existing sweep JSON caches and
provenance records keep loading.

.. deprecated:: PR 5
   ``algorithm_a``/``algorithm_b``/``flows_per_group`` are a legacy
   shim; new configs should pass ``groups=[...]`` (+ ``total_flows``).
"""

from __future__ import annotations

import dataclasses
import random
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.fairness import jain_index
from repro.cc.registry import make_algorithm
from repro.experiments.driver import FlowDriver
from repro.scenarios import registry as scenario_registry
from repro.scenarios.base import Scenario
from repro.sim.engine import Simulator
from repro.sim.tracing import CounterRateProbe, PortProbe
from repro.topology.registry import get_topology, resolve_topology_params
from repro.units import GBPS, MSEC, USEC

GROUP_A = "a"
GROUP_B = "b"

#: default group names: a, b, c, ... then g26, g27, ...
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _default_group_name(index: int) -> str:
    return _LETTERS[index] if index < len(_LETTERS) else f"g{index}"


@dataclass
class GroupSpec:
    """One deployment group: an algorithm at a rollout fraction.

    ``fraction`` is a relative weight — fractions are normalized across
    the group list, so ``[0.9, 0.1]`` and ``[9, 1]`` mean the same mix.
    ``start_ns`` staggers the group's flows (a later rollout step).
    """

    algorithm: str = "powertcp"
    fraction: float = 1.0
    start_ns: int = 0
    cc_params: Optional[dict] = None
    name: str = ""

    def __post_init__(self):
        if self.fraction < 0:
            raise ValueError(
                f"group {self.name or self.algorithm!r}: fraction must be "
                f">= 0, got {self.fraction}"
            )
        if self.start_ns < 0:
            raise ValueError(
                f"group {self.name or self.algorithm!r}: start_ns must be "
                f">= 0, got {self.start_ns}"
            )

    @classmethod
    def coerce(cls, value, index: int) -> "GroupSpec":
        """Normalize a GroupSpec / dict / algorithm name into a named
        GroupSpec (a bare string means an equal-weight group).

        Always returns a fresh object: the config normalizes (names) and
        may re-weight (``rollout_fraction``) its groups, and those edits
        must never leak into a caller-owned spec reused across configs.
        """
        if isinstance(value, cls):
            spec = dataclasses.replace(value)
        elif isinstance(value, str):
            spec = cls(algorithm=value)
        elif isinstance(value, dict):
            unknown = sorted(
                set(value) - {f.name for f in dataclasses.fields(cls)}
            )
            if unknown:
                raise ValueError(
                    f"group #{index}: unknown key(s) {', '.join(unknown)}; "
                    "valid: algorithm, fraction, start_ns, cc_params, name"
                )
            spec = cls(**value)
        else:
            raise TypeError(
                f"group #{index} must be a GroupSpec, dict, or algorithm "
                f"name, got {type(value).__name__}"
            )
        if not spec.name:
            spec.name = _default_group_name(index)
        return spec


def apportion_flows(weights: List[float], total: int) -> List[int]:
    """Largest-remainder apportionment of ``total`` flows over weights.

    Deterministic (ties break toward earlier groups) and exact: the
    returned counts always sum to ``total``.  When ``total`` covers the
    positive-weight groups, each of them is guaranteed at least one flow
    — a declared group must exist in the mix, not silently round to
    zero at skewed fractions (the remaining flows follow the weights).
    """
    if total < 0:
        raise ValueError(f"total flows must be >= 0, got {total}")
    weight_sum = sum(weights)
    if weight_sum <= 0:
        raise ValueError("at least one group fraction must be positive")
    shares = [w * total / weight_sum for w in weights]
    counts = [int(s) for s in shares]
    remainder = total - sum(counts)
    order = sorted(
        range(len(weights)), key=lambda i: (counts[i] - shares[i], i)
    )
    for i in order[:remainder]:
        counts[i] += 1
    # Min-one fix-up: a positive-weight group that rounded to zero takes
    # one flow from the currently largest group (earliest on ties).
    positive = [i for i, w in enumerate(weights) if w > 0]
    if total >= len(positive):
        for i in positive:
            if counts[i] == 0:
                donor = max(
                    range(len(counts)),
                    key=lambda j: (counts[j], -j),
                )
                counts[donor] -= 1
                counts[i] += 1
    return counts


@dataclass
class DeploymentMixConfig:
    """One mixed-deployment cell: N groups on one registered topology.

    ``rollout_fraction``, when set, re-weights the *last* group (the
    newcomer) to that fraction of the total and scales the remaining
    groups into the rest — the one-knob axis
    ``python -m repro sweep coexistence --grid rollout_fraction=...``
    grids over.

    Legacy two-group keys (``algorithm_a``/``algorithm_b``/
    ``flows_per_group``/``cc_params_a``/``cc_params_b``) are accepted
    only when ``groups`` is not given; see the module deprecation note.
    """

    groups: Optional[List] = None
    total_flows: Optional[int] = None
    rollout_fraction: Optional[float] = None
    topology: str = "dumbbell"
    topology_params: Optional[dict] = None
    host_bw_bps: float = 10 * GBPS
    bottleneck_bw_bps: float = 10 * GBPS
    buffer_bytes: int = 4_000_000
    duration_ns: int = 4 * MSEC
    probe_interval_ns: int = 20 * USEC
    fair_threshold: float = 0.9
    mtu_payload: int = 1000
    seed: int = 1  # pairing-policy seed (and sweep provenance)
    # -- deprecated two-group shim (PR 2 surface) ----------------------
    algorithm_a: Optional[str] = None
    algorithm_b: Optional[str] = None
    flows_per_group: Optional[int] = None
    cc_params_a: Optional[dict] = None
    cc_params_b: Optional[dict] = None

    def __post_init__(self):
        legacy = {
            k: getattr(self, k)
            for k in (
                "algorithm_a", "algorithm_b", "flows_per_group",
                "cc_params_a", "cc_params_b",
            )
            if getattr(self, k) is not None
        }
        if self.groups is None:
            # Two-group legacy surface (also the default cell).
            self.groups = [
                GroupSpec(
                    algorithm=self.algorithm_a or "powertcp",
                    cc_params=self.cc_params_a,
                    name=GROUP_A,
                ),
                GroupSpec(
                    algorithm=self.algorithm_b or "dcqcn",
                    cc_params=self.cc_params_b,
                    name=GROUP_B,
                ),
            ]
            if self.flows_per_group is not None:
                if self.total_flows is not None:
                    raise ValueError(
                        "pass either flows_per_group (deprecated) or "
                        "total_flows, not both"
                    )
                self.total_flows = 2 * self.flows_per_group
        elif legacy:
            raise ValueError(
                "groups=[...] cannot be combined with the deprecated "
                f"two-group key(s) {', '.join(sorted(legacy))}"
            )
        else:
            self.groups = [
                GroupSpec.coerce(value, i) for i, value in enumerate(self.groups)
            ]
        if not self.groups:
            raise ValueError("need at least one deployment group")
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate group names: {names}")
        if self.total_flows is None:
            self.total_flows = 2 * len(self.groups)
        if self.total_flows < len([g for g in self.groups if g.fraction > 0]):
            raise ValueError(
                f"total_flows={self.total_flows} cannot cover "
                f"{len(self.groups)} groups"
            )
        if self.rollout_fraction is not None:
            if not 0.0 < self.rollout_fraction < 1.0:
                raise ValueError(
                    f"rollout_fraction must be in (0, 1), got "
                    f"{self.rollout_fraction}"
                )
            if len(self.groups) < 2:
                raise ValueError("rollout_fraction needs at least two groups")
            incumbent_weight = sum(g.fraction for g in self.groups[:-1])
            if incumbent_weight <= 0:
                raise ValueError(
                    "rollout_fraction needs a positive incumbent fraction"
                )
            scale = (1.0 - self.rollout_fraction) / incumbent_weight
            for group in self.groups[:-1]:
                group.fraction *= scale
            self.groups[-1].fraction = self.rollout_fraction

    @property
    def algorithm(self) -> str:
        """Composite label used in provenance records."""
        return "+".join(g.algorithm for g in self.groups)

    def group_flow_counts(self) -> List[int]:
        """Per-group flow counts (largest-remainder apportionment)."""
        return apportion_flows(
            [g.fraction for g in self.groups], self.total_flows
        )

    def resolved_topology_params(self):
        """The built params object: deploy defaults + user overrides."""
        entry = get_topology(self.topology)
        return entry, resolve_topology_params(
            entry.name, _deploy_defaults(self, entry.name), self.topology_params
        )


def _deploy_defaults(config: "DeploymentMixConfig", name: str):
    """Topology sizing defaults for a deployment-mix cell: a dict of
    fields, or the fat-tree / RDCN scenarios' scaled shape.

    Keyed by registered name; unknown (user-registered) topologies get no
    defaults and must be fully specified via ``topology_params``.
    """
    if name == "dumbbell":
        return dict(
            left_hosts=config.total_flows,
            right_hosts=1,
            host_bw_bps=config.host_bw_bps,
            bottleneck_bw_bps=config.bottleneck_bw_bps,
            buffer_bytes=config.buffer_bytes,
            mtu_payload=config.mtu_payload,
        )
    if name == "fattree":
        from repro.experiments.websearch import scaled_fattree

        shape = scaled_fattree(
            host_bw_bps=config.host_bw_bps, fabric_bw_bps=config.host_bw_bps
        )
        return resolve_topology_params(
            name, shape, {"mtu_payload": config.mtu_payload}
        )
    if name == "parkinglot":
        return dict(
            segments=2,
            host_bw_bps=config.host_bw_bps,
            buffer_bytes=config.buffer_bytes,
            mtu_payload=config.mtu_payload,
        )
    if name == "rdcn":
        from repro.experiments.rdcn import scaled_rdcn

        return resolve_topology_params(
            name, scaled_rdcn(), {"mtu_payload": config.mtu_payload}
        )
    return {}


@dataclass
class DeploymentMixResult:
    """Per-group throughput series plus the sharing/rollout summary."""

    group_names: List[str] = field(default_factory=list)
    algorithms: Dict[str, str] = field(default_factory=dict)
    start_ns: Dict[str, int] = field(default_factory=dict)
    topology: str = "dumbbell"
    #: rate of the shared bottleneck when every pair crosses one
    #: (dumbbell); 0 otherwise — shares then normalize by the aggregate
    #: delivered throughput
    capacity_bps: float = 0.0
    times_ns: List[int] = field(default_factory=list)
    group_throughput_bps: Dict[str, List[float]] = field(default_factory=dict)
    #: settled per-flow mean rates, per group
    flow_mean_bps: Dict[str, List[float]] = field(default_factory=dict)
    #: full per-flow rate series, per group (raw only; not persisted)
    flow_rates_bps: Dict[str, List[List[float]]] = field(default_factory=dict)
    qlen_bytes: List[float] = field(default_factory=list)
    peak_qlen_bytes: int = 0
    settled_qlen_bytes: float = 0.0
    drops: int = 0
    events_processed: int = 0

    # -- legacy two-group accessors ------------------------------------
    @property
    def algorithm_a(self) -> Optional[str]:
        return self.algorithms.get(GROUP_A)

    @property
    def algorithm_b(self) -> Optional[str]:
        return self.algorithms.get(GROUP_B)

    # -- per-group summaries -------------------------------------------
    def group_mean_bps(self, group: str, settle_fraction: float = 0.5) -> float:
        """Mean group throughput over the settled tail of its own run.

        The window starts at the group's ``start_ns`` (a staggered group
        is not charged for the samples before it existed) and the first
        ``settle_fraction`` of that window is discarded as ramp-up.
        """
        series = self.group_throughput_bps.get(group, [])
        start = self.start_ns.get(group, 0)
        active = [
            v for t, v in zip(self.times_ns, series) if t >= start
        ]
        split = int(len(active) * settle_fraction)
        tail = active[split:]
        return statistics.fmean(tail) if tail else 0.0

    def group_share(self, group: str) -> float:
        """Settled fraction of the contended capacity the group holds.

        Normalizes by the bottleneck rate when the topology declares one,
        else by the aggregate settled throughput across all groups.
        """
        reference = self.capacity_bps
        if reference <= 0:
            reference = sum(self.group_mean_bps(g) for g in self.group_names)
        if reference <= 0:
            return 0.0
        return self.group_mean_bps(group) / reference

    def cross_ratio(self, group_x: str, group_y: str) -> Optional[float]:
        """Settled throughput of ``group_x`` over ``group_y`` (1.0 = fair,
        after correcting for unequal flow counts: the ratio is per-flow)."""
        x_flows = len(self.flow_mean_bps.get(group_x, []))
        y_flows = len(self.flow_mean_bps.get(group_y, []))
        if not x_flows or not y_flows:
            return None
        y = self.group_mean_bps(group_y) / y_flows
        if y <= 0:
            return None
        return (self.group_mean_bps(group_x) / x_flows) / y

    def cross_group_ratio(self) -> Optional[float]:
        """Legacy two-group ratio: first group over second."""
        if len(self.group_names) < 2:
            return None
        return self.cross_ratio(self.group_names[0], self.group_names[1])

    def group_jain(self, group: str) -> Optional[float]:
        """Jain index across the group's per-flow settled mean rates."""
        means = self.flow_mean_bps.get(group, [])
        return jain_index(means) if means else None

    def time_to_fair_ns(
        self, group: str, threshold: float = 0.9
    ) -> Optional[int]:
        """Time from the group's rollout step until global fairness.

        Scans the probe ticks at or after the group's ``start_ns`` for
        the first where the Jain index across *every active flow's*
        instantaneous rate reaches ``threshold``; returns the delay from
        the step (None if fairness is never reached, or the group has no
        flows).
        """
        step = self.start_ns.get(group)
        if step is None or not self.flow_rates_bps.get(group):
            return None
        for k, t in enumerate(self.times_ns):
            if t < step:
                continue
            rates = [
                series[k]
                for other, start in self.start_ns.items()
                if start <= t
                for series in self.flow_rates_bps.get(other, [])
                if k < len(series)
            ]
            if rates and jain_index(rates) >= threshold:
                return t - step
        return None


#: deprecated aliases (PR 2 public names)
CoexistenceConfig = DeploymentMixConfig
CoexistenceResult = DeploymentMixResult


def run_deployment_mix(config: DeploymentMixConfig) -> DeploymentMixResult:
    """Run one mixed-deployment cell (groups may run the same scheme —
    the homogeneous cell is the control for the sharing ratios)."""
    sim = Simulator()
    entry, params = config.resolved_topology_params()
    net = entry.build(sim, params)

    specs = {
        g.name: make_algorithm(g.algorithm, **(g.cc_params or {}))
        for g in config.groups
    }
    driver = FlowDriver(net, specs, mtu_payload=config.mtu_payload)

    counts = config.group_flow_counts()
    pairs = net.flow_pairs(config.total_flows, random.Random(config.seed))
    flows: Dict[str, List] = {}
    cursor = 0
    for group, count in zip(config.groups, counts):
        members = []
        for src, dst in pairs[cursor:cursor + count]:
            members.append(
                driver.start_flow(
                    src, dst, 10 ** 12, at_ns=group.start_ns, tag=group.name
                )
            )
        cursor += count
        flows[group.name] = members

    group_probes = {
        group: CounterRateProbe(
            sim,
            config.probe_interval_ns,
            (lambda fs: (lambda: sum(f.bytes_received for f in fs)))(members),
        ).start()
        for group, members in flows.items()
    }
    flow_probes = {
        flow.flow_id: CounterRateProbe(
            sim,
            config.probe_interval_ns,
            (lambda f: (lambda: f.bytes_received))(flow),
        ).start()
        for members in flows.values()
        for flow in members
    }
    bottleneck = net.bottleneck_port()
    queue_probe = (
        PortProbe(sim, bottleneck, config.probe_interval_ns).start()
        if bottleneck is not None
        else None
    )

    driver.run(until_ns=config.duration_ns)

    result = DeploymentMixResult(
        group_names=[g.name for g in config.groups],
        algorithms={g.name: g.algorithm for g in config.groups},
        start_ns={g.name: g.start_ns for g in config.groups},
        topology=entry.name,
        capacity_bps=(
            bottleneck.rate_bps
            if bottleneck is not None and net.shared_bottleneck
            else 0.0
        ),
    )
    first = config.groups[0].name
    result.times_ns = group_probes[first].times_ns
    for group, probe in group_probes.items():
        result.group_throughput_bps[group] = probe.rates_bps
    for group_spec in config.groups:
        members = flows[group_spec.name]
        means = []
        rate_series = []
        for flow in members:
            series = flow_probes[flow.flow_id].rates_bps
            rate_series.append(series)
            active = [
                v
                for t, v in zip(result.times_ns, series)
                if t >= group_spec.start_ns
            ]
            split = len(active) // 2
            tail = active[split:]
            means.append(statistics.fmean(tail) if tail else 0.0)
        result.flow_mean_bps[group_spec.name] = means
        result.flow_rates_bps[group_spec.name] = rate_series
    if queue_probe is not None:
        result.peak_qlen_bytes = bottleneck.max_qlen_bytes
        result.qlen_bytes = queue_probe.qlen_bytes
        settled = queue_probe.qlen_bytes[len(queue_probe.qlen_bytes) // 2 :]
        result.settled_qlen_bytes = (
            statistics.fmean(settled) if settled else 0.0
        )
    result.drops = net.total_drops()
    result.events_processed = sim.events_processed
    return result


#: deprecated alias (PR 2 public name)
run_coexistence = run_deployment_mix


@scenario_registry.register
class CoexistenceScenario(Scenario):
    """N CC schemes coexisting on a registered topology (§6 deployment)."""

    name = "coexistence"
    description = (
        "N-group deployment mix on any registered topology; "
        "per-group shares, staggered rollout"
    )
    config_cls = DeploymentMixConfig

    def tiny_overrides(self) -> dict:
        return dict(total_flows=2, duration_ns=1 * MSEC)

    def build(self, config):
        return lambda: run_deployment_mix(config)

    def collect(self, config, raw: DeploymentMixResult):
        metrics = {
            "peak_qlen_bytes": raw.peak_qlen_bytes,
            "settled_qlen_bytes": raw.settled_qlen_bytes,
            "drops": raw.drops,
        }
        for group in raw.group_names:
            metrics[f"group_{group}_share"] = raw.group_share(group)
            metrics[f"group_{group}_jain"] = raw.group_jain(group)
            metrics[f"group_{group}_time_to_fair_ns"] = raw.time_to_fair_ns(
                group, config.fair_threshold
            )
        for i, group_x in enumerate(raw.group_names):
            for group_y in raw.group_names[i + 1 :]:
                metrics[f"cross_ratio_{group_x}_{group_y}"] = raw.cross_ratio(
                    group_x, group_y
                )
        if len(raw.group_names) >= 2:
            metrics["cross_group_ratio"] = raw.cross_group_ratio()
        series = {
            "times_ns": list(raw.times_ns),
            "qlen_bytes": list(raw.qlen_bytes),
        }
        for group in raw.group_names:
            series[f"group_{group}_throughput_bps"] = list(
                raw.group_throughput_bps.get(group, [])
            )
        return metrics, series
