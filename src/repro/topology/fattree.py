"""The paper's evaluation topology (§4.1): an oversubscribed fat-tree.

Default parameters are the paper's: 2 core switches, 4 pods of
[2 ToRs + 2 aggregation switches], 32 servers per ToR (256 total),
25 Gbps server links, 100 Gbps fabric links (4:1 oversubscription at the
ToR), 5 µs propagation on core links and 1 µs elsewhere.  Buffers are
shared per switch with Dynamic Thresholds, sized by a bytes-per-Gbps
ratio modeled on Intel Tofino.

Scaled-down instances for the pure-Python event budget are produced by
passing smaller :class:`FatTreeParams`; the structure (and therefore the
congestion dynamics at ToR uplinks) is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.sim.buffer import SharedBuffer
from repro.sim.engine import Simulator
from repro.sim.port import EgressPort
from repro.sim.switch import Switch
from repro.topology.network import Network
from repro.topology.registry import register_topology
from repro.units import GBPS, USEC


@dataclass
class FatTreeParams:
    """Fat-tree shape and link parameters (defaults = paper §4.1)."""

    num_pods: int = 4
    tors_per_pod: int = 2
    aggs_per_pod: int = 2
    num_cores: int = 2
    hosts_per_tor: int = 32
    host_bw_bps: float = 25 * GBPS
    fabric_bw_bps: float = 100 * GBPS
    host_link_delay_ns: int = 1 * USEC
    tor_agg_delay_ns: int = 1 * USEC
    agg_core_delay_ns: int = 5 * USEC
    buffer_bytes_per_gbps: int = 7_000  # Tofino-like bandwidth-buffer ratio
    dt_alpha: float = 1.0
    mtu_payload: int = 1000
    int_stamping: bool = True
    #: routing policy deployed on every switch (repro.routing registry
    #: name); parameterless "ecmp" keeps the inline byte-identical path
    routing: str = "ecmp"
    routing_params: Optional[dict] = None

    @property
    def num_tors(self) -> int:
        """Total ToR count."""
        return self.num_pods * self.tors_per_pod

    @property
    def num_hosts(self) -> int:
        """Total server count."""
        return self.num_tors * self.hosts_per_tor

    def tor_of_host(self, host_id: int) -> int:
        """Global ToR index of a host."""
        return host_id // self.hosts_per_tor

    def pod_of_host(self, host_id: int) -> int:
        """Pod index of a host."""
        return self.tor_of_host(host_id) // self.tors_per_pod

    def oversubscription(self) -> float:
        """Downlink-to-uplink capacity ratio at the ToR (paper: 4.0)."""
        down = self.hosts_per_tor * self.host_bw_bps
        up = self.aggs_per_pod * self.fabric_bw_bps
        return down / up


@register_topology(
    "fattree",
    params_cls=FatTreeParams,
    aliases=("fat-tree",),
    description="the §4.1 oversubscribed fat-tree (ECMP, labeled ToR uplinks)",
)
def build_fattree(sim: Simulator, params: Optional[FatTreeParams] = None) -> Network:
    """Construct the fat-tree and its ECMP routing tables.

    Host ids are dense: pod-major, then ToR, then host.  Labeled ports:
    ``tor{t}-up{a}`` for every ToR uplink (the oversubscribed links whose
    load the paper's workload generator targets).
    """
    p = params or FatTreeParams()
    net = Network(sim, name="fattree")
    net.host_bw_bps = p.host_bw_bps
    policy = net.use_routing(p.routing, p.routing_params)

    # --- nodes (switch ids are dense: ToRs, then aggs, then cores) ----
    def switch(name: str, total_bw_bps: float) -> Switch:
        capacity = int(p.buffer_bytes_per_gbps * total_bw_bps / GBPS)
        return net.add_switch(
            Switch(
                sim,
                len(net.switches),
                name,
                buffer=SharedBuffer(max(capacity, 100_000), p.dt_alpha),
                policy=policy(),
            )
        )

    tor_bw = p.hosts_per_tor * p.host_bw_bps + p.aggs_per_pod * p.fabric_bw_bps
    agg_bw = (p.tors_per_pod + p.num_cores) * p.fabric_bw_bps
    core_bw = p.num_pods * p.aggs_per_pod * p.fabric_bw_bps
    tors = [switch(f"tor{t}", tor_bw) for t in range(p.num_tors)]
    aggs = [
        [switch(f"agg{pod}-{a}", agg_bw) for a in range(p.aggs_per_pod)]
        for pod in range(p.num_pods)
    ]
    cores = [switch(f"core{c}", core_bw) for c in range(p.num_cores)]

    # --- hosts and ToR downlinks -------------------------------------
    for host_id in range(p.num_hosts):
        net.attach_host(
            tors[p.tor_of_host(host_id)],
            p.host_bw_bps,
            p.host_link_delay_ns,
            int_stamping=p.int_stamping,
        )

    # --- ToR <-> Agg links -------------------------------------------
    tor_uplinks: List[List[EgressPort]] = [[] for _ in range(p.num_tors)]
    for pod in range(p.num_pods):
        for t in range(p.tors_per_pod):
            tor_index = pod * p.tors_per_pod + t
            for a, agg in enumerate(aggs[pod]):
                label = f"tor{tor_index}-up{a}"
                up, _ = net.link(
                    tors[tor_index],
                    agg,
                    p.fabric_bw_bps,
                    p.tor_agg_delay_ns,
                    names=(label, f"agg{pod}-{a}-down{t}"),
                    int_stamping=p.int_stamping,
                )
                tor_uplinks[tor_index].append(net.label_port(label, up))

    # --- Agg <-> Core links ------------------------------------------
    for pod in range(p.num_pods):
        for a, agg in enumerate(aggs[pod]):
            for c, core in enumerate(cores):
                net.link(
                    agg,
                    core,
                    p.fabric_bw_bps,
                    p.agg_core_delay_ns,
                    names=(f"agg{pod}-{a}-up{c}", f"core{c}-down{pod}-{a}"),
                    int_stamping=p.int_stamping,
                )

    # Rows in wiring order: ToR -> its uplinks by agg, agg -> cores by
    # index (or the one downlink), core -> the dst pod's aggs.
    net.install_routes()
    # Base RTT: first to last host is the longest path the shape has
    # (inter-pod; same-pod or same-ToR on a one-pod / one-ToR tree).
    net.base_rtt_ns = net.path_rtt_ns(0, p.num_hosts - 1, p.mtu_payload)

    # Pairing policy: seeded host-level permutations (derangements), the
    # canonical fabric stress — no receiver NIC is oversubscribed, so
    # contention lands on the oversubscribed ToR uplinks.  Counts beyond
    # one permutation draw further derangements from the same RNG.
    def fattree_pairs(count, rng):
        # Imported lazily: repro.workloads pulls in arrivals, which needs
        # FatTreeParams from this module (circular at import time).
        from repro.workloads.permutation import permutation_pairs

        pairs = []
        while len(pairs) < count:
            pairs.extend(permutation_pairs(rng, p.num_hosts))
        return pairs[:count]

    net.pair_policy_fn = fattree_pairs
    net.extras["params"] = p
    net.extras["tor_uplinks"] = tor_uplinks
    net.extras["tors"] = tors
    return net
