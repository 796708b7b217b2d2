"""The built-network container shared by all topology builders.

A fabric is nodes plus links: builders wire switches with ``attach_host``
and ``link``; ``install_routes`` derives the tables, and per-pair RTTs and
ideal FCTs follow them (``docs/INVARIANTS.md#derived-routing``).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.routing.registry import Requirements as RoutingRequirements, make_policy
from repro.sim.engine import Simulator
from repro.sim.host import Host
from repro.sim.packet import ACK_BYTES, HEADER_BYTES
from repro.sim.port import EcnConfig, EgressPort
from repro.sim.switch import Switch
from repro.units import tx_time_ns


def path_base_rtt_ns(
    forward_rates_bps: Sequence[float],
    prop_delays_ns: Sequence[int],
    mtu_payload: int = 1000,
) -> int:
    """Base RTT of a path with no queueing.

    Forward direction serializes a full MTU at every hop; the reverse
    direction serializes the (much smaller) ACK over the same hops.  Both
    directions pay the propagation delays.
    """
    if len(forward_rates_bps) != len(prop_delays_ns):
        raise ValueError("one propagation delay per hop required")
    mtu_wire = mtu_payload + HEADER_BYTES
    rtt = 2 * sum(prop_delays_ns)
    for rate in forward_rates_bps:
        rtt += tx_time_ns(mtu_wire, rate) + tx_time_ns(ACK_BYTES, rate)
    return rtt


def path_ideal_fct_ns(
    forward_rates_bps: Sequence[float],
    prop_delays_ns: Sequence[int],
    size_bytes: int,
    mtu_payload: int = 1000,
) -> int:
    """Store-and-forward lower bound on the FCT of a ``size_bytes`` flow.

    FCT is measured receiver-side (time until the last byte arrives), so
    this bound is *one-way*: the head packet (at most one MTU, possibly
    smaller) is serialized at every hop, the remaining bytes stream
    behind it at the path's minimum rate.  This is the denominator of FCT
    *slowdown* — no run can beat it, so slowdowns are always >= 1.
    """
    if len(forward_rates_bps) != len(prop_delays_ns):
        raise ValueError("one propagation delay per hop required")
    head_payload = min(size_bytes, mtu_payload)
    head_wire = head_payload + HEADER_BYTES
    total = sum(prop_delays_ns)
    for rate in forward_rates_bps:
        total += tx_time_ns(head_wire, rate)
    remaining = size_bytes - head_payload
    if remaining > 0:
        bottleneck = min(forward_rates_bps)
        full_packets = remaining // mtu_payload
        tail = remaining - full_packets * mtu_payload
        stream_bytes = full_packets * (mtu_payload + HEADER_BYTES)
        if tail:
            stream_bytes += tail + HEADER_BYTES
        total += tx_time_ns(stream_bytes, bottleneck)
    return total


class Network:
    """A wired topology: hosts, switches, and path metadata.

    ``base_rtt_ns`` is the maximum base RTT across host pairs (propagation
    plus per-hop MTU serialization) — the τ both HPCC and PowerTCP are
    configured with in the paper ("base-RTT set to the maximum RTT in our
    topology").
    """

    def __init__(self, sim: Simulator, name: str = "net"):
        self.sim = sim
        self.name = name
        self.hosts: List[Host] = []
        self.switches: List[Switch] = []
        self.host_bw_bps: float = 0.0
        self.base_rtt_ns: int = 0
        #: (first switch, dst) -> hop profile past the NIC, filled lazily
        #: by :meth:`path_profile`.
        self._profiles: Dict[Tuple[Switch, int], Tuple[tuple, tuple]] = {}
        #: optional interesting ports registered by builders, keyed by label
        #: (e.g. "bottleneck", "tor0-up0") for probes and experiments.
        self.labeled_ports: Dict[str, EgressPort] = {}
        #: routing policy the builder deployed (name + bound params);
        #: "ecmp" with no params means the inline default fast path.
        self.routing_name: str = "ecmp"
        self.routing_params: Dict[str, object] = {}
        #: builder-specific extras (circuit controller, schedule, ...).
        self.extras: Dict[str, object] = {}
        #: pairing policy ``(count, rng) -> [(src, dst), ...]`` placing
        #: ``count`` long flows the way this topology is meant to be
        #: loaded (the fat-tree's seeded permutations); None: no pairing.
        self.pair_policy_fn: Optional[
            Callable[[int, random.Random], List[Tuple[int, int]]]
        ] = None
        sim.on_close(self.close)

    def close(self) -> None:
        """The network's share of :meth:`Simulator.close` (call that).

        Closes every host and switch (and through them every port) and
        drops the node, label, extras and hop-profile tables.  Scalar
        metadata (``base_rtt_ns``, ``host_bw_bps``, ...) stays readable.
        """
        for host in self.hosts:
            host.close()
        for switch in self.switches:
            switch.close()
        self.hosts.clear()
        self.switches.clear()
        self.labeled_ports.clear()
        self.extras.clear()
        self._profiles.clear()
        self.pair_policy_fn = None

    # -- wiring primitives ---------------------------------------------
    def add_switch(self, switch: Switch) -> Switch:
        """Register a switch."""
        self.switches.append(switch)
        return switch

    def use_routing(self, name: str, params: Optional[dict] = None):
        """Resolve the routing policy once; returns the per-switch factory.

        Unknown names/params fail here.  Parameterless ECMP yields
        ``policy=None`` so every switch keeps the inline byte-identical
        fast path.  Policy *instances* are per-switch (pins, cursors,
        and counters live in the switch).
        """
        spec = make_policy(name, **(params or {}))
        self.routing_name = spec.name
        self.routing_params = dict(spec.params)
        return (lambda: None) if spec.is_default_ecmp else spec.create

    def attach_host(
        self, switch: Switch, rate_bps: float, delay_ns: int, int_stamping: bool = False
    ) -> Host:
        """Hang the next host (ids are dense) off ``switch``.

        Creates the NIC ``nic-<id>``, then the switch's downlink
        ``<switch>-down-<id>`` (only the downlink stamps INT).
        """
        sim = self.sim
        host = Host(sim, len(self.hosts))
        host.attach_nic(
            EgressPort(sim, rate_bps, delay_ns, peer=switch, name=f"nic-{host.host_id}")
        )
        switch.add_port(
            EgressPort(
                sim, rate_bps, delay_ns, peer=host, int_stamping=int_stamping,
                name=f"{switch.name}-down-{host.host_id}",
            )
        )
        self.hosts.append(host)
        return host

    def link(
        self, a: Switch, b: Switch, rate_bps: float, delay_ns: int,
        names: Tuple[str, str], int_stamping: bool = False, **port_kwargs
    ) -> Tuple[EgressPort, EgressPort]:
        """One bidirectional link: the ``a -> b`` port, then its twin.

        ``names`` are the (forward, reverse) port names; ``port_kwargs``
        reach both :class:`EgressPort` constructors.
        """

        def port(src: Switch, dst: Switch, name: str) -> EgressPort:
            return src.add_port(
                EgressPort(
                    self.sim, rate_bps, delay_ns, peer=dst,
                    int_stamping=int_stamping, name=name, **port_kwargs,
                )
            )

        return port(a, b, names[0]), port(b, a, names[1])

    def install_routes(self) -> None:
        """Derive every switch's route table from the wiring.

        One BFS per *edge switch* (a switch with hosts attached) over
        the switch graph (links are bidirectional: :meth:`link` makes
        both ports); the row of switch ``s`` towards that edge holds,
        in port-add order, every port whose peer switch is one hop
        closer — all shortest paths, in the builder's wiring order (the
        order the flow hash indexes).  Call after wiring and before any
        circuit comes up: a port without a peer is no link.
        """
        uplinks = {
            s: [p for p in s.ports if isinstance(p.peer, Switch)]
            for s in self.switches
        }
        for edge in self.switches:
            downlinks = [p for p in edge.ports if isinstance(p.peer, Host)]
            if not downlinks:
                continue
            dist = {edge: 0}
            queue = [edge]
            for switch in queue:  # grows while iterated: the BFS queue
                for port in uplinks[switch]:
                    if port.peer not in dist:
                        dist[port.peer] = dist[switch] + 1
                        queue.append(port.peer)
            for down in downlinks:
                edge.set_route(down.peer.host_id, (down,))
            for switch in queue[1:]:
                closer = dist[switch] - 1
                row = tuple(p for p in uplinks[switch] if dist[p.peer] == closer)
                for down in downlinks:
                    switch.set_route(down.peer.host_id, row)

    def host(self, host_id: int) -> Host:
        """Look up a host by id."""
        return self.hosts[host_id]

    def port(self, label: str) -> EgressPort:
        """Look up a labeled port (e.g. the bottleneck)."""
        return self.labeled_ports[label]

    def label_port(self, label: str, port: EgressPort) -> EgressPort:
        """Register a port of interest under ``label``."""
        port.name = port.name or label
        self.labeled_ports[label] = port
        return port

    @property
    def num_hosts(self) -> int:
        """Number of hosts."""
        return len(self.hosts)

    # -- introspection / pairing policy --------------------------------
    def flow_pairs(
        self, count: int, rng: Optional[random.Random] = None
    ) -> List[Tuple[int, int]]:
        """``count`` (src, dst) pairs under this topology's pairing policy.

        Deterministic for a given (count, rng state).  Only the fat-tree
        installs a policy (seeded permutation pairs); on any other
        topology this is a ``ValueError``.
        """
        if count < 0:
            raise ValueError(f"flow count must be >= 0, got {count}")
        if self.pair_policy_fn is None:
            raise ValueError(f"{self.name}: this topology has no flow pairing")
        return self.pair_policy_fn(count, rng or random.Random(0))

    def describe(self) -> Dict[str, object]:
        """A JSON-able summary of the built network (catalog / tests)."""
        return {
            "name": self.name,
            "num_hosts": self.num_hosts,
            "num_switches": len(self.switches),
            "host_bw_bps": self.host_bw_bps,
            "base_rtt_ns": self.base_rtt_ns,
            "labeled_ports": sorted(self.labeled_ports),
            "routing": self.routing_name,
            "routing_params": dict(self.routing_params),
        }

    def routing_requirements(self) -> RoutingRequirements:
        """Union of the deployed switch policies' transport requirements.

        Switches without a policy object run the default flow-stable
        ECMP fast path, which demands nothing of the transport; an empty
        union therefore yields the default requirements.  The driver
        reads this to decide whether receivers must tolerate reordering.
        """
        return RoutingRequirements.union(
            s.policy.requirements
            for s in self.switches
            if getattr(s, "policy", None) is not None
        )

    def path_profile(self, src: int, dst: int) -> Tuple[tuple, tuple]:
        """Hop profile ``(rates_bps, prop_delays_ns)`` of the (src, dst) path.

        The NIC, then each switch's first candidate towards ``dst`` —
        exact wherever equal-cost paths are link-for-link alike.
        """
        nic = self.hosts[src].nic
        key = (nic.peer, dst)
        hops = self._profiles.get(key)
        if hops is None:
            rates, delays = [], []
            node = nic.peer
            while isinstance(node, Switch):
                port = node.candidates(dst)[0]
                rates.append(port.rate_bps)
                delays.append(port.prop_delay_ns)
                node = port.peer
            hops = self._profiles[key] = (tuple(rates), tuple(delays))
        return (nic.rate_bps,) + hops[0], (nic.prop_delay_ns,) + hops[1]

    def path_rtt_ns(self, src: int, dst: int, mtu_payload: int = 1000) -> int:
        """Base RTT of the (src, dst) path.

        Used for *ideal-FCT* denominators, so slowdown is >= 1 even on
        shorter-than-worst-case paths.  CC configuration still uses the
        network-wide max (``base_rtt_ns``), as the paper does.
        """
        return path_base_rtt_ns(*self.path_profile(src, dst), mtu_payload)

    def ideal_fct_ns(
        self, src: int, dst: int, size_bytes: int, mtu_payload: int = 1000
    ) -> int:
        """Store-and-forward lower-bound FCT for a flow on this network."""
        rates, props = self.path_profile(src, dst)
        return path_ideal_fct_ns(rates, props, size_bytes, mtu_payload)

    def total_drops(self) -> int:
        """Packets dropped across all switch ports (DT rejections)."""
        return sum(p.drops for s in self.switches for p in s.ports)

    def apply_ecn(self, ecn_fn: Callable[[float], EcnConfig]) -> None:
        """Configure ECN marking on every switch port from its line rate."""
        for switch in self.switches:
            for port in switch.ports:
                port.ecn = ecn_fn(port.rate_bps)

    def enable_int(self, enabled: bool = True) -> None:
        """Toggle INT stamping on all switch ports."""
        for switch in self.switches:
            for port in switch.ports:
                port.int_stamping = enabled
