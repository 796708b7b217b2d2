"""Output-queued switch with pluggable path selection.

A switch owns a set of :class:`~repro.sim.port.EgressPort` objects sharing
one :class:`~repro.sim.buffer.SharedBuffer` (Dynamic Thresholds).  Routing
is a precomputed table: destination host id -> tuple of candidate egress
ports.  When several candidates exist (fat-tree uplinks) the pick belongs
to the switch's routing *policy* (:mod:`repro.routing`): flow-level ECMP
by default, or any registered policy (spray) passed as
``policy=``.

The default — parameterless ECMP — is ``policy=None``: ``receive``
inlines the exact historical hash arithmetic instead of calling a policy
object, so the 26 committed figure series are byte-identical by
construction.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.sim.buffer import SharedBuffer
from repro.sim.packet import Packet
from repro.sim.port import EgressPort

_HASH_MIX = 0x9E3779B1  # Fibonacci hashing constant; cheap deterministic mix


def ecmp_index(flow_id: int, switch_id: int, n: int, salt: int = 0) -> int:
    """The flow-level ECMP pick: deterministic per (flow, switch, salt).

    With ``salt=0`` this is bit-for-bit the arithmetic the fast path
    inlines (and every committed figure series was produced with) —
    :mod:`repro.routing.ecmp` wraps it as the registered policy.
    """
    return ((((flow_id ^ switch_id) + salt) * _HASH_MIX) & 0xFFFFFFFF) % n


class RoutingError(KeyError):
    """A switch has no route for a packet's destination.

    Subclasses ``KeyError`` so pre-existing ``except KeyError`` handlers
    keep working, but names the switch, the destination, and the known
    routes instead of the bare ``KeyError(dst)`` that used to escape
    ``Switch.receive``.
    """

    def __init__(self, switch_name: str, dst: int, known: Sequence[int]):
        super().__init__(dst)
        self.switch_name = switch_name
        self.dst = dst
        self.known_destinations = tuple(known)

    def __str__(self) -> str:
        known = ", ".join(map(str, self.known_destinations)) or "(none)"
        return (
            f"switch {self.switch_name!r} has no route for destination "
            f"{self.dst} (known destinations: {known})"
        )


class Switch:
    """A store-and-forward switch node."""

    __slots__ = (
        "sim",
        "switch_id",
        "name",
        "buffer",
        "ports",
        "routes",
        "_single",
        "rx_packets",
        "policy",
    )

    def __init__(
        self,
        sim,
        switch_id: int,
        name: str = "",
        buffer: Optional[SharedBuffer] = None,
        policy=None,
    ):
        self.sim = sim
        self.switch_id = switch_id
        self.name = name or f"switch-{switch_id}"
        self.buffer = buffer
        self.ports: list[EgressPort] = []
        self.routes: Dict[int, Tuple[EgressPort, ...]] = {}
        #: dst -> the sole egress port, for single-candidate rows only
        #: (maintained by :meth:`set_route`): the hot receive path does
        #: one dict probe instead of row lookup + selection.  A
        #: single-candidate row has no selection to make, so this can
        #: never change a pick.
        self._single: Dict[int, EgressPort] = {}
        self.rx_packets = 0
        self.policy = policy
        if policy is not None:
            policy.attach(self)

    def add_port(self, port: EgressPort) -> EgressPort:
        """Register an egress port (its shared buffer is wired here)."""
        if self.buffer is not None and port.buffer is None:
            port.buffer = self.buffer
        self.ports.append(port)
        return port

    def set_route(self, dst: int, ports: Sequence[EgressPort]) -> None:
        """Set the candidate egress ports for destination host ``dst``."""
        if not ports:
            raise ValueError(f"no ports given for destination {dst}")
        row = tuple(ports)
        self.routes[dst] = row
        if len(row) == 1:
            self._single[dst] = row[0]
        else:
            self._single.pop(dst, None)

    def set_policy(self, policy) -> None:
        """Per-switch policy override after construction.

        ``None`` restores the default inline ECMP.
        """
        if policy is not None:
            policy.attach(self)
        self.policy = policy

    def close(self) -> None:
        """Run teardown: close every port and drop the port, route and
        policy tables (ports reach the neighbours, the policy reaches
        back here)."""
        for port in self.ports:
            port.close()
        self.ports.clear()
        self.routes.clear()
        self._single.clear()
        self.policy = None

    def candidates(self, dst: int) -> Tuple[EgressPort, ...]:
        """The route-table row for ``dst``; :class:`RoutingError` if absent."""
        try:
            return self.routes[dst]
        except KeyError:
            raise RoutingError(self.name, dst, sorted(self.routes)) from None

    def route_for(self, pkt: Packet) -> EgressPort:
        """Path selection: the port :meth:`receive` would enqueue to."""
        options = self.candidates(pkt.dst)
        if len(options) == 1:
            return options[0]
        policy = self.policy
        if policy is None:
            return options[ecmp_index(pkt.flow_id, self.switch_id, len(options))]
        return policy.select(pkt, options)

    def receive(self, pkt: Packet) -> None:
        """Forward an arriving packet to the routed egress port."""
        self.rx_packets += 1
        # Single-candidate destinations (ToR downlinks, dumbbell hops —
        # the bulk of every macro workload) resolve in one dict probe;
        # multi-candidate rows fall through to the pick, inlined here
        # (not via route_for) to save a call per packet per hop.
        port = self._single.get(pkt.dst)
        if port is not None:
            port.enqueue(pkt)
            return
        try:
            options = self.routes[pkt.dst]
        except KeyError:
            raise RoutingError(self.name, pkt.dst, sorted(self.routes)) from None
        policy = self.policy
        if policy is None:
            index = ((pkt.flow_id ^ self.switch_id) * _HASH_MIX) & 0xFFFFFFFF
            options[index % len(options)].enqueue(pkt)
        else:
            policy.select(pkt, options).enqueue(pkt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Switch({self.name}, ports={len(self.ports)})"
