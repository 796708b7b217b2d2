"""End hosts: a NIC egress port plus transport endpoint dispatch.

A host's NIC is itself an :class:`~repro.sim.port.EgressPort` — flows
sharing a host serialize through it, which is exactly why the paper sets
the additive increase to ``HostBw * tau / N``: to avoid making the host
NIC the bottleneck.

Incoming packets are dispatched by flow id: the data receiver of flow *f*
lives on the destination host, while ACK/CNP/grant packets for *f* are
dispatched to the sender endpoint registered on the source host.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.sim.packet import Packet, get_pool
from repro.sim.port import EgressPort


class Host:
    """A server with one NIC."""

    __slots__ = ("sim", "host_id", "name", "nic", "endpoints", "rx_packets", "late_packets", "default_handler")

    def __init__(self, sim, host_id: int, name: str = ""):
        self.sim = sim
        self.host_id = host_id
        self.name = name or f"host-{host_id}"
        self.nic: Optional[EgressPort] = None
        self.endpoints: Dict[int, object] = {}
        self.rx_packets = 0
        #: packets that arrived for a flow with no endpoint here (an ACK or
        #: CNP still in flight when its flow was retired)
        self.late_packets = 0
        self.default_handler: Optional[Callable[[Packet], None]] = None

    def attach_nic(self, nic: EgressPort) -> EgressPort:
        """Install the NIC port (created by the topology builder)."""
        self.nic = nic
        return nic

    def register(self, flow_id: int, endpoint) -> None:
        """Register a transport endpoint for a flow terminating here.

        The endpoint must expose ``on_packet(packet)``.
        """
        self.endpoints[flow_id] = endpoint

    def unregister(self, flow_id: int) -> None:
        """Remove a completed flow's endpoint; what still arrives for the
        flow is counted in ``late_packets`` and recycled."""
        self.endpoints.pop(flow_id, None)

    def close(self) -> None:
        """Run teardown: drop the endpoint table (every endpoint points
        back at its host) and close the NIC (whose peer points back
        through the fabric)."""
        self.endpoints.clear()
        if self.nic is not None:
            self.nic.close()

    def send(self, pkt: Packet) -> None:
        """Push a packet out through the NIC."""
        if self.nic is None:
            raise RuntimeError(f"{self.name} has no NIC attached")
        self.nic.enqueue(pkt)

    def receive(self, pkt: Packet) -> None:
        """Dispatch an arriving packet to the flow's endpoint."""
        self.rx_packets += 1
        endpoint = self.endpoints.get(pkt.flow_id)
        if endpoint is not None:
            endpoint.on_packet(pkt)
        elif self.default_handler is not None:
            self.default_handler(pkt)
        else:
            # Nobody is left to consume it: do what the finished endpoint
            # did with a late packet — nothing, and recycle the shell.
            self.late_packets += 1
            get_pool(self.sim).release_with_hops(pkt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host({self.name})"
