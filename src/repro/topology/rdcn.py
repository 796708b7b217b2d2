"""The §5 case study topology: a reconfigurable datacenter network.

ToR switches are connected to (i) a rotating optical circuit switch — each
ToR has a 100 Gbps circuit uplink with per-destination VOQs that drain only
while the schedule matches the pair — and (ii) a conventional packet
network, modeled as one central packet switch with 25 Gbps ToR links.

Per the paper, ToRs "forward packets exclusively on the circuit network
when available".  The generalization that makes reTCP expressible is the
``prebuffer_ns`` routing parameter: packets for destination ToR *d* are
steered into the circuit VOQ starting ``prebuffer_ns`` before the (i, d)
day opens (reTCP-1800µs / reTCP-600µs in Fig. 8), and over the packet
network otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.sim.buffer import SharedBuffer
from repro.sim.circuit import CircuitPort, CircuitSchedule, RotorController
from repro.sim.engine import Simulator
from repro.sim.packet import DATA
from repro.sim.port import EgressPort
from repro.sim.switch import Switch
from repro.topology.network import Network
from repro.topology.registry import register_topology
from repro.units import GBPS, USEC


@dataclass
class RdcnParams:
    """RDCN shape (defaults = paper §5: 25 ToRs x 10 servers, 225 µs days,
    20 µs nights, 100 Gbps circuits, 25 Gbps packet links)."""

    num_tors: int = 25
    hosts_per_tor: int = 10
    host_bw_bps: float = 25 * GBPS
    circuit_bw_bps: float = 100 * GBPS
    packet_bw_bps: float = 25 * GBPS
    day_ns: int = 225 * USEC
    night_ns: int = 20 * USEC
    host_link_delay_ns: int = 1 * USEC
    tor_link_delay_ns: int = 1 * USEC
    prebuffer_ns: int = 0
    buffer_bytes: int = 12_000_000
    dt_alpha: float = 4.0
    mtu_payload: int = 1000
    int_stamping: bool = True
    record_queuing: bool = True
    #: routing policy applied to the packet core (the ToRs steer between
    #: circuit and packet networks themselves — see :class:`RdcnToR`)
    routing: str = "ecmp"
    routing_params: Optional[dict] = None

    def tor_of_host(self, host_id: int) -> int:
        """Global ToR index of a host."""
        return host_id // self.hosts_per_tor


class RdcnToR(Switch):
    """A ToR that steers traffic between the circuit and packet networks.

    The routing decision is made per packet at arrival time:

    * local destination -> host downlink;
    * remote destination whose circuit is up (or opens within
      ``prebuffer_ns``) -> circuit VOQ;
    * otherwise -> packet-network uplink.
    """

    __slots__ = ("tor_id", "schedule", "prebuffer_ns", "circuit_port", "packet_port", "params")

    def __init__(self, sim, switch_id: int, name: str, *, tor_id: int,
                 schedule: CircuitSchedule, prebuffer_ns: int, params: RdcnParams,
                 buffer: Optional[SharedBuffer] = None):
        super().__init__(sim, switch_id, name, buffer=buffer)
        self.tor_id = tor_id
        self.schedule = schedule
        self.prebuffer_ns = prebuffer_ns
        self.circuit_port: Optional[CircuitPort] = None
        self.packet_port: Optional[EgressPort] = None
        self.params = params

    def receive(self, pkt) -> None:
        self.rx_packets += 1
        dst_tor = self.params.tor_of_host(pkt.dst)
        if dst_tor == self.tor_id:
            self.routes[pkt.dst][0].enqueue(pkt)
            return
        # Control packets (ACK/CNP/grant) always ride the packet network:
        # the reverse circuit of a matched pair is *not* up during the
        # forward day (matchings are permutations, not involutions), so
        # parking ACKs in a VOQ would stall every transport.
        if pkt.kind == DATA and self.schedule.circuit_admits(
            self.tor_id, dst_tor, self.sim.now, self.prebuffer_ns
        ):
            self.circuit_port.enqueue(pkt)
        else:
            self.packet_port.enqueue(pkt)


@register_topology(
    "rdcn",
    params_cls=RdcnParams,
    description="rotating-circuit RDCN plus a 25 Gbps packet network (§5)",
)
def build_rdcn(sim: Simulator, params: Optional[RdcnParams] = None) -> Network:
    """Construct the RDCN; the rotor controller starts immediately.

    ``net.extras``: ``schedule``, ``controller``, ``circuit_ports``,
    ``packet_switch``, ``params``.
    """
    p = params or RdcnParams()
    net = Network(sim, name="rdcn")
    net.host_bw_bps = p.host_bw_bps
    policy = net.use_routing(p.routing, p.routing_params)

    schedule = CircuitSchedule(p.num_tors, p.day_ns, p.night_ns)
    packet_switch = net.add_switch(
        Switch(
            sim,
            switch_id=10_000,
            name="packet-core",
            buffer=SharedBuffer(p.buffer_bytes, p.dt_alpha),
            policy=policy(),
        )
    )
    tors: List[RdcnToR] = [
        net.add_switch(
            RdcnToR(
                sim,
                switch_id=t,
                name=f"rtor{t}",
                tor_id=t,
                schedule=schedule,
                prebuffer_ns=p.prebuffer_ns,
                params=p,
                buffer=SharedBuffer(p.buffer_bytes, p.dt_alpha),
            )
        )
        for t in range(p.num_tors)
    ]

    # Hosts and downlinks.
    for host_id in range(p.num_tors * p.hosts_per_tor):
        net.attach_host(
            tors[p.tor_of_host(host_id)],
            p.host_bw_bps,
            p.host_link_delay_ns,
            int_stamping=p.int_stamping,
        )

    # Circuit uplinks (VOQ ports) and packet-network links.
    circuit_ports: List[CircuitPort] = []
    for t, tor in enumerate(tors):
        circuit = CircuitPort(
            sim,
            p.circuit_bw_bps,
            p.tor_link_delay_ns,
            tor_id=t,
            dst_tor_of=p.tor_of_host,
            int_stamping=p.int_stamping,
            name=f"circuit{t}",
            record_queuing=p.record_queuing,
        )
        tor.circuit_port = tor.add_port(circuit)
        circuit_ports.append(circuit)
        net.label_port(f"circuit{t}", circuit)

        tor.packet_port, _ = net.link(
            tor,
            packet_switch,
            p.packet_bw_bps,
            p.tor_link_delay_ns,
            names=(f"tor{t}-pktup", f"pktcore-down{t}"),
            int_stamping=p.int_stamping,
            record_queuing=p.record_queuing,
        )
        net.label_port(f"tor{t}-pktup", tor.packet_port)

    # Routes before the rotor starts: circuit ports have no peer yet, so
    # the derived tables (and the base RTT) describe the packet network
    # (the always-available path).  The ToR rows for remote hosts are
    # unused: RdcnToR.receive steers remote traffic itself.
    net.install_routes()
    net.base_rtt_ns = net.path_rtt_ns(
        0, p.num_tors * p.hosts_per_tor - 1, p.mtu_payload
    )
    controller = RotorController(sim, schedule, circuit_ports, tors)
    controller.start()

    net.extras["params"] = p
    net.extras["schedule"] = schedule
    net.extras["controller"] = controller
    net.extras["circuit_ports"] = circuit_ports
    net.extras["packet_switch"] = packet_switch
    net.extras["tors"] = tors
    return net
