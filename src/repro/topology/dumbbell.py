"""Dumbbell topology: N senders, M receivers, one shared bottleneck.

This is the paper's analytical single-bottleneck model (§2.1) made
concrete: every left-side host reaches every right-side host through one
``bottleneck_bw`` link, so the queue the control laws fight over is a
single labeled port (``net.port("bottleneck")``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.buffer import SharedBuffer
from repro.sim.engine import Simulator
from repro.sim.switch import Switch
from repro.topology.network import Network
from repro.topology.registry import register_topology
from repro.units import GBPS, USEC


@dataclass
class DumbbellParams:
    """Configuration of the dumbbell (defaults match §2's running example:
    a 100 Gbps bottleneck with ~20 µs base RTT)."""

    left_hosts: int = 2
    right_hosts: int = 1
    host_bw_bps: float = 100 * GBPS
    bottleneck_bw_bps: float = 100 * GBPS
    host_link_delay_ns: int = 1 * USEC
    bottleneck_delay_ns: int = 4 * USEC
    buffer_bytes: int = 4_000_000
    dt_alpha: float = 1.0
    mtu_payload: int = 1000
    int_stamping: bool = True
    #: routing policy (uniform knob; every dumbbell route has a single
    #: candidate, so the policy is only ever consulted on fabrics)
    routing: str = "ecmp"
    routing_params: Optional[dict] = None

    def __post_init__(self):
        for side in ("left_hosts", "right_hosts"):
            if getattr(self, side) < 1:
                raise ValueError(
                    f"{side} must be >= 1, got {getattr(self, side)} (a "
                    "dumbbell needs a host on each side of the bottleneck)"
                )


@register_topology(
    "dumbbell",
    params_cls=DumbbellParams,
    description="N senders, M receivers, one shared bottleneck (§2.1)",
)
def build_dumbbell(sim: Simulator, params: Optional[DumbbellParams] = None) -> Network:
    """Build a dumbbell.  Host ids: left hosts first, then right hosts."""
    p = params or DumbbellParams()
    net = Network(sim, name="dumbbell")
    net.host_bw_bps = p.host_bw_bps
    policy = net.use_routing(p.routing, p.routing_params)

    def switch(switch_id: int, name: str) -> Switch:
        return net.add_switch(
            Switch(sim, switch_id, name,
                   buffer=SharedBuffer(p.buffer_bytes, p.dt_alpha), policy=policy())
        )

    left, right = switch(0, "left"), switch(1, "right")
    for side, count in ((left, p.left_hosts), (right, p.right_hosts)):
        for _ in range(count):
            net.attach_host(
                side, p.host_bw_bps, p.host_link_delay_ns,
                int_stamping=p.int_stamping,
            )
    bottleneck, reverse = net.link(
        left, right, p.bottleneck_bw_bps, p.bottleneck_delay_ns,
        names=("bottleneck", "bottleneck-reverse"), int_stamping=p.int_stamping,
    )
    net.label_port("bottleneck", bottleneck)
    net.label_port("bottleneck-reverse", reverse)
    net.install_routes()
    # Base RTT: any left-to-right pair crosses the bottleneck.
    net.base_rtt_ns = net.path_rtt_ns(0, p.left_hosts, p.mtu_payload)
    net.extras["params"] = p
    return net
