"""Parking-lot topology: a chain of switches with per-segment cross traffic.

Built to make §3.5's multi-bottleneck claim executable: "in multi-
bottleneck scenarios, the control law precisely reacts to the *most
bottlenecked* link when using INT but reacts to the *sum* of queuing
delays when using RTT."

Layout (``segments`` = 2 shown)::

    E0 ──► S0 ══════► S1 ══════► S2 ──► sink hosts
           ▲  link0   ▲  link1   │
       cross-src0  cross-src1    ▼
                             cross sinks

One *end-to-end* sender E0 crosses every segment link; each segment also
carries local cross traffic entering at its head switch and leaving at
the next switch's local sink.  Segment link rates are configurable so one
link can be made the clear bottleneck.

Host numbering: 0 = end-to-end source; 1..segments = cross sources;
then the end-to-end sink, then one cross sink per segment.
"""

from __future__ import annotations

from collections.abc import Sequence as AbcSequence
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.sim.buffer import SharedBuffer
from repro.sim.engine import Simulator
from repro.sim.switch import Switch
from repro.topology.network import Network
from repro.topology.registry import register_topology
from repro.units import GBPS, USEC


@dataclass
class ParkingLotParams:
    """Chain shape and rates.  ``segment_bw_bps[i]`` is link i's rate.

    ``segment_delay_ns`` accepts either one scalar applied to every
    segment link or a per-segment list; both per-segment overrides are
    validated eagerly against ``segments`` (a silent mismatch used to
    surface only as an IndexError deep inside :func:`build_parking_lot`).
    """

    segments: int = 2
    host_bw_bps: float = 10 * GBPS
    segment_bw_bps: Optional[List[float]] = None
    host_link_delay_ns: int = 1 * USEC
    segment_delay_ns: Union[int, Sequence[int]] = 2 * USEC
    buffer_bytes: int = 4_000_000
    dt_alpha: float = 1.0
    mtu_payload: int = 1000
    int_stamping: bool = True
    #: routing policy (uniform knob; chain routes are single-candidate,
    #: so the policy is only ever consulted on fabrics)
    routing: str = "ecmp"
    routing_params: Optional[dict] = None

    def __post_init__(self):
        if self.segments < 1:
            raise ValueError("need at least one segment")
        if self.segment_bw_bps is None:
            self.segment_bw_bps = [self.host_bw_bps] * self.segments
        else:
            self.segment_bw_bps = list(self.segment_bw_bps)
        if len(self.segment_bw_bps) != self.segments:
            raise ValueError(
                f"segment_bw_bps has {len(self.segment_bw_bps)} rate(s) "
                f"but segments={self.segments}; provide one rate per segment"
            )
        if any(rate <= 0 for rate in self.segment_bw_bps):
            raise ValueError(
                f"segment rates must be positive, got {self.segment_bw_bps}"
            )
        if isinstance(self.segment_delay_ns, AbcSequence) and not isinstance(
            self.segment_delay_ns, str
        ):
            self.segment_delay_ns = list(self.segment_delay_ns)
            if len(self.segment_delay_ns) != self.segments:
                raise ValueError(
                    f"segment_delay_ns has {len(self.segment_delay_ns)} "
                    f"delay(s) but segments={self.segments}; provide one "
                    f"delay per segment (or a single scalar)"
                )
        if any(delay < 0 for delay in self.segment_delays_ns):
            raise ValueError(
                f"segment delays must be >= 0, got {self.segment_delay_ns}"
            )

    @property
    def segment_delays_ns(self) -> List[int]:
        """Per-segment propagation delays, normalized to a list."""
        if isinstance(self.segment_delay_ns, list):
            return self.segment_delay_ns
        return [self.segment_delay_ns] * self.segments

    # Host-id helpers -------------------------------------------------
    @property
    def e2e_src(self) -> int:
        """The end-to-end sender's host id."""
        return 0

    def cross_src(self, segment: int) -> int:
        """Cross-traffic source feeding segment ``segment``."""
        return 1 + segment

    @property
    def e2e_dst(self) -> int:
        """The end-to-end sink's host id."""
        return 1 + self.segments

    def cross_dst(self, segment: int) -> int:
        """Cross-traffic sink of segment ``segment``."""
        return 2 + self.segments + segment

    @property
    def num_hosts(self) -> int:
        """Total host count."""
        return 2 + 2 * self.segments


@register_topology(
    "parkinglot",
    params_cls=ParkingLotParams,
    aliases=("parking-lot",),
    description="switch chain with per-segment cross traffic (§3.5)",
)
def build_parking_lot(
    sim: Simulator, params: Optional[ParkingLotParams] = None
) -> Network:
    """Build the chain; segment link i is labeled ``link{i}``."""
    p = params or ParkingLotParams()
    net = Network(sim, name="parking-lot")
    net.host_bw_bps = p.host_bw_bps
    policy = net.use_routing(p.routing, p.routing_params)

    switches = [
        net.add_switch(
            Switch(sim, i, f"s{i}",
                   buffer=SharedBuffer(p.buffer_bytes, p.dt_alpha),
                   policy=policy())
        )
        for i in range(p.segments + 1)
    ]

    # Hosts in id order (see the module docstring): the e2e source and
    # the cross sources at each segment's head switch, then the e2e sink
    # at the last switch and the cross sinks one switch past their source.
    attach_points = [switches[0]] + switches[:-1] + [switches[-1]] + switches[1:]
    for switch in attach_points:
        net.attach_host(
            switch, p.host_bw_bps, p.host_link_delay_ns, int_stamping=p.int_stamping
        )

    # Segment links (forward) and their reverse twins for ACKs.
    segment_delays = p.segment_delays_ns
    for i in range(p.segments):
        forward, reverse = net.link(
            switches[i], switches[i + 1], p.segment_bw_bps[i], segment_delays[i],
            names=(f"link{i}", f"link{i}-rev"), int_stamping=p.int_stamping,
        )
        net.label_port(f"link{i}", forward)
        net.label_port(f"link{i}-rev", reverse)

    # Routing: every switch forwards "rightward" to hosts attached at or
    # beyond the next switch, "leftward" for the way back.
    net.install_routes()
    # Base RTT: the end-to-end path (the longest one).
    net.base_rtt_ns = net.path_rtt_ns(p.e2e_src, p.e2e_dst, p.mtu_payload)
    net.extras["params"] = p
    net.extras["switches"] = switches
    return net
