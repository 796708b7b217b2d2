"""Priority Flow Control — hop-by-hop pausing for lossless fabrics.

The paper's deployment context is RDMA, which in production runs over
PFC-enabled (lossless) Ethernet: when a switch's shared buffer fills past
a high watermark it pauses its upstream neighbours; they resume when the
buffer drains below a low watermark.  The main experiments substitute
generously sized Dynamic-Thresholds buffers (drops are rare and go-back-N
recovers); this module provides the lossless alternative so experiments
can opt into it and so head-of-line-blocking effects can be studied.

Model granularity: pause/resume acts on whole upstream egress ports (the
coarse, class-less PFC of most testbeds).  The pause frame's propagation
is modeled with the link's delay; a paused port finishes the packet it is
serializing and starts no other, so the boundary is packet-granular.

Headroom matters, exactly as on real ASICs: the high watermark must leave
room for (i) the bytes in flight during one poll interval plus one pause-
frame propagation per upstream port, and (ii) Dynamic Thresholds' own
admission knee — with ``alpha = 1`` a single hot queue is cut off at
*half* the buffer, so watermarks above ~capacity/4 can still see DT drops
before the pause takes effect.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.sim.buffer import SharedBuffer
from repro.sim.engine import Simulator
from repro.sim.port import EgressPort
from repro.sim.switch import Switch


class PfcController:
    """Watermark-driven pause/resume of a switch's upstream ports.

    Parameters
    ----------
    switch:
        the congestion point whose shared buffer is being protected.
    upstream_ports:
        the egress ports of *neighbouring* nodes that feed this switch.
    high_watermark / low_watermark:
        byte thresholds on ``switch.buffer.used``; pause above high,
        resume below low (hysteresis avoids pause flapping).
    """

    def __init__(
        self,
        sim: Simulator,
        switch: Switch,
        upstream_ports: Sequence[EgressPort],
        *,
        high_watermark: int,
        low_watermark: int,
        poll_interval_ns: int = 1_000,
    ):
        if switch.buffer is None:
            raise ValueError("PFC requires a shared buffer on the switch")
        if not 0 <= low_watermark < high_watermark <= switch.buffer.capacity:
            raise ValueError(
                f"watermarks must satisfy 0 <= low < high <= capacity, got "
                f"{low_watermark}/{high_watermark}/{switch.buffer.capacity}"
            )
        self.sim = sim
        self.switch = switch
        self.upstream_ports = list(upstream_ports)
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.poll_interval_ns = poll_interval_ns
        self.paused = False
        self.pause_events = 0
        self.resume_events = 0
        self._running = False

    def start(self) -> "PfcController":
        """Begin monitoring the buffer."""
        if not self._running:
            self._running = True
            self.sim.after(self.poll_interval_ns, self._poll)
        return self

    def _poll(self) -> None:
        # Fires every poll interval for the whole run: keep it lean (the
        # engine's tuple fast path makes the reschedule allocation-free).
        sim = self.sim
        used = self.switch.buffer.used
        if not self.paused and used >= self.high_watermark:
            self.paused = True
            self.pause_events += 1
            for port in self.upstream_ports:
                # The pause frame takes one propagation delay to act.
                sim.after(port.prop_delay_ns, port.pause)
        elif self.paused and used <= self.low_watermark:
            self.paused = False
            self.resume_events += 1
            for port in self.upstream_ports:
                sim.after(port.prop_delay_ns, port.resume)
        sim.after(self.poll_interval_ns, self._poll)


def enable_pfc(
    net,
    *,
    high_fraction: float = 0.7,
    low_fraction: float = 0.5,
    poll_interval_ns: int = 1_000,
) -> List[PfcController]:
    """Wire PFC on every switch of a built network.

    Upstream ports are discovered from the wiring: any egress port whose
    peer is the switch counts as an upstream source (host NICs included —
    PFC pausing the server NIC is exactly the head-of-line-blocking
    hazard the literature warns about).
    """
    # Discover feeders: all ports in the network (switch egress + host NICs).
    all_ports: List[EgressPort] = [h.nic for h in net.hosts if h.nic is not None]
    for switch in net.switches:
        all_ports.extend(switch.ports)

    controllers = []
    for switch in net.switches:
        if switch.buffer is None:
            continue
        upstream = [port for port in all_ports if port.peer is switch]
        if not upstream:
            continue
        controller = PfcController(
            net.sim,
            switch,
            upstream,
            high_watermark=int(high_fraction * switch.buffer.capacity),
            low_watermark=int(low_fraction * switch.buffer.capacity),
            poll_interval_ns=poll_interval_ns,
        ).start()
        controllers.append(controller)
    net.extras["pfc_controllers"] = controllers
    return controllers
