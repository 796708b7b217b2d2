"""Packet-level discrete-event network simulator.

This package is the substrate the paper runs on (the authors used NS3): an
event-driven model of hosts, switches, links, shared buffers, and the INT
telemetry PowerTCP consumes.  The public surface is re-exported here.
"""

from repro.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.sim.engine": (
        "SCHEDULER_MODES", "SCHEDULERS", "Event", "Simulator", "engine_defaults",
    ),
    "repro.sim._compiled": ("compiled_available", "compiled_error"),
    "repro.sim.packet": (
        "ACK", "CNP", "DATA", "GRANT", "HopRecord", "Packet", "PacketPool",
        "get_pool",
    ),
    "repro.sim.buffer": ("SharedBuffer",),
    "repro.sim.port": ("EcnConfig", "EgressPort"),
    "repro.sim.switch": ("Switch",),
    "repro.sim.host": ("Host",),
    "repro.sim.circuit": ("CircuitPort", "CircuitSchedule"),
})
