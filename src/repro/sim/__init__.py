"""Packet-level discrete-event network simulator.

This package is the substrate the paper runs on (the authors used NS3): an
event-driven model of hosts, switches, links, shared buffers, and the INT
telemetry PowerTCP consumes.  The public surface is re-exported here.
"""

from repro.sim.engine import (
    SCHEDULER_MODES,
    SCHEDULERS,
    Event,
    Simulator,
    engine_defaults,
)
from repro.sim._compiled import compiled_available, compiled_error
from repro.sim.packet import (
    ACK,
    CNP,
    DATA,
    GRANT,
    HopRecord,
    Packet,
    PacketPool,
    get_pool,
)
from repro.sim.buffer import SharedBuffer
from repro.sim.port import EcnConfig, EgressPort
from repro.sim.switch import Switch
from repro.sim.host import Host
from repro.sim.circuit import CircuitPort, CircuitSchedule

__all__ = [
    "ACK",
    "CNP",
    "CircuitPort",
    "CircuitSchedule",
    "DATA",
    "EcnConfig",
    "EgressPort",
    "Event",
    "GRANT",
    "Host",
    "HopRecord",
    "Packet",
    "PacketPool",
    "SCHEDULER_MODES",
    "SCHEDULERS",
    "SharedBuffer",
    "Simulator",
    "Switch",
    "compiled_available",
    "compiled_error",
    "engine_defaults",
    "get_pool",
]
