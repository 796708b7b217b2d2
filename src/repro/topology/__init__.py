"""Topology builders for the paper's network settings, plus the registry.

Builders register themselves by name with
:mod:`repro.topology.registry`, so experiments resolve topologies
declaratively::

    from repro.topology import build_topology
    net = build_topology(sim, "fattree", num_pods=2, hosts_per_tor=4)

The built-ins:

* ``dumbbell`` — single-bottleneck model used throughout §2/§3 analysis
  and for controlled microbenchmarks;
* ``fattree`` — the §4.1 oversubscribed fat-tree (2 cores, 4 pods ×
  [2 ToR + 2 agg], 256 servers by default);
* ``parkinglot`` — the §3.5 multi-bottleneck switch chain;
* ``rdcn`` — the §5 reconfigurable DCN: ToRs joined by a rotating
  optical circuit switch plus a 25 Gbps packet network.
"""

from repro.topology.network import Network
from repro.topology.registry import (
    RegisteredTopology,
    build_topology,
    get_topology,
    make_topology_params,
    register_topology,
    topology_names,
)
from repro.topology.dumbbell import DumbbellParams, build_dumbbell
from repro.topology.fattree import FatTreeParams, build_fattree
from repro.topology.parkinglot import ParkingLotParams, build_parking_lot
from repro.topology.rdcn import RdcnParams, build_rdcn

__all__ = [
    "DumbbellParams",
    "FatTreeParams",
    "Network",
    "ParkingLotParams",
    "RdcnParams",
    "RegisteredTopology",
    "build_dumbbell",
    "build_fattree",
    "build_parking_lot",
    "build_rdcn",
    "build_topology",
    "get_topology",
    "make_topology_params",
    "register_topology",
    "topology_names",
]
