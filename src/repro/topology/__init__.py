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

from repro.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.topology.network": ("Network",),
    "repro.topology.registry": (
        "RegisteredTopology",
        "build_topology",
        "get_topology",
        "make_topology_params",
        "register_topology",
        "topology_names",
    ),
    "repro.topology.dumbbell": ("DumbbellParams", "build_dumbbell"),
    "repro.topology.fattree": ("FatTreeParams", "build_fattree"),
    "repro.topology.parkinglot": ("ParkingLotParams", "build_parking_lot"),
    "repro.topology.rdcn": ("RdcnParams", "build_rdcn"),
})
