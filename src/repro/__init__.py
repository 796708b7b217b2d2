"""PowerTCP (NSDI 2022) reproduction.

A packet-level discrete-event simulator plus the paper's power-based
congestion control (PowerTCP / θ-PowerTCP), every baseline it is evaluated
against (HPCC, DCQCN, TIMELY, HOMA, reTCP, and the DCTCP extension),
the §2 fluid-model analysis, and an experiment harness regenerating every
figure of the paper.

Quickstart::

    from repro import Simulator, build_dumbbell, PowerTcp
    from repro.experiments import incast

See ``examples/quickstart.py`` for a complete runnable scenario.
"""

from repro.lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.units": ("GBPS", "MSEC", "SEC", "USEC"),
    "repro.sim.engine": ("Simulator",),
    "repro.core.powertcp": ("PowerTcp",),
    "repro.core.theta": ("ThetaPowerTcp",),
    "repro.cc.base": ("StaticWindow",),
    "repro.cc.dcqcn": ("Dcqcn",),
    "repro.cc.dctcp": ("Dctcp",),
    "repro.cc.hpcc": ("Hpcc",),
    "repro.cc.timely": ("Timely",),
    "repro.topology.network": ("Network",),
    "repro.topology.registry": ("build_topology", "get_topology", "topology_names"),
    "repro.topology.dumbbell": ("DumbbellParams", "build_dumbbell"),
    "repro.topology.fattree": ("FatTreeParams", "build_fattree"),
    "repro.topology.rdcn": ("RdcnParams", "build_rdcn"),
    "repro.transport.flow": ("Flow",),
    "repro.transport.receiver": ("Receiver",),
    "repro.transport.sender": ("Sender",),
})
