"""Congestion-control algorithms: the paper's baselines plus extensions.

Every algorithm is a per-flow object implementing the
:class:`repro.cc.base.CongestionControl` interface and consuming the
typed :class:`repro.cc.base.AckFeedback` view on every acknowledgment;
the PowerTCP family itself lives in :mod:`repro.core`.  Schemes register
themselves with :mod:`repro.cc.registry` (decorator registry + declarative
:class:`~repro.cc.registry.Requirements`), which is how the experiment
harness resolves names and derives the network features to enable.
"""

from repro.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.cc.base": (
        "AckFeedback", "CongestionControl", "MissingFeedbackError", "StaticWindow",
    ),
    "repro.cc.cubic": ("Cubic",),
    "repro.cc.dcqcn": ("Dcqcn",),
    "repro.cc.dctcp": ("Dctcp",),
    "repro.cc.hpcc": ("Hpcc",),
    "repro.cc.newreno": ("NewReno",),
    "repro.cc.retcp": ("ReTcp",),
    "repro.cc.timely": ("Timely",),
    "repro.cc.registry": (
        "AlgorithmSpec",
        "Requirements",
        "algorithm_names",
        "get_algorithm",
        "make_algorithm",
        "register",
        "register_algorithm",
    ),
})
