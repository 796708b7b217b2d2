"""Traffic generation: flow-size distributions and arrival processes.

* :data:`repro.workloads.distributions.WEB_SEARCH` — the DCTCP web-search
  flow-size distribution the paper evaluates with (§4.1);
* :mod:`repro.workloads.arrivals` — Poisson open-loop arrivals calibrated
  to a target load on the fat-tree's ToR uplinks;
* :mod:`repro.workloads.incast` — the synthetic distributed-file-system
  queries that create fan-in bursts (§4.1), laid over web-search;
* :mod:`repro.workloads.permutation` — ToR-pair traffic for the RDCN
  case study (§5) and the fat-tree's seeded host permutations.
"""

from repro.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.workloads.distributions": ("WEB_SEARCH", "EmpiricalCdf"),
    "repro.workloads.arrivals": ("FlowRequest", "poisson_flows"),
    "repro.workloads.incast": ("IncastEvent", "incast_queries"),
    "repro.workloads.permutation": ("pair_flows",),
})
