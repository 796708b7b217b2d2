"""Result analysis: FCT slowdowns, CDFs, percentiles, fairness."""

from repro.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.analysis.stats": ("cdf_points", "percentile"),
    "repro.analysis.fct": (
        "FctSummary",
        "LONG_FLOW_MIN_BYTES",
        "MEDIUM_FLOW_RANGE",
        "SHORT_FLOW_MAX_BYTES",
        "slowdown_by_size_bin",
        "slowdowns",
        "summarize_fct",
    ),
    "repro.analysis.fairness": ("jain_index", "throughput_shares"),
    "repro.analysis.results": ("ResultCell", "ResultSet"),
})
