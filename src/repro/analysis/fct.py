"""Flow-completion-time analysis: the paper's headline metrics.

The paper reports **99.9-percentile FCT slowdown** — FCT normalized by the
ideal (propagation + serialization) FCT — split by flow size:

* *short* flows: < 10 KB (Figs. 6, 7a, 7c, 7e),
* *medium* flows: 100 KB – 1 MB (discussed with Fig. 6),
* *long* flows: > 1 MB (Figs. 7b, 7d, 7f),

plus per-size-bin curves over the web-search bins
5K/20K/50K/100K/400K/800K/5M/30M (Fig. 6 x-axis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.stats import percentile
from repro.transport.flow import Flow

SHORT_FLOW_MAX_BYTES = 10_000
MEDIUM_FLOW_RANGE = (100_000, 1_000_000)
LONG_FLOW_MIN_BYTES = 1_000_000

#: Fig. 6 x-axis bin upper edges (bytes).
WEB_SEARCH_BINS = (
    5_000,
    20_000,
    50_000,
    100_000,
    400_000,
    800_000,
    5_000_000,
    30_000_000,
)


def _slowdown(
    flow: Flow, base_rtt_ns: int, bottleneck_bps: float, ideal_fcts_ns
):
    if ideal_fcts_ns is not None:
        return flow.fct_ns / ideal_fcts_ns[flow.flow_id]
    return flow.slowdown(base_rtt_ns, bottleneck_bps)


def slowdowns(
    flows: Iterable[Flow],
    base_rtt_ns: int,
    bottleneck_bps: float,
    ideal_fcts_ns: Optional[Mapping[int, int]] = None,
) -> List[float]:
    """Per-flow FCT slowdown for all completed flows.

    ``ideal_fcts_ns`` maps flow id -> exact per-path ideal FCT in ns (see
    :meth:`repro.experiments.driver.FlowDriver.ideal_fcts_ns`); without
    it the scalar ``base_rtt_ns`` + bottleneck-serialization model is
    used.
    """
    return [
        _slowdown(f, base_rtt_ns, bottleneck_bps, ideal_fcts_ns)
        for f in flows
        if f.completed
    ]


def _class_of(size: int, size_scale: float) -> str:
    if size < SHORT_FLOW_MAX_BYTES * size_scale:
        return "short"
    if (
        MEDIUM_FLOW_RANGE[0] * size_scale
        <= size
        <= MEDIUM_FLOW_RANGE[1] * size_scale
    ):
        return "medium"
    if size > LONG_FLOW_MIN_BYTES * size_scale:
        return "long"
    return "other"


@dataclass
class FctSummary:
    """Slowdown percentiles per flow class for one experiment run."""

    algorithm: str
    pct: float
    short: Optional[float]
    medium: Optional[float]
    long: Optional[float]
    overall: Optional[float]
    completed: int
    total: int

    def row(self) -> str:
        """One printable result row (used by the bench harness)."""

        def fmt(v: Optional[float]) -> str:
            return f"{v:8.2f}" if v is not None else "       -"

        return (
            f"{self.algorithm:>16s}  p{self.pct:<5g} "
            f"short={fmt(self.short)} medium={fmt(self.medium)} "
            f"long={fmt(self.long)} all={fmt(self.overall)} "
            f"({self.completed}/{self.total} flows)"
        )


def summarize_fct(
    algorithm: str,
    flows: Sequence[Flow],
    base_rtt_ns: int,
    bottleneck_bps: float,
    pct: float = 99.9,
    ideal_fcts_ns: Optional[Mapping[int, int]] = None,
    size_scale: float = 1.0,
) -> FctSummary:
    """Percentile slowdowns by class (None when a class has no flows).

    ``size_scale`` rescales the short/medium/long class boundaries for
    experiments run with a scaled-down flow-size distribution.
    """
    by_class: Dict[str, List[float]] = {"short": [], "medium": [], "long": [], "other": []}
    all_values: List[float] = []
    completed = 0
    for flow in flows:
        if not flow.completed:
            continue
        completed += 1
        value = _slowdown(flow, base_rtt_ns, bottleneck_bps, ideal_fcts_ns)
        by_class[_class_of(flow.size_bytes, size_scale)].append(value)
        all_values.append(value)

    def pct_or_none(values: List[float]) -> Optional[float]:
        return percentile(values, pct) if values else None

    return FctSummary(
        algorithm=algorithm,
        pct=pct,
        short=pct_or_none(by_class["short"]),
        medium=pct_or_none(by_class["medium"]),
        long=pct_or_none(by_class["long"]),
        overall=pct_or_none(all_values),
        completed=completed,
        total=len(flows),
    )


def slowdown_by_size_bin(
    flows: Sequence[Flow],
    base_rtt_ns: int,
    bottleneck_bps: float,
    pct: float = 99.9,
    bins: Sequence[int] = WEB_SEARCH_BINS,
    ideal_fcts_ns: Optional[Mapping[int, int]] = None,
    size_scale: float = 1.0,
) -> List[Tuple[int, Optional[float], int]]:
    """Fig. 6 series: (bin upper edge, percentile slowdown, flow count).

    Bin edges are rescaled by ``size_scale`` to match a scaled workload;
    reported edges stay in original (paper) units.
    """
    grouped: Dict[int, List[float]] = {edge: [] for edge in bins}
    for flow in flows:
        if not flow.completed:
            continue
        for edge in bins:
            if flow.size_bytes <= edge * size_scale:
                grouped[edge].append(
                    _slowdown(flow, base_rtt_ns, bottleneck_bps, ideal_fcts_ns)
                )
                break
    return [
        (edge, percentile(vals, pct) if vals else None, len(vals))
        for edge, vals in grouped.items()
    ]
