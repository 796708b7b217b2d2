"""Tests for the registered `multi_bottleneck` (parking-lot) scenario."""

import json

import pytest

from repro.analysis.results import ResultSet
from repro.experiments.multibottleneck import (
    MultiBottleneckConfig,
    run_multi_bottleneck,
)
from repro.scenarios import get_scenario, run_sweep
from repro.units import GBPS, MSEC

FAST = dict(duration_ns=3 * MSEC)


def test_default_shape_makes_last_segment_the_bottleneck():
    config = MultiBottleneckConfig(segments=3, host_bw_bps=10 * GBPS)
    assert config.resolved_segment_bw_bps() == [10 * GBPS, 10 * GBPS, 5 * GBPS]
    explicit = MultiBottleneckConfig(segment_bw_bps=[10 * GBPS, 2 * GBPS])
    assert explicit.resolved_segment_bw_bps() == [10 * GBPS, 2 * GBPS]


def test_registry_roundtrip_and_metric_schema():
    scenario = get_scenario("multi_bottleneck")
    result = scenario.run(**dict(scenario.tiny_overrides(), **FAST))
    assert result.scenario == "multi_bottleneck"
    for key in (
        "e2e_goodput_bps",
        "e2e_bottleneck_share",
        "e2e_cross_ratio",
        "bottleneck_peak_qlen_bytes",
        "drops",
    ):
        assert key in result.metrics
    assert result.metrics["e2e_goodput_bps"] > 0
    # One cross-goodput entry and one peak-queue entry per segment.
    assert len(result.series["cross_goodput_bps"]) == 2
    assert len(result.series["link_peak_qlen_bytes"]) == 2
    json.dumps(result.to_json_dict())


def test_int_law_beats_delay_law_on_default_chain():
    """The §3.5 ordering: PowerTCP's INT signal isolates the most-
    bottlenecked hop, so its end-to-end flow keeps a larger share than
    θ-PowerTCP's, which reacts to the *sum* of both hops' queueing."""
    shares = {}
    for algo in ("powertcp", "theta-powertcp"):
        r = run_multi_bottleneck(
            MultiBottleneckConfig(algorithm=algo, **FAST)
        )
        assert r.drops == 0
        shares[algo] = r.e2e_bottleneck_share()
    assert shares["powertcp"] > shares["theta-powertcp"]
    # The multi-hop flow is not starved outright under the INT law.
    assert shares["powertcp"] > 0.15


def test_cross_load_knob_adds_flows_per_segment():
    r = run_multi_bottleneck(
        MultiBottleneckConfig(cross_flows_per_segment=2, **FAST)
    )
    # Two cross flows per segment squeeze the e2e flow harder than one.
    solo = run_multi_bottleneck(MultiBottleneckConfig(**FAST))
    assert r.e2e_goodput_bps < solo.e2e_goodput_bps
    assert len(r.cross_goodput_bps) == 2
    assert all(v > 0 for v in r.cross_goodput_bps)


def test_sweep_deterministic_across_job_counts():
    grid = {"algorithm": ["powertcp", "theta-powertcp"]}
    inline = run_sweep("multi_bottleneck", grid=grid, base=FAST, jobs=1)
    parallel = run_sweep("multi_bottleneck", grid=grid, base=FAST, jobs=2)
    assert [c.result.metrics for c in inline.cells] == [
        c.result.metrics for c in parallel.cells
    ]
    assert [c.params["algorithm"] for c in inline.cells] == [
        "powertcp",
        "theta-powertcp",
    ]


def test_sweep_persists_and_loads_through_results_api(tmp_path):
    """`python -m repro sweep multi_bottleneck` end-to-end: persisted JSON
    loads through analysis/results.py and pivots into the §3.5 view."""
    sweep = run_sweep(
        "multi_bottleneck",
        grid={"algorithm": ["powertcp", "theta-powertcp"], "segments": [2, 3]},
        base=dict(duration_ns=1 * MSEC, flow_bytes=10 ** 8),
    )
    path = sweep.persist(str(tmp_path / "multi_bottleneck_sweep.json"))
    rs = ResultSet.load(path)
    assert len(rs) == 4
    assert rs.scenarios() == ["multi_bottleneck"]
    rows, cols, table = rs.view("parking_lot", metric="e2e_bottleneck_share")
    assert rows == [2, 3]
    assert cols == ["powertcp", "theta-powertcp"]
    assert all(v is not None and v > 0 for row in table for v in row)


def test_zero_cross_load_reports_none_ratio():
    """cross_flows_per_segment=0 is a legal config (no cross traffic);
    the §3.5 ratio is undefined, not a ZeroDivisionError after the run."""
    r = run_multi_bottleneck(
        MultiBottleneckConfig(
            cross_flows_per_segment=0, duration_ns=1 * MSEC,
            flow_bytes=10 ** 8,
        )
    )
    assert r.e2e_cross_ratio() is None
    assert r.cross_goodput_bps == [0.0, 0.0]
    # With the chain to itself the e2e flow fills the tight link.
    assert r.e2e_bottleneck_share() > 0.8
    # collect() must survive the undefined ratio too.
    scenario = get_scenario("multi_bottleneck")
    result = scenario.run(
        cross_flows_per_segment=0, duration_ns=1 * MSEC, flow_bytes=10 ** 8
    )
    assert result.metrics["e2e_cross_ratio"] is None


def test_segment_bw_list_mismatch_fails_loudly():
    with pytest.raises(ValueError, match="segments=3"):
        run_multi_bottleneck(
            MultiBottleneckConfig(
                segments=3, segment_bw_bps=[10 * GBPS, 5 * GBPS], **FAST
            )
        )
