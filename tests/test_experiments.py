"""Unit-level tests for the experiment scenario modules (configs, metrics,
result plumbing) — the paper-level claims live in tests/integration."""

import pytest

from repro.experiments.fairness import FairnessConfig, FairnessResult, run_fairness
from repro.experiments.incast import IncastConfig, IncastResult, run_incast
from repro.experiments.rdcn import (
    PAPER_WEEK_NS,
    RdcnConfig,
    scaled_prebuffer_ns,
    scaled_rdcn,
)
from repro.experiments.websearch import WebsearchConfig, run_websearch, scaled_fattree
from repro.units import MSEC, USEC


# ----------------------------------------------------------------------
# incast metrics
# ----------------------------------------------------------------------
def test_incast_result_window_helpers():
    r = IncastResult(algorithm="x", fanout=2, bottleneck_bw_bps=1e9)
    r.times_ns = [0, 10, 20, 30, 40]
    r.throughput_bps = [0.0, 1e9, 1e9, 0.5e9, 0.2e9]
    r.qlen_bytes = [0, 100, 50, 0, 0]
    r.burst_start_ns = 0
    r.burst_end_ns = 40
    r.burst_fcts_ns = [40]
    r.peak_qlen_bytes = 100
    drain = r.queue_drain_time_ns(threshold_bytes=60)
    assert drain == 20  # first sample below threshold after the peak
    assert 0 < r.burst_utilization() <= 1.0


def test_incast_drain_none_when_queue_never_drains():
    r = IncastResult(algorithm="x", fanout=1)
    r.times_ns = [0, 10]
    r.qlen_bytes = [500, 600]
    assert r.queue_drain_time_ns(100) is None


def test_incast_small_run_has_series():
    r = run_incast(
        IncastConfig(algorithm="powertcp", fanout=2, burst_bytes=20_000,
                     duration_ns=1 * MSEC)
    )
    assert len(r.times_ns) > 10
    assert len(r.throughput_bps) > 0
    assert r.burst_end_ns > r.burst_start_ns


# ----------------------------------------------------------------------
# fairness plumbing
# ----------------------------------------------------------------------
def test_fairness_epochs_counted():
    r = run_fairness(
        FairnessConfig(algorithm="powertcp", num_flows=2, join_interval_ns=500 * USEC,
                       duration_ns=2 * MSEC)
    )
    assert len(r.epoch_jain) == 2
    assert len(r.flow_throughput_bps) == 2


def test_fairness_result_requires_epochs():
    with pytest.raises(ValueError):
        FairnessResult(algorithm="x").final_epoch_jain()


# ----------------------------------------------------------------------
# websearch plumbing
# ----------------------------------------------------------------------
def test_websearch_small_run():
    r = run_websearch(
        WebsearchConfig(
            algorithm="powertcp",
            load=0.4,
            duration_ns=4 * MSEC,
            drain_ns=10 * MSEC,
            size_scale=1 / 16,
            max_flows=40,
        )
    )
    assert r.flows
    assert r.buffer_samples_bytes
    summary = r.fct_summary(pct=50)
    assert summary.completed > 0
    assert summary.overall >= 1.0


def test_scaled_fattree_is_a_fattree():
    p = scaled_fattree()
    assert p.num_hosts == 16
    assert p.num_tors == 4


def test_scaled_fattree_default_is_2_to_1_oversubscribed():
    p = scaled_fattree()
    down = p.hosts_per_tor * p.host_bw_bps
    up = p.aggs_per_pod * p.fabric_bw_bps
    assert down / up == 2.0


def test_scaled_fattree_paper_oversub_is_4_to_1():
    p = scaled_fattree(paper_oversub=True)
    assert p.hosts_per_tor == 8
    down = p.hosts_per_tor * p.host_bw_bps
    up = p.aggs_per_pod * p.fabric_bw_bps
    assert down / up == 4.0


def test_scaled_fattree_rejects_contradictory_args():
    with pytest.raises(ValueError, match="not both"):
        scaled_fattree(hosts_per_tor=16, paper_oversub=True)


def test_websearch_seeded_reproducibility():
    cfg = dict(
        algorithm="powertcp",
        load=0.4,
        duration_ns=3 * MSEC,
        drain_ns=8 * MSEC,
        size_scale=1 / 16,
        max_flows=25,
        seed=7,
    )
    a = run_websearch(WebsearchConfig(**cfg))
    b = run_websearch(WebsearchConfig(**cfg))
    assert [f.fct_ns for f in a.flows if f.completed] == [
        f.fct_ns for f in b.flows if f.completed
    ]


# ----------------------------------------------------------------------
# incast queries on web-search
# ----------------------------------------------------------------------
def test_websearch_tags_query_flows():
    cfg = dict(
        algorithm="powertcp",
        load=0.4,
        request_size_bytes=1_000_000,
        fanout=4,
        duration_ns=4 * MSEC,
        drain_ns=10 * MSEC,
        size_scale=1 / 16,
        max_flows=20,
    )
    r = run_websearch(WebsearchConfig(requests_per_duration=2, **cfg))
    tags = {f.tag for f in r.flows}
    assert tags == {"websearch", "incast"}
    assert r.incast_count == 2
    incast_only = r.fct_summary(pct=50, tag="incast")
    assert incast_only.completed == 8  # 2 events x fanout 4
    # the default starts no query: only the web-search flows remain
    plain = run_websearch(WebsearchConfig(**cfg))
    assert plain.incast_count == 0
    assert {f.tag for f in plain.flows} == {"websearch"}
    assert len(plain.flows) == len(r.flows) - 8


# ----------------------------------------------------------------------
# rdcn scaling helper
# ----------------------------------------------------------------------
def test_scaled_prebuffer_proportional_to_week():
    params = scaled_rdcn(num_tors=4)
    week = 3 * (225 + 20) * 1000
    expected = int(600_000 * week / PAPER_WEEK_NS)
    assert scaled_prebuffer_ns(params, 600_000) == expected


def test_scaled_prebuffer_identity_at_paper_scale():
    params = scaled_rdcn(num_tors=25)
    assert scaled_prebuffer_ns(params, 1_800_000) == 1_800_000
