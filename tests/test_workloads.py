"""Tests for the traffic generators."""

import random

import pytest

from repro.topology.fattree import FatTreeParams
from repro.units import GBPS, MSEC, SEC
from repro.workloads.arrivals import inter_rack_pair, poisson_flows
from repro.workloads.distributions import WEB_SEARCH, EmpiricalCdf
from repro.workloads.incast import incast_queries
from repro.workloads.permutation import all_pairs_flows, pair_flows


# ----------------------------------------------------------------------
# Flow-size distribution
# ----------------------------------------------------------------------
def test_websearch_quantiles_match_table():
    assert WEB_SEARCH.quantile(0.0) == 1
    assert WEB_SEARCH.quantile(0.15) == 10_000
    assert WEB_SEARCH.quantile(0.60) == 200_000
    assert WEB_SEARCH.quantile(1.0) == 30_000_000


def test_websearch_interpolates_between_points():
    # Halfway between P(0.6)=200K and P(0.7)=1M.
    assert WEB_SEARCH.quantile(0.65) == pytest.approx(600_000)


def test_websearch_mean_is_heavy_tailed():
    mean = WEB_SEARCH.mean_bytes()
    # Most flows are small but the mean is driven by the elephant tail.
    assert 1_000_000 < mean < 5_000_000


def test_sampling_respects_distribution():
    rng = random.Random(42)
    samples = [WEB_SEARCH.sample(rng) for _ in range(20_000)]
    small = sum(1 for s in samples if s <= 10_000) / len(samples)
    assert 0.13 < small < 0.17  # CDF says 15% at 10KB
    assert max(samples) <= 30_000_000
    assert min(samples) >= 1


def test_cdf_validation():
    with pytest.raises(ValueError):
        EmpiricalCdf([(1, 0.0)])
    with pytest.raises(ValueError):
        EmpiricalCdf([(1, 0.5), (10, 1.0)])  # must start at 0
    with pytest.raises(ValueError):
        EmpiricalCdf([(10, 0.0), (1, 1.0)])  # sizes must be sorted
    with pytest.raises(ValueError):
        WEB_SEARCH.quantile(1.5)


# ----------------------------------------------------------------------
# Poisson arrivals
# ----------------------------------------------------------------------
def small_params():
    return FatTreeParams(
        num_pods=2,
        tors_per_pod=2,
        hosts_per_tor=4,
        host_bw_bps=10 * GBPS,
        fabric_bw_bps=10 * GBPS,
    )


def test_inter_rack_pairs_never_same_rack():
    rng = random.Random(1)
    for _ in range(500):
        src, dst = inter_rack_pair(rng, 16, 4)
        assert src // 4 != dst // 4


def test_poisson_rate_tracks_load():
    rng = random.Random(7)
    p = small_params()
    duration = 50 * MSEC
    flows = poisson_flows(rng, p, WEB_SEARCH, 0.5, duration)
    offered_bits = sum(f.size_bytes for f in flows) * 8
    capacity_bits = p.num_tors * p.aggs_per_pod * p.fabric_bw_bps * duration / SEC
    load = offered_bits / capacity_bits
    assert 0.3 < load < 0.7  # noisy with few flows, but near 0.5


def test_poisson_flows_sorted_and_bounded():
    rng = random.Random(3)
    p = small_params()
    flows = poisson_flows(rng, p, WEB_SEARCH, 0.4, 10 * MSEC, max_flows=50)
    assert len(flows) <= 50
    times = [f.start_ns for f in flows]
    assert times == sorted(times)
    assert all(0 <= t < 10 * MSEC for t in times)


def test_poisson_load_validation():
    rng = random.Random(3)
    with pytest.raises(ValueError):
        poisson_flows(rng, small_params(), WEB_SEARCH, 0.0, MSEC)


def test_poisson_reproducible_with_seed():
    p = small_params()
    a = poisson_flows(random.Random(9), p, WEB_SEARCH, 0.4, 5 * MSEC)
    b = poisson_flows(random.Random(9), p, WEB_SEARCH, 0.4, 5 * MSEC)
    assert [(f.start_ns, f.src, f.dst, f.size_bytes) for f in a] == [
        (f.start_ns, f.src, f.dst, f.size_bytes) for f in b
    ]


# ----------------------------------------------------------------------
# Incast
# ----------------------------------------------------------------------
def _queries(count=6, request_size_bytes=1_000_000, fanout=4, seed=5):
    return incast_queries(
        random.Random(seed),
        num_hosts=16,
        hosts_per_tor=4,
        count=count,
        request_size_bytes=request_size_bytes,
        fanout=fanout,
        duration_ns=700_000,
    )


def test_incast_responders_are_remote():
    events = _queries()
    # evenly spread: duration // (count + 1) apart
    assert [e.start_ns for e in events] == [100_000 * i for i in range(1, 7)]
    for event in events:
        rack = event.requester // 4
        assert all(r // 4 != rack for r in event.responders)
        assert len(set(event.responders)) == len(event.responders)
    assert _queries() == events  # deterministic in the RNG state
    assert _queries(seed=6) != events


def test_incast_bytes_split_across_responders():
    (event,) = _queries(count=1, request_size_bytes=2_000_000)
    assert len(event.responders) == 4
    assert event.bytes_per_responder == 500_000
    # fanout beyond the remote hosts: the share follows who answers
    (wide,) = _queries(count=1, request_size_bytes=2_400_000, fanout=20)
    assert len(wide.responders) == 12
    assert wide.bytes_per_responder == 200_000


def test_incast_validation():
    assert _queries(count=0) == []
    with pytest.raises(ValueError, match="fanout"):
        _queries(fanout=0)


# ----------------------------------------------------------------------
# RDCN permutation traffic
# ----------------------------------------------------------------------
def test_pair_flows_distinct_hosts():
    flows = pair_flows(0, 1, 4, flows_per_pair=4, size_bytes=100)
    srcs = [f[0] for f in flows]
    dsts = [f[1] for f in flows]
    assert len(set(srcs)) == 4
    assert all(d // 4 == 1 for d in dsts)


def test_pair_flows_wrap_when_oversubscribed():
    flows = pair_flows(0, 1, 2, flows_per_pair=5, size_bytes=100)
    assert len(flows) == 5  # wraps over the 2 hosts


def test_all_pairs_count():
    flows = all_pairs_flows(3, 2, flows_per_pair=1, size_bytes=10)
    assert len(flows) == 3 * 2  # ordered pairs


# ----------------------------------------------------------------------
# host-level permutations
# ----------------------------------------------------------------------
def test_permutation_pairs_is_a_derangement():
    import random

    from repro.workloads.permutation import permutation_pairs

    for seed in range(20):
        pairs = permutation_pairs(random.Random(seed), 9)
        srcs = [s for s, _ in pairs]
        dsts = [d for _, d in pairs]
        assert srcs == list(range(9))
        assert sorted(dsts) == list(range(9))  # each host receives once
        assert all(s != d for s, d in pairs)  # no self-flows


def test_permutation_pairs_deterministic_per_seed():
    import random

    from repro.workloads.permutation import permutation_pairs

    assert permutation_pairs(random.Random(5), 8) == permutation_pairs(
        random.Random(5), 8
    )
    assert permutation_pairs(random.Random(5), 8) != permutation_pairs(
        random.Random(6), 8
    )


def test_permutation_pairs_rejects_tiny_host_sets():
    import random

    import pytest

    from repro.workloads.permutation import permutation_pairs

    with pytest.raises(ValueError):
        permutation_pairs(random.Random(1), 1)


def test_pair_flows_validation():
    with pytest.raises(ValueError):
        pair_flows(1, 1, 4, flows_per_pair=1, size_bytes=10)
    with pytest.raises(ValueError):
        pair_flows(0, 1, 4, flows_per_pair=0, size_bytes=10)
