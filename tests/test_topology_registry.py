"""Tests for the topology registry and the Network introspection surface."""

import random

import pytest

from repro.sim.engine import Simulator
from repro.topology import registry as topo_registry
from repro.topology.registry import (
    build_topology,
    get_topology,
    make_topology_params,
    register_topology,
    topology_names,
)

#: tiny build overrides per topology (keep the round-trip sub-second)
TINY_PARAMS = {
    "dumbbell": dict(left_hosts=3, right_hosts=2),
    "fattree": dict(
        num_pods=2, tors_per_pod=2, aggs_per_pod=1, num_cores=1,
        hosts_per_tor=2,
    ),
    "parkinglot": dict(segments=2),
    "rdcn": dict(num_tors=3, hosts_per_tor=2),
}


def test_all_builtin_topologies_registered():
    assert topology_names() == ["dumbbell", "fattree", "parkinglot", "rdcn"]


def test_unknown_topology_raises_with_catalog():
    with pytest.raises(KeyError, match="dumbbell"):
        get_topology("moebius-strip")


def test_aliases_resolve_to_canonical_names():
    assert get_topology("fat-tree").name == "fattree"
    assert get_topology("fat_tree").name == "fattree"
    assert get_topology("parking-lot").name == "parkinglot"
    assert get_topology("DUMBBELL").name == "dumbbell"


def test_make_params_rejects_unknown_fields():
    with pytest.raises(ValueError, match="no_such_knob"):
        make_topology_params("dumbbell", no_such_knob=1)


def test_make_params_rejects_params_plus_overrides():
    params = make_topology_params("dumbbell", left_hosts=2)
    with pytest.raises(ValueError, match="not both"):
        get_topology("dumbbell").make_params(params, left_hosts=3)


def test_make_params_rejects_wrong_params_type():
    params = make_topology_params("dumbbell")
    with pytest.raises(TypeError, match="FatTreeParams"):
        get_topology("fattree").make_params(params)


def test_register_rejects_duplicate_name():
    entry = get_topology("dumbbell")
    with pytest.raises(ValueError, match="already registered"):
        register_topology("dumbbell", params_cls=type(entry.make_params()))(
            lambda sim, params=None: None
        )


def test_reregistering_same_builder_is_idempotent():
    entry = get_topology("dumbbell")
    register_topology("dumbbell", params_cls=entry.params_cls)(entry.builder)
    assert get_topology("dumbbell").builder is entry.builder


@pytest.mark.parametrize("name", ["dumbbell", "fattree", "parkinglot", "rdcn"])
def test_registry_roundtrip_list_build_introspect(name):
    """list -> build -> introspect: the uniform surface holds everywhere."""
    entry = get_topology(name)
    assert entry.description
    assert entry.param_fields()
    net = build_topology(Simulator(), name, **TINY_PARAMS[name])
    description = net.describe()
    assert description["num_hosts"] == net.num_hosts > 0
    assert description["base_rtt_ns"] == net.base_rtt_ns > 0
    host_ids = [h.host_id for h in net.hosts]
    assert host_ids == sorted(set(host_ids))  # dense, unique
    for label in description["labeled_ports"]:
        assert net.port(label).rate_bps > 0
    if name != "fattree":  # only the fat-tree has a long-flow pairing
        with pytest.raises(ValueError, match="no flow pairing"):
            net.flow_pairs(5, random.Random(7))
        return
    # The pairing policy yields the requested number of valid pairs.
    pairs = net.flow_pairs(5, random.Random(7))
    assert len(pairs) == 5
    for src, dst in pairs:
        assert src != dst
        assert src in host_ids and dst in host_ids


def test_dumbbell_introspection_matches_builder_layout():
    net = build_topology(Simulator(), "dumbbell", left_hosts=3, right_hosts=2)
    assert net.num_hosts == 5
    bottleneck = net.port("bottleneck")
    assert bottleneck.rate_bps > 0
    # every left host reaches every right host across the bottleneck
    for src in range(3):
        for dst in (3, 4):
            assert net.path_profile(src, dst)[0][1] == bottleneck.rate_bps


def test_parkinglot_bottleneck_is_tightest_segment():
    net = build_topology(
        Simulator(), "parkinglot", segments=3,
        segment_bw_bps=[10e9, 5e9, 10e9],
    )
    rates = {f"link{i}": net.port(f"link{i}").rate_bps for i in range(3)}
    assert min(rates, key=rates.get) == "link1"
    # the end-to-end path crosses every segment, so link1 bounds it
    params = net.extras["params"]
    hops = net.path_profile(params.e2e_src, params.e2e_dst)[0]
    assert min(hops) == 5e9


def test_fattree_pairs_are_seeded_derangements():
    net = build_topology(Simulator(), "fattree", **TINY_PARAMS["fattree"])
    a = net.flow_pairs(8, random.Random(3))
    b = net.flow_pairs(8, random.Random(3))
    c = net.flow_pairs(8, random.Random(4))
    assert a == b  # deterministic in the RNG state
    assert a != c
    # One full permutation: every host exactly once as src and dst.
    assert sorted(src for src, _ in a) == list(range(8))
    assert sorted(dst for _, dst in a) == list(range(8))
    # Counts beyond one permutation keep drawing valid pairs.
    more = net.flow_pairs(11, random.Random(3))
    assert more[:8] == a
    assert all(src != dst for src, dst in more)


def test_flow_pairs_validates_count():
    net = build_topology(Simulator(), "fattree", **TINY_PARAMS["fattree"])
    with pytest.raises(ValueError, match=">= 0"):
        net.flow_pairs(-1, None)
    assert net.flow_pairs(0, None) == []


def test_builders_remain_directly_callable():
    """Registration must not wrap the builder functions."""
    from repro.topology.dumbbell import DumbbellParams, build_dumbbell

    net = build_dumbbell(Simulator(), DumbbellParams(left_hosts=2))
    assert net.num_hosts == 3
    assert get_topology("dumbbell").builder is build_dumbbell


def test_registry_loading_is_lazy_and_idempotent():
    topo_registry.load_builtin_topologies()
    before = dict(topo_registry.TOPOLOGIES)
    topo_registry.load_builtin_topologies()
    assert topo_registry.TOPOLOGIES == before
