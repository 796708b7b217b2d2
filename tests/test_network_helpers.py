"""Tests for Network helpers: path RTTs, ideal FCT, ECN/INT toggles."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.port import EcnConfig
from repro.topology.dumbbell import DumbbellParams, build_dumbbell
from repro.topology.fattree import build_fattree
from repro.topology.network import path_base_rtt_ns, path_ideal_fct_ns
from repro.experiments.websearch import scaled_fattree
from repro.units import GBPS, USEC


def test_path_base_rtt_validation():
    with pytest.raises(ValueError):
        path_base_rtt_ns([1e9, 1e9], [100])


def test_ideal_fct_single_packet():
    # 500B payload over two 8 Gbps hops (1 byte/ns), 1 us props each.
    ideal = path_ideal_fct_ns([8e9, 8e9], [1000, 1000], 500)
    assert ideal == 2 * 1000 + 2 * (500 + 48)


def test_ideal_fct_streams_behind_head():
    # 3 MTU flow: head serialized per hop, rest streams at the bottleneck.
    ideal = path_ideal_fct_ns([8e9, 8e9], [0, 0], 3000, mtu_payload=1000)
    head = 2 * 1048
    stream = 2 * 1048  # two more full packets at the 8 Gbps bottleneck
    assert ideal == head + stream


def test_ideal_fct_uses_min_rate_for_stream():
    fast_then_slow = path_ideal_fct_ns([80e9, 8e9], [0, 0], 10_000)
    slow_then_fast = path_ideal_fct_ns([8e9, 80e9], [0, 0], 10_000)
    # The streaming term is governed by the bottleneck in both orders.
    assert abs(fast_then_slow - slow_then_fast) < 10


def test_ideal_fct_monotone_in_size():
    sizes = [1, 500, 1000, 5000, 50_000, 1_000_000]
    ideals = [path_ideal_fct_ns([10e9, 10e9], [1000, 1000], s) for s in sizes]
    assert ideals == sorted(ideals)


def test_dumbbell_ideal_fct_respects_path():
    sim = Simulator()
    net = build_dumbbell(sim)
    same_switch = net.ideal_fct_ns(0, 1, 10_000)  # both on the left switch
    cross = net.ideal_fct_ns(0, 2, 10_000)  # over the bottleneck
    assert cross > same_switch


def test_fattree_path_rtts_ordered():
    sim = Simulator()
    net = build_fattree(sim, scaled_fattree())
    p = net.extras["params"]
    same_tor = net.path_rtt_ns(0, 1)
    same_pod = net.path_rtt_ns(0, p.hosts_per_tor)  # next ToR, same pod
    inter_pod = net.path_rtt_ns(0, p.num_hosts - 1)
    assert same_tor < same_pod < inter_pod
    assert inter_pod == net.base_rtt_ns


def test_fattree_ideal_respects_path():
    sim = Simulator()
    net = build_fattree(sim, scaled_fattree())
    p = net.extras["params"]
    local = net.ideal_fct_ns(0, 1, 100_000)
    remote = net.ideal_fct_ns(0, p.num_hosts - 1, 100_000)
    assert local < remote


def test_apply_ecn_covers_all_ports():
    sim = Simulator()
    net = build_dumbbell(sim)
    net.apply_ecn(lambda rate: EcnConfig.step(10_000))
    for switch in net.switches:
        for port in switch.ports:
            assert port.ecn is not None


def test_enable_int_toggle():
    sim = Simulator()
    net = build_dumbbell(sim)
    net.enable_int(False)
    assert all(
        not port.int_stamping for s in net.switches for port in s.ports
    )
    net.enable_int(True)
    assert all(port.int_stamping for s in net.switches for port in s.ports)


def test_labeled_port_lookup_missing():
    sim = Simulator()
    net = build_dumbbell(sim)
    with pytest.raises(KeyError):
        net.port("nonexistent")
