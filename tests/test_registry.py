"""Tests for the decorator-based CC registry (name -> entry -> spec)."""

import pytest

from repro.cc.hpcc import Hpcc
from repro.cc.registry import (
    ALGORITHMS,
    HOMA_TRANSPORT,
    PAPER_ALGORITHMS,
    AlgorithmSpec,
    Requirements,
    algorithm_names,
    get_algorithm,
    make_algorithm,
    register,
)
from repro.core.powertcp import PowerTcp


def test_all_paper_algorithms_resolve():
    for name in PAPER_ALGORITHMS:
        spec = make_algorithm(name)
        assert spec.name == name


def test_registry_catalog_contains_extensions():
    names = algorithm_names()
    for name in ("swift", "dctcp", "static", "newreno", "cubic", "retcp"):
        assert name in names


def test_unknown_name_raises_with_catalog():
    with pytest.raises(KeyError, match="powertcp"):
        make_algorithm("bbr")


def test_powertcp_aliases():
    assert make_algorithm("powertcp-int").name == "powertcp"
    assert make_algorithm("PowerTCP").name == "powertcp"
    assert make_algorithm("theta").name == "theta-powertcp"
    assert make_algorithm("powertcp-delay").name == "theta-powertcp"


def test_aliases_resolve_to_the_same_entry():
    assert get_algorithm("powertcp-int") is get_algorithm("powertcp")
    assert get_algorithm("theta") is get_algorithm("theta-powertcp")
    assert get_algorithm("POWERTCP_INT") is get_algorithm("powertcp")


def test_int_requirements():
    assert make_algorithm("powertcp").needs_int
    assert make_algorithm("hpcc").needs_int
    assert not make_algorithm("theta-powertcp").needs_int
    assert not make_algorithm("timely").needs_int


def test_dcqcn_requirements_declare_ecn_and_cnp():
    spec = make_algorithm("dcqcn")
    assert spec.needs_ecn
    assert spec.cnp_interval_ns == 50_000
    config = spec.requirements.ecn_config(100e9, 20_000)
    assert config.kmin == 100_000 and config.kmax == 400_000


def test_dctcp_ecn_factory_uses_base_rtt():
    spec = make_algorithm("dctcp")
    assert spec.needs_ecn
    small = spec.requirements.ecn_config(10e9, 10_000)
    large = spec.requirements.ecn_config(10e9, 40_000)
    assert small.kmin == small.kmax  # step marking
    assert large.kmin == pytest.approx(4 * small.kmin, abs=4)


def test_homa_spec_is_receiver_driven():
    spec = make_algorithm("homa", overcommitment=3)
    assert spec.is_homa
    assert spec.requirements.transport == HOMA_TRANSPORT
    assert spec.params["overcommitment"] == 3
    assert spec.make_cc(None, None) is None


def test_cc_params_forwarded():
    spec = make_algorithm("powertcp", gamma=0.5, expected_flows=4)
    cc = spec.make_cc(None, None)
    assert isinstance(cc, PowerTcp)
    assert cc.gamma == 0.5
    assert cc.expected_flows == 4


def test_each_flow_gets_fresh_cc_instance():
    spec = make_algorithm("hpcc")
    a = spec.make_cc(None, None)
    b = spec.make_cc(None, None)
    assert isinstance(a, Hpcc) and isinstance(b, Hpcc)
    assert a is not b


def test_unknown_param_names_algorithm_and_accepted_set():
    with pytest.raises(TypeError) as excinfo:
        make_algorithm("powertcp", gama=0.9)
    message = str(excinfo.value)
    assert "powertcp" in message
    assert "'gama'" in message
    assert "gamma" in message and "expected_flows" in message


def test_unknown_param_rejected_for_factory_and_transport_entries():
    with pytest.raises(TypeError, match="homa"):
        make_algorithm("homa", fanout=3)
    with pytest.raises(TypeError, match="retcp"):
        make_algorithm("retcp", prebufer_ns=100)


def test_unbound_spec_cannot_make_cc():
    spec = AlgorithmSpec(name="adhoc")
    with pytest.raises(ValueError, match="registry entry"):
        spec.make_cc(None, None)


def test_register_rejects_duplicate_names_and_aliases():
    with pytest.raises(ValueError, match="already"):

        @register("powertcp")
        class Impostor:  # pragma: no cover - never instantiated
            pass

    with pytest.raises(ValueError, match="already"):

        @register("fresh-name", aliases=("theta",))
        class AliasSquatter:  # pragma: no cover - never instantiated
            pass

    assert "fresh-name" not in ALGORITHMS  # nothing half-registered

    # Class-less entries have no identity to re-match: a second
    # registration under the same name must not silently overwrite.
    from repro.cc.registry import register_algorithm

    homa = get_algorithm("homa")
    with pytest.raises(ValueError, match="already registered"):
        register_algorithm("homa")
    assert get_algorithm("homa") is homa


def test_requirements_union_merges_features():
    union = Requirements.union(
        [
            make_algorithm("powertcp").requirements,
            make_algorithm("dcqcn").requirements,
        ]
    )
    assert union.int_stamping
    assert union.ecn_config is make_algorithm("dcqcn").requirements.ecn_config


def test_requirements_union_rejects_conflicting_ecn():
    with pytest.raises(ValueError, match="conflicting ECN"):
        Requirements.union(
            [
                make_algorithm("dcqcn").requirements,
                make_algorithm("dctcp").requirements,
            ]
        )


def test_retcp_requires_rdcn_context():
    from repro.sim.engine import Simulator
    from repro.topology.rdcn import RdcnParams, build_rdcn
    from repro.transport.flow import Flow
    from repro.units import USEC

    entry = get_algorithm("retcp")
    assert entry.requires_network
    spec = make_algorithm("retcp", prebuffer_ns=600 * USEC, flows_per_pair=2)
    sim = Simulator()
    net = build_rdcn(sim, RdcnParams(num_tors=3, hosts_per_tor=2))
    cc = spec.make_cc(Flow(1, 0, 2, 1000), net)
    assert cc.src_tor == 0
    assert cc.dst_tor == 1
    assert cc.prebuffer_ns == 600 * USEC
