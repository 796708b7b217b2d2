"""Fig. 8 integration: the RDCN case study's qualitative claims."""

import pytest

from repro.experiments.rdcn import (
    RdcnConfig,
    run_rdcn,
    scaled_prebuffer_ns,
    scaled_rdcn,
)
from repro.units import MSEC, USEC


@pytest.fixture(scope="module")
def results():
    params = scaled_rdcn()
    out = {}
    for algo, paper_pre in (
        ("powertcp", 0),
        ("hpcc", 0),
        ("retcp", 600 * USEC),
    ):
        pre = scaled_prebuffer_ns(params, paper_pre) if paper_pre else 0
        out[(algo, paper_pre)] = run_rdcn(
            RdcnConfig(
                algorithm=algo,
                prebuffer_ns=pre,
                duration_ns=4 * MSEC,
            )
        )
    return out


def test_powertcp_circuit_utilization_in_paper_band(results):
    # Paper: 80-85% circuit utilization for PowerTCP.
    util = results[("powertcp", 0)].circuit_utilization
    assert 0.75 <= util <= 1.0


def test_hpcc_underutilizes_circuit(results):
    # Fig. 8a: "HPCC maintains low queue lengths but does not fill the
    # available bandwidth".
    assert (
        results[("hpcc", 0)].circuit_utilization
        < results[("powertcp", 0)].circuit_utilization
    )


def test_retcp_fills_circuit_but_pays_latency(results):
    retcp = results[("retcp", 600 * USEC)]
    power = results[("powertcp", 0)]
    assert retcp.circuit_utilization > 0.9
    # Paper: PowerTCP improves tail queuing latency at least 5x vs reTCP;
    # at this scale we assert the robust ordering (>= 2x), as claim
    # fig8b.retcp-latency-vs-powertcp in repro.figures does.
    assert retcp.tail_queuing_latency_ns > 2 * power.tail_queuing_latency_ns


def test_powertcp_keeps_voq_near_zero(results):
    power = results[("powertcp", 0)]
    retcp = results[("retcp", 600 * USEC)]
    assert power.peak_voq_bytes() < 0.05 * retcp.peak_voq_bytes()


def test_throughput_series_shows_circuit_days(results):
    power = results[("powertcp", 0)]
    # During days the pair exceeds the 25 Gbps packet floor.
    assert max(power.pair_throughput_bps) > 30e9
    assert power.day_windows  # the schedule produced windows


def test_no_drops_in_case_study(results):
    for key, result in results.items():
        assert result.drops == 0, key
