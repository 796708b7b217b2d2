"""Unit tests for the baseline CC algorithms (HPCC, DCQCN, TIMELY, DCTCP)
against a stub sender."""

import pytest

from repro.cc.base import AckFeedback
from repro.cc.dcqcn import Dcqcn
from repro.cc.dctcp import Dctcp
from repro.cc.hpcc import Hpcc
from repro.cc.timely import Timely
from repro.sim.engine import Simulator
from repro.sim.packet import HopRecord
from repro.units import GBPS, USEC

TAU = 20 * USEC
HOST_BW = 100 * GBPS
BDP = 250_000.0


class StubSender:
    def __init__(self):
        self.sim = Simulator()
        self.base_rtt_ns = TAU
        self.host_bw_bps = HOST_BW
        self.mtu_payload = 1000
        self.cwnd = 0.0
        self.pacing_rate_bps = 0.0
        self.done = False


def hop(qlen, ts, tx, port=1):
    return HopRecord(qlen, ts, tx, HOST_BW, port)


def int_ack(hops, ack_seq=0, sent_high=0):
    return AckFeedback(ack_seq=ack_seq, int_hops=hops, sent_high=sent_high)


def plain_ack(seq=0, marked=False, rtt=None, newly=0, sent_high=0):
    return AckFeedback(ack_seq=seq, ecn_marked=marked, rtt_ns=rtt,
                       newly_acked_bytes=newly, sent_high=sent_high)


# ----------------------------------------------------------------------
# HPCC
# ----------------------------------------------------------------------
def test_hpcc_starts_at_line_rate():
    cc, sender = Hpcc(), StubSender()
    cc.on_start(sender)
    assert sender.cwnd == pytest.approx(BDP)


def test_hpcc_decreases_on_overutilization():
    cc, sender = Hpcc(), StubSender()
    cc.on_start(sender)
    cc.on_ack(sender, int_ack([hop(0, 0, 0)]))
    # Full-rate tx plus a standing queue of 0.5 BDP: U ~ 1.5 > eta.
    congested = hop(125_000, TAU, int(12.5e9 * TAU / 1e9))
    w0 = sender.cwnd
    cc.on_ack(sender, int_ack([congested], ack_seq=1000))
    assert sender.cwnd < w0
    assert cc.utilization_estimate > cc.eta


def test_hpcc_additive_stage_below_eta():
    cc, sender = Hpcc(max_stage=5), StubSender()
    cc.on_start(sender)
    cc.on_ack(sender, int_ack([hop(0, 0, 0)], sent_high=10_000))
    # Half utilization, no queue: U ~ 0.5 < eta -> additive increase.
    w0 = sender.cwnd
    half = hop(0, TAU, int(6.25e9 * TAU / 1e9))
    cc.on_ack(sender, int_ack([half], ack_seq=1000))
    assert sender.cwnd == pytest.approx(w0 + cc._w_ai, rel=1e-6)
    assert cc._inc_stage == 1


def test_hpcc_mi_after_max_stage():
    cc, sender = Hpcc(max_stage=2), StubSender()
    cc.on_start(sender)
    cc.on_ack(sender, int_ack([hop(0, 0, 0)]))
    half_rate = int(6.25e9 * TAU / 1e9)
    for i in range(1, 4):
        cc.on_ack(
            sender,
            int_ack([hop(0, i * TAU, i * half_rate)], ack_seq=i * 10_000 - 1,
                    sent_high=i * 10_000),
        )
    # After two additive stages the third update is multiplicative: with
    # U ~ 0.5 < eta the window must grow by much more than W_ai.
    assert cc._inc_stage == 0  # reset by the MI update
    assert sender.cwnd > BDP * 1.5


def test_hpcc_reference_window_once_per_rtt():
    cc, sender = Hpcc(), StubSender()
    cc.on_start(sender)
    cc.on_ack(sender, int_ack([hop(0, 0, 0)], sent_high=40_000))
    cc.on_ack(sender, int_ack([hop(0, 1_000, 12_500)], ack_seq=1_000,
                              sent_high=40_000))
    wc = cc._w_c
    cc.on_ack(sender, int_ack([hop(0, 2_000, 25_000)], ack_seq=2_000))
    assert cc._w_c == wc  # same RTT: reference unchanged


# ----------------------------------------------------------------------
# DCQCN
# ----------------------------------------------------------------------
def test_dcqcn_cnp_halves_rate_with_alpha():
    cc, sender = Dcqcn(), StubSender()
    cc.on_start(sender)
    r0 = cc.current_rate_bps
    cc.on_cnp(sender)
    assert cc.current_rate_bps == pytest.approx(r0 * 0.5)  # alpha starts at 1


def test_dcqcn_alpha_decays_without_cnp():
    cc, sender = Dcqcn(), StubSender()
    cc.on_start(sender)
    cc.on_cnp(sender)
    alpha_after_cnp = cc._alpha
    sender.sim.run(until=500_000)  # several alpha-timer periods
    assert cc._alpha < alpha_after_cnp


def test_dcqcn_rate_recovers_via_timer():
    cc, sender = Dcqcn(), StubSender()
    cc.on_start(sender)
    cc.on_cnp(sender)
    r_low = cc.current_rate_bps
    sender.sim.run(until=2_000_000)  # many timer periods
    assert cc.current_rate_bps > r_low


def test_dcqcn_byte_counter_drives_increase():
    cc, sender = Dcqcn(byte_counter=10_000), StubSender()
    cc.on_start(sender)
    cc.on_cnp(sender)
    r_low = cc.current_rate_bps
    # 5 byte-counter periods acknowledged at once
    cc.on_ack(sender, plain_ack(seq=50_000, newly=50_000))
    assert cc.current_rate_bps > r_low
    assert cc._byte_stage == 5


def test_dcqcn_ecn_config_scales_with_rate():
    cfg100 = Dcqcn.ecn_config_for(100 * GBPS)
    cfg25 = Dcqcn.ecn_config_for(25 * GBPS)
    assert cfg100.kmin == 4 * cfg25.kmin
    assert cfg100.kmax == 4 * cfg25.kmax


# ----------------------------------------------------------------------
# TIMELY
# ----------------------------------------------------------------------
def run_timely_acks(cc, sender, rtts):
    for i, rtt in enumerate(rtts):
        cc.on_ack(sender, plain_ack(seq=i, rtt=rtt))


def test_timely_gradient_decrease():
    cc, sender = Timely(), StubSender()
    cc.on_start(sender)
    base = int(2 * TAU)  # inside [t_low, t_high]
    run_timely_acks(cc, sender, [base + i * 4_000 for i in range(10)])
    assert cc.rate_bps < HOST_BW  # rising RTTs -> decrease


def test_timely_additive_increase_below_t_low():
    cc, sender = Timely(), StubSender()
    cc.on_start(sender)
    cc._rate = HOST_BW / 2
    run_timely_acks(cc, sender, [TAU] * 5)  # below t_low
    assert cc.rate_bps > HOST_BW / 2


def test_timely_multiplicative_decrease_above_t_high():
    cc, sender = Timely(), StubSender()
    cc.on_start(sender)
    run_timely_acks(cc, sender, [int(20 * TAU)] * 3)
    assert cc.rate_bps < 0.5 * HOST_BW


def test_timely_hai_mode_after_negative_gradients():
    cc, sender = Timely(), StubSender()
    cc.on_start(sender)
    cc._rate = HOST_BW / 4
    base = int(2 * TAU)
    # Falling RTTs inside the gradient band: HAI kicks in after 5.
    run_timely_acks(cc, sender, [base - i * 500 for i in range(8)])
    assert cc._neg_gradient_count >= 5


def test_timely_rate_floor():
    cc, sender = Timely(), StubSender()
    cc.on_start(sender)
    run_timely_acks(cc, sender, [int(100 * TAU)] * 50)
    assert cc.rate_bps >= 0.001 * HOST_BW


# ----------------------------------------------------------------------
# DCTCP
# ----------------------------------------------------------------------
def test_dctcp_additive_increase_without_marks():
    cc, sender = Dctcp(), StubSender()
    cc.on_start(sender)
    w0 = sender.cwnd
    cc.on_ack(sender, plain_ack(seq=10_000, marked=False, newly=10_000))
    assert sender.cwnd == pytest.approx(w0 + sender.mtu_payload)


def test_dctcp_cuts_by_alpha_fraction():
    cc, sender = Dctcp(g=1.0), StubSender()  # alpha tracks F exactly
    cc.on_start(sender)
    # Close the empty initial window so the next window is [0, 10000).
    cc.on_ack(sender, plain_ack(seq=1, marked=False, sent_high=10_000))
    # Half the window's bytes marked, half clean.
    cc.on_ack(sender, plain_ack(seq=5_000, marked=True, newly=5_000))
    w0 = sender.cwnd
    cc.on_ack(sender, plain_ack(seq=10_000, marked=False, newly=5_000))
    # F = 0.5 over the window -> alpha = 0.5 -> cut by alpha/2 = 25%.
    assert sender.cwnd == pytest.approx(w0 * 0.75, rel=1e-2)


def test_dctcp_ecn_threshold_scales():
    cfg = Dctcp.ecn_config_for(100 * GBPS, TAU)
    assert cfg.kmin == cfg.kmax == int(BDP / 7)
