"""TCP NewReno — the classic loss-based AIMD law (§2's motivation).

The paper's Appendix C recalls the behaviour this class exhibits: "TCP
NewReno flows fill the queue to maximum (say q_max) and then react by
reducing windows by half.  Consequently, the bottleneck queue-length
oscillates between q_max and q_max − b·τ" — i.e. a *standing queue* that
violates the Eq. 1 near-zero-queue equilibrium.  NewReno is implemented
so that claim is executable (claim
``motivation.loss-based-standing-queue`` in ``repro.figures``).

Loss-based TCP is ACK-clocked, not paced: the pacing rate is pinned to
the host line rate and only the window gates transmission.
"""

from __future__ import annotations

from repro.cc.base import CongestionControl
from repro.cc.registry import register

INITIAL_WINDOW_MTUS = 10  # RFC 6928 IW10


@register(
    "newreno",
    description="TCP NewReno: loss-based AIMD (motivation baseline)",
)
class NewReno(CongestionControl):
    """Slow start + congestion avoidance + AIMD on loss."""

    def __init__(self, **kwargs):
        # Loss-based laws must be able to fill BDP *plus* the buffer —
        # the default 2x-BDP cap would prevent the very overshoot that
        # drives them, so allow a much deeper window unless overridden.
        kwargs.setdefault("cap_bdp_multiple", 16.0)
        super().__init__(**kwargs)
        self._ssthresh = float("inf")

    def on_start(self, sender) -> None:
        sender.cwnd = INITIAL_WINDOW_MTUS * sender.mtu_payload
        sender.pacing_rate_bps = sender.host_bw_bps  # ACK-clocked
        self._ssthresh = float("inf")

    def _set_cwnd(self, sender, cwnd: float) -> None:
        low, high = self.window_bounds(sender)
        sender.cwnd = min(max(cwnd, sender.mtu_payload), high)
        sender.pacing_rate_bps = sender.host_bw_bps

    def on_ack(self, sender, feedback) -> None:
        acked = feedback.newly_acked_bytes
        if acked <= 0:
            return
        if sender.cwnd < self._ssthresh:
            # Slow start: one MTU per acked MTU (exponential per RTT).
            self._set_cwnd(sender, sender.cwnd + acked)
        else:
            # Congestion avoidance: one MTU per RTT, spread across ACKs.
            mtu = sender.mtu_payload
            increment = mtu * acked / max(sender.cwnd, mtu)
            self._set_cwnd(sender, sender.cwnd + increment)

    def on_loss(self, sender) -> None:
        """Fast retransmit: halve (the multiplicative decrease of AIMD)."""
        self._ssthresh = max(sender.cwnd / 2, 2 * sender.mtu_payload)
        self._set_cwnd(sender, self._ssthresh)

    def on_timeout(self, sender) -> None:
        """RTO: collapse to one MTU and re-enter slow start."""
        self._ssthresh = max(sender.cwnd / 2, 2 * sender.mtu_payload)
        self._set_cwnd(sender, sender.mtu_payload)

    @property
    def ssthresh(self) -> float:
        """Current slow-start threshold."""
        return self._ssthresh
