"""Flow bookkeeping shared by senders, receivers, and the analysis layer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.units import BITS_PER_BYTE, SEC


@dataclass
class Flow:
    """One transfer of ``size_bytes`` from host ``src`` to host ``dst``.

    ``finish_ns`` is set by the receiver when the last in-order byte
    arrives — flow completion time is measured receiver-side, as in the
    paper's FCT metrics.
    """

    flow_id: int
    src: int
    dst: int
    size_bytes: int
    start_ns: int = 0
    finish_ns: Optional[int] = None
    sender_done_ns: Optional[int] = None
    bytes_received: int = 0
    retransmissions: int = 0
    tag: str = ""
    #: canonical name of the congestion-control law that ran the flow (set
    #: by the driver at launch; the record outlives its endpoints)
    algorithm: str = ""

    @property
    def completed(self) -> bool:
        """True once all bytes were received in order."""
        return self.finish_ns is not None

    @property
    def fct_ns(self) -> int:
        """Flow completion time (receiver-side)."""
        if self.finish_ns is None:
            raise ValueError(f"flow {self.flow_id} has not completed")
        return self.finish_ns - self.start_ns

    def ideal_fct_ns(self, base_rtt_ns: int, bottleneck_bps: float) -> int:
        """Best-case FCT: one propagation RTT plus pure serialization.

        Used as the denominator of FCT *slowdown*, the paper's headline
        metric (Figs. 6 and 7).
        """
        serialization = int(self.size_bytes * BITS_PER_BYTE * SEC / bottleneck_bps)
        return base_rtt_ns + serialization

    def slowdown(self, base_rtt_ns: int, bottleneck_bps: float) -> float:
        """FCT normalized by the ideal FCT (>= 1 for a correct simulation)."""
        return self.fct_ns / self.ideal_fct_ns(base_rtt_ns, bottleneck_bps)
