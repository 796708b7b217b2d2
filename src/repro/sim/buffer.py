"""Shared-memory switch buffer with Dynamic Thresholds admission.

The paper's switches use a shared memory architecture with the Dynamic
Thresholds (DT) algorithm of Choudhury and Hahne (IEEE/ACM ToN 1998), as
commonly enabled on commodity datacenter ASICs.  DT admits a packet to a
queue only while the queue is shorter than ``alpha`` times the *remaining*
free buffer:

    admit  iff  qlen < alpha * (capacity - used)

so the admissible queue length shrinks as the buffer fills, leaving
headroom for uncongested ports.

Memory is taken at admission and released when the packet finishes
serializing (``EgressPort._finish_tx``), one packet at a time, so
:attr:`SharedBuffer.used` is exact for every reader — DT admission, the
PFC watermark poll and passive probes alike.
"""

from __future__ import annotations


class SharedBuffer:
    """Shared packet memory for one switch.

    Parameters
    ----------
    capacity:
        total buffer in bytes.  The paper sizes buffers proportionally to
        the bandwidth-buffer ratio of Intel Tofino switches.
    alpha:
        the DT scaling factor.  ``alpha=1`` (a common default) lets one
        congested queue take at most half of the free memory.
    """

    __slots__ = ("capacity", "alpha", "used", "drops", "total_admitted")

    def __init__(self, capacity: int, alpha: float = 1.0):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.capacity = capacity
        self.alpha = alpha
        self.used = 0
        self.drops = 0
        self.total_admitted = 0

    @property
    def free(self) -> int:
        """Unused buffer bytes."""
        return self.capacity - self.used

    def threshold(self) -> float:
        """Current DT admission threshold (bytes) for any single queue."""
        return self.alpha * self.free

    def admits(self, qlen: int, size: int) -> bool:
        """Would DT admit a ``size``-byte packet to a queue of ``qlen`` bytes?"""
        if self.used + size > self.capacity:
            return False
        return qlen < self.threshold()

    def on_enqueue(self, size: int) -> None:
        """Account an admitted packet."""
        self.used += size
        self.total_admitted += size
        assert self.used <= self.capacity, "shared buffer overflow"

    def on_dequeue(self, size: int) -> None:
        """Release memory when a packet leaves the switch."""
        self.used -= size
        assert self.used >= 0, "shared buffer underflow"

    def on_drop(self) -> None:
        """Record a DT rejection (for drop statistics)."""
        self.drops += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SharedBuffer(used={self.used}/{self.capacity}B, "
            f"alpha={self.alpha}, drops={self.drops})"
        )
