"""Reliable transport: window/pacing senders, cumulative-ACK receivers.

The paper's deployment target is RDMA NICs, whose loss recovery is
go-back-N; this package implements exactly that: cumulative ACKs, no SACK,
window rewind on triple-duplicate ACK or RTO.  Congestion control is
pluggable via :class:`repro.cc.base.CongestionControl`.
"""

from repro.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.transport.flow": ("Flow",),
    "repro.transport.sender": ("Sender",),
    "repro.transport.receiver": ("Receiver",),
})
