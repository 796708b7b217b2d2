"""Packets and in-band network telemetry (INT) records.

A single :class:`Packet` class covers all packet kinds the simulated
protocols need: data segments, cumulative ACKs, DCQCN congestion
notification packets (CNPs), and HOMA grants.  Using one class with
``__slots__`` keeps allocation cheap — millions of packets are created per
experiment.

INT follows the paper (§3.3, same header layout as HPCC): every traversed
egress port appends a :class:`HopRecord` with the values *at the time the
packet is scheduled for transmission* — queue length, timestamp, cumulative
transmitted bytes, and link bandwidth.  The receiver copies the records into
the ACK so the sender sees per-hop feedback one RTT later.
"""

from __future__ import annotations

from typing import List, Optional

# Packet kinds.
DATA = 0
ACK = 1
CNP = 2
GRANT = 3

KIND_NAMES = {DATA: "DATA", ACK: "ACK", CNP: "CNP", GRANT: "GRANT"}

# Wire-size bookkeeping: per-packet header overhead (Ethernet + IP + TCP-ish)
# and the size of control packets.
HEADER_BYTES = 48
ACK_BYTES = 64
CNP_BYTES = 64
GRANT_BYTES = 64
INT_HOP_BYTES = 8  # the paper appends 64-bit per-hop headers


class HopRecord:
    """Telemetry pushed by one egress port (paper Fig. nomenclature: ``ack.H[i]``).

    Attributes
    ----------
    qlen:
        egress queue length in bytes when the packet started transmission.
    ts_ns:
        switch timestamp (simulation clock) at that moment.
    tx_bytes:
        cumulative bytes this port has transmitted, *including* this packet.
    bandwidth_bps:
        the port's current line rate.
    port_id:
        stable identifier of the stamping port, so senders can track per-hop
        state across ACKs even if path lengths differ between flows.
    """

    __slots__ = ("qlen", "ts_ns", "tx_bytes", "bandwidth_bps", "port_id")

    def __init__(
        self,
        qlen: int,
        ts_ns: int,
        tx_bytes: int,
        bandwidth_bps: float,
        port_id: int,
    ):
        self.qlen = qlen
        self.ts_ns = ts_ns
        self.tx_bytes = tx_bytes
        self.bandwidth_bps = bandwidth_bps
        self.port_id = port_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HopRecord(port={self.port_id}, qlen={self.qlen}B, "
            f"ts={self.ts_ns}ns, tx={self.tx_bytes}B, b={self.bandwidth_bps/1e9:g}Gbps)"
        )


class Packet:
    """One simulated packet.

    ``size`` is the wire size in bytes (payload + headers) and is what
    queues, links, and telemetry account.  ``seq``/``end_seq`` delimit the
    payload byte range for DATA; for ACK, ``ack_seq`` is the cumulative
    acknowledgment and ``acked_seq`` identifies the data segment that
    triggered the ACK (used by CC laws that look up per-segment state).
    """

    __slots__ = (
        "kind",
        "flow_id",
        "src",
        "dst",
        "seq",
        "end_seq",
        "size",
        "priority",
        "ecn_capable",
        "ecn_marked",
        "int_enabled",
        "int_hops",
        "ack_seq",
        "acked_seq",
        "ts_tx",
        "ts_echo",
        "grant_bytes",
        "sched_priority",
        "enqueue_ts",
    )

    def __init__(
        self,
        kind: int,
        flow_id: int,
        src: int,
        dst: int,
        seq: int = 0,
        end_seq: int = 0,
        size: int = 0,
        priority: int = 0,
    ):
        self.kind = kind
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.seq = seq
        self.end_seq = end_seq
        self.size = size
        self.priority = priority
        self.ecn_capable = False
        self.ecn_marked = False
        self.int_enabled = False
        self.int_hops: Optional[List[HopRecord]] = None
        self.ack_seq = 0
        self.acked_seq = 0
        self.ts_tx = 0
        self.ts_echo = 0
        self.grant_bytes = 0
        self.sched_priority = 0
        self.enqueue_ts = 0

    # ------------------------------------------------------------------
    # Constructors for the common packet kinds
    # ------------------------------------------------------------------
    @staticmethod
    def data(
        flow_id: int,
        src: int,
        dst: int,
        seq: int,
        payload: int,
        *,
        priority: int = 0,
        int_enabled: bool = False,
        ecn_capable: bool = False,
        ts_tx: int = 0,
    ) -> "Packet":
        """A data segment carrying ``payload`` bytes starting at ``seq``."""
        pkt = Packet(
            DATA,
            flow_id,
            src,
            dst,
            seq=seq,
            end_seq=seq + payload,
            size=payload + HEADER_BYTES,
            priority=priority,
        )
        pkt.ts_tx = ts_tx
        pkt.ecn_capable = ecn_capable
        if int_enabled:
            pkt.int_enabled = True
            pkt.int_hops = []
        return pkt

    @staticmethod
    def ack(
        data_pkt: "Packet",
        ack_seq: int,
        *,
        now: int,
        echo_int: bool = True,
    ) -> "Packet":
        """Cumulative ACK for ``data_pkt``, echoing its INT records and
        transmit timestamp back to the sender."""
        pkt = Packet(
            ACK,
            data_pkt.flow_id,
            src=data_pkt.dst,
            dst=data_pkt.src,
            size=ACK_BYTES
            + (
                INT_HOP_BYTES * len(data_pkt.int_hops)
                if (echo_int and data_pkt.int_hops)
                else 0
            ),
        )
        pkt.ack_seq = ack_seq
        pkt.acked_seq = data_pkt.seq
        pkt.ts_echo = data_pkt.ts_tx
        pkt.ts_tx = now
        pkt.ecn_marked = data_pkt.ecn_marked
        if echo_int and data_pkt.int_hops is not None:
            pkt.int_hops = data_pkt.int_hops
        return pkt

    @staticmethod
    def cnp(flow_id: int, src: int, dst: int) -> "Packet":
        """DCQCN congestion notification packet (receiver -> sender)."""
        return Packet(CNP, flow_id, src, dst, size=CNP_BYTES)

    @staticmethod
    def grant(
        flow_id: int, src: int, dst: int, grant_bytes: int, sched_priority: int
    ) -> "Packet":
        """HOMA grant authorizing transmission up to byte ``grant_bytes``.

        The grant itself transits at the highest priority (0);
        ``sched_priority`` is the rank the *granted data* should carry.
        """
        pkt = Packet(GRANT, flow_id, src, dst, size=GRANT_BYTES, priority=0)
        pkt.grant_bytes = grant_bytes
        pkt.sched_priority = sched_priority
        return pkt

    # ------------------------------------------------------------------
    @property
    def payload(self) -> int:
        """Payload bytes carried (zero for control packets)."""
        if self.kind == DATA:
            return self.end_seq - self.seq
        return 0

    def stamp_int(self, record: HopRecord) -> None:
        """Append one hop's telemetry (switch-side operation)."""
        if self.int_hops is None:
            self.int_hops = []
        self.int_hops.append(record)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = KIND_NAMES.get(self.kind, str(self.kind))
        return (
            f"Packet({kind}, flow={self.flow_id}, {self.src}->{self.dst}, "
            f"seq={self.seq}, size={self.size})"
        )


class PacketPool:
    """Per-simulator free lists for :class:`Packet`, :class:`HopRecord`,
    and INT hop lists.

    Millions of packets are created per experiment; recycling the shells
    instead of allocating fresh ones keeps the hot path allocation-free
    (and lets :class:`~repro.sim.engine.Simulator` pause the GC during
    ``run`` without growing the heap).  The constructors mirror the
    :class:`Packet` static constructors exactly — a pooled packet is
    field-for-field identical to a fresh one, so pooling cannot change
    simulation results.

    Ownership contract:

    * the transport endpoint that *consumes* a packet releases it — DATA
      at the receiver, ACK/CNP/GRANT at the sender (see
      ``transport/receiver.py`` and ``transport/sender.py``);
    * :meth:`release` recycles the shell only and detaches ``int_hops``
      (used when the hop list's ownership moved elsewhere, e.g. into the
      echoing ACK);
    * :meth:`release_with_hops` additionally recycles the hop records and
      the list itself — callers must guarantee nothing retains them.
      Congestion-control laws therefore must **copy** any INT values they
      need beyond ``on_ack`` (see :class:`repro.cc.base.AckFeedback`);
    * a packet arriving for a flow with no endpoint (late ACKs and CNPs
      of a retired flow) is released by :meth:`Host.receive
      <repro.sim.host.Host.receive>`;
    * packets that die anywhere else (drops) are simply left to the
      garbage collector — correctness never depends on a release
      happening.
    """

    __slots__ = ("_packets", "_hops", "_lists")

    def __init__(self) -> None:
        self._packets: List[Packet] = []
        self._hops: List[HopRecord] = []
        self._lists: List[list] = []

    # -- allocation ----------------------------------------------------
    def _blank(
        self,
        kind: int,
        flow_id: int,
        src: int,
        dst: int,
        seq: int,
        end_seq: int,
        size: int,
        priority: int,
    ) -> Packet:
        """A packet with every field reset, reusing a shell when possible."""
        free = self._packets
        if free:
            pkt = free.pop()
            pkt.kind = kind
            pkt.flow_id = flow_id
            pkt.src = src
            pkt.dst = dst
            pkt.seq = seq
            pkt.end_seq = end_seq
            pkt.size = size
            pkt.priority = priority
            pkt.ecn_capable = False
            pkt.ecn_marked = False
            pkt.int_enabled = False
            pkt.int_hops = None
            pkt.ack_seq = 0
            pkt.acked_seq = 0
            pkt.ts_tx = 0
            pkt.ts_echo = 0
            pkt.grant_bytes = 0
            pkt.sched_priority = 0
            pkt.enqueue_ts = 0
            return pkt
        return Packet(
            kind, flow_id, src, dst,
            seq=seq, end_seq=end_seq, size=size, priority=priority,
        )

    def data(
        self,
        flow_id: int,
        src: int,
        dst: int,
        seq: int,
        payload: int,
        *,
        priority: int = 0,
        int_enabled: bool = False,
        ecn_capable: bool = False,
        ts_tx: int = 0,
    ) -> Packet:
        """Pooled equivalent of :meth:`Packet.data`."""
        pkt = self._blank(
            DATA, flow_id, src, dst,
            seq, seq + payload, payload + HEADER_BYTES, priority,
        )
        pkt.ts_tx = ts_tx
        pkt.ecn_capable = ecn_capable
        if int_enabled:
            pkt.int_enabled = True
            lists = self._lists
            pkt.int_hops = lists.pop() if lists else []
        return pkt

    def ack(
        self,
        data_pkt: Packet,
        ack_seq: int,
        *,
        now: int,
        echo_int: bool = True,
    ) -> Packet:
        """Pooled equivalent of :meth:`Packet.ack`.

        With ``echo_int`` the hop list's ownership transfers from the data
        packet to the ACK (the records are shared by reference, exactly as
        in :meth:`Packet.ack`); release the data packet with
        :meth:`release`, not :meth:`release_with_hops`.
        """
        echo = echo_int and data_pkt.int_hops is not None
        pkt = self._blank(
            ACK, data_pkt.flow_id, data_pkt.dst, data_pkt.src,
            0, 0,
            ACK_BYTES + (INT_HOP_BYTES * len(data_pkt.int_hops) if echo else 0),
            0,
        )
        pkt.ack_seq = ack_seq
        pkt.acked_seq = data_pkt.seq
        pkt.ts_echo = data_pkt.ts_tx
        pkt.ts_tx = now
        pkt.ecn_marked = data_pkt.ecn_marked
        if echo:
            pkt.int_hops = data_pkt.int_hops
        return pkt

    def cnp(self, flow_id: int, src: int, dst: int) -> Packet:
        """Pooled equivalent of :meth:`Packet.cnp`."""
        return self._blank(CNP, flow_id, src, dst, 0, 0, CNP_BYTES, 0)

    def grant(
        self, flow_id: int, src: int, dst: int, grant_bytes: int, sched_priority: int
    ) -> Packet:
        """Pooled equivalent of :meth:`Packet.grant`."""
        pkt = self._blank(GRANT, flow_id, src, dst, 0, 0, GRANT_BYTES, 0)
        pkt.grant_bytes = grant_bytes
        pkt.sched_priority = sched_priority
        return pkt

    def hop(
        self,
        qlen: int,
        ts_ns: int,
        tx_bytes: int,
        bandwidth_bps: float,
        port_id: int,
    ) -> HopRecord:
        """Pooled equivalent of the :class:`HopRecord` constructor."""
        free = self._hops
        if free:
            rec = free.pop()
            rec.qlen = qlen
            rec.ts_ns = ts_ns
            rec.tx_bytes = tx_bytes
            rec.bandwidth_bps = bandwidth_bps
            rec.port_id = port_id
            return rec
        return HopRecord(qlen, ts_ns, tx_bytes, bandwidth_bps, port_id)

    # -- release -------------------------------------------------------
    def release(self, pkt: Packet) -> None:
        """Recycle the shell only; any hop list is detached, not recycled
        (its ownership moved elsewhere — e.g. into the echoing ACK)."""
        pkt.int_hops = None
        self._packets.append(pkt)

    def release_with_hops(self, pkt: Packet) -> None:
        """Recycle the shell *and* its hop records + list.

        Only valid when nothing else retains the records — the consuming
        endpoint's contract (CC laws copy INT scalars during ``on_ack``).
        """
        hops = pkt.int_hops
        if hops is not None:
            self._hops.extend(hops)
            hops.clear()
            self._lists.append(hops)
            pkt.int_hops = None
        self._packets.append(pkt)


def get_pool(sim) -> PacketPool:
    """The per-simulator packet pool, attached lazily to ``sim.pool``."""
    pool = sim.pool
    if pool is None:
        pool = sim.pool = PacketPool()
    return pool
