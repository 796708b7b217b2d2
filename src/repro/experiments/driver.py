"""Deploys one congestion-control algorithm onto a built network.

The driver owns flow lifecycle: it schedules flow starts on the event
loop, instantiates the right transport endpoints (window-based sender or
HOMA's receiver-driven pair), switches on the network features the
algorithm needs, collects completed flows for FCT analysis, and retires
a flow's endpoints once they can no longer be observed — memory follows
the flows in flight, not the flows that ran (see ``docs/INVARIANTS.md``,
"Flow lifetime").

Every flow of a run shares one algorithm, given by name (resolved
through :mod:`repro.cc.registry` with ``cc_params``) or as a bound
:class:`~repro.cc.registry.AlgorithmSpec`.  Its declared
:class:`~repro.cc.registry.Requirements` switch on INT stamping and ECN
marking once, in the constructor; per-flow features (INT echo, CNP
pacing, transport style) follow from the same spec.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.cc.base import CongestionControl
from repro.cc.registry import AlgorithmSpec, make_algorithm
from repro.topology.network import Network
from repro.transport.flow import Flow
from repro.transport.receiver import Receiver
from repro.transport.sender import Sender
from repro.units import BITS_PER_BYTE, SEC

if TYPE_CHECKING:  # HOMA's transport loads only for HOMA flows
    from repro.cc.homa import HomaGrantScheduler

#: duplicate-ACK threshold for flows crossing a packet-spraying network:
#: spray reorders constantly, so a few duplicate ACKs are routine — only
#: a persistent gap (or the RTO) should trigger the go-back-N rewind.
REORDER_DUP_ACK_THRESHOLD = 16


class FlowDriver:
    """Flow factory + lifecycle manager for one (network, algorithm) pair."""

    def __init__(
        self,
        net: Network,
        algorithm: Union[str, AlgorithmSpec],
        *,
        mtu_payload: int = 1000,
        rto_ns: Optional[int] = None,
        cc_params: Optional[dict] = None,
    ):
        self.net = net
        self.sim = net.sim
        self.mtu_payload = mtu_payload
        self.rto_ns = rto_ns
        self.flows: List[Flow] = []
        self.completed: List[Flow] = []
        self.senders: Dict[int, Sender] = {}
        self.receivers: Dict[int, Receiver] = {}
        self._next_flow_id = 1
        self._homa_schedulers: Dict[int, HomaGrantScheduler] = {}
        # Routing requirements are fixed once the network is built: a
        # spraying policy anywhere on the fabric means every window flow
        # gets a reorder-tolerant receiver and a raised dup-ACK threshold.
        self._reorder_tolerant = net.routing_requirements().reordering_tolerant_receiver
        self.sim.on_close(self.close)

        if isinstance(algorithm, AlgorithmSpec):
            if cc_params:
                raise ValueError(
                    "cc_params cannot amend an already-bound AlgorithmSpec; "
                    "pass the parameters to make_algorithm() instead"
                )
            spec = algorithm
        elif isinstance(algorithm, str):
            spec = make_algorithm(algorithm, **(cc_params or {}))
        else:
            raise TypeError(
                "algorithm must be a name or an AlgorithmSpec; got "
                f"{type(algorithm).__name__}"
            )
        self.spec = spec
        if spec.needs_int:
            net.enable_int(True)
        factory = spec.requirements.ecn_config
        if factory is not None:
            base_rtt = net.base_rtt_ns
            net.apply_ecn(lambda rate: factory(rate, base_rtt))

    @property
    def rtt_bytes(self) -> int:
        """One host-line-rate BDP — HOMA's RTTbytes, the paper's cwnd_init."""
        return int(
            self.net.host_bw_bps * self.net.base_rtt_ns / (BITS_PER_BYTE * SEC)
        )

    # ------------------------------------------------------------------
    def start_flow(
        self,
        src: int,
        dst: int,
        size_bytes: int,
        at_ns: Optional[int] = None,
        tag: str = "",
    ) -> Flow:
        """Schedule one flow; returns its (mutable) record."""
        if src == dst:
            raise ValueError(f"flow src == dst == {src}")
        if size_bytes <= 0:
            raise ValueError(f"flow size must be positive, got {size_bytes}")
        if at_ns is not None and at_ns < self.sim.now:
            label = f"{tag!r} " if tag else ""
            raise ValueError(
                f"flow {label}#{self._next_flow_id} ({src}->{dst}, "
                f"{size_bytes}B) starts at {at_ns}ns, which is before "
                f"sim.now={self.sim.now}ns"
            )
        flow = Flow(self._next_flow_id, src, dst, size_bytes, tag=tag)
        self._next_flow_id += 1
        self.flows.append(flow)
        start = self.sim.now if at_ns is None else at_ns
        self.sim.at(start, self._launch, flow)
        return flow

    def _launch(self, flow: Flow) -> None:
        spec = self.spec
        flow.algorithm = spec.name
        if spec.is_homa:
            self._launch_homa(flow, spec)
        else:
            self._launch_window(flow, spec)

    def _launch_window(self, flow: Flow, spec: AlgorithmSpec) -> None:
        receiver = Receiver(
            self.sim,
            self.net.host(flow.dst),
            flow,
            echo_int=spec.needs_int,
            cnp_interval_ns=spec.cnp_interval_ns,
            reorder_tolerant=self._reorder_tolerant,
            on_complete=self._on_complete,
        )
        cc = spec.make_cc(flow, self.net)
        sender = Sender(
            self.sim,
            self.net.host(flow.src),
            flow,
            cc,
            base_rtt_ns=self.net.base_rtt_ns,
            mtu_payload=self.mtu_payload,
            int_enabled=spec.needs_int,
            ecn_capable=spec.needs_ecn,
            rto_ns=self.rto_ns,
            dup_ack_threshold=(
                REORDER_DUP_ACK_THRESHOLD if self._reorder_tolerant else None
            ),
            # A law that reacts to CNPs (DCQCN restarts its timers) would
            # see a late one; its flows keep their endpoints until close().
            on_complete=(
                self._retire
                if type(cc).on_cnp is CongestionControl.on_cnp
                else None
            ),
        )
        self.senders[flow.flow_id] = sender
        self.receivers[flow.flow_id] = receiver
        receiver.start()
        sender.start()

    def _launch_homa(self, flow: Flow, spec: AlgorithmSpec) -> None:
        from repro.cc.homa import HomaReceiver, HomaSender

        if self._reorder_tolerant:
            raise ValueError(
                f"network {self.net.name!r} routes with a packet-spraying "
                "policy, which requires reordering-tolerant receivers; the "
                "HOMA transport's grant machinery does not support that — "
                "use the flow-stable ecmp routing policy with HOMA"
            )
        scheduler = self._scheduler_for(flow.dst, spec)
        receiver = HomaReceiver(
            self.sim,
            self.net.host(flow.dst),
            flow,
            scheduler=scheduler,
            rtt_bytes=self.rtt_bytes,
            echo_int=False,
            on_complete=self._on_complete,
        )
        sender = HomaSender(
            self.sim,
            self.net.host(flow.src),
            flow,
            _NoCc(),
            base_rtt_ns=self.net.base_rtt_ns,
            mtu_payload=self.mtu_payload,
            rto_ns=self.rto_ns,
            rtt_bytes=self.rtt_bytes,
        )
        self.senders[flow.flow_id] = sender
        receiver.start()
        sender.start()

    def _scheduler_for(self, host_id: int, spec: AlgorithmSpec) -> HomaGrantScheduler:
        scheduler = self._homa_schedulers.get(host_id)
        if scheduler is None:
            from repro.cc.homa import HomaGrantScheduler

            scheduler = HomaGrantScheduler(
                self.sim,
                self.net.host(host_id),
                overcommitment=int(spec.params.get("overcommitment", 1)),
                mtu_payload=self.mtu_payload,
            )
            self._homa_schedulers[host_id] = scheduler
        return scheduler

    def _on_complete(self, flow: Flow) -> None:
        self.completed.append(flow)

    def _retire(self, flow: Flow) -> None:
        """The final cumulative ACK reached a window sender: let go of
        the flow's endpoints.

        The sender always goes — done, it ignores whatever still arrives,
        and :meth:`Host.receive` does the same for a flow it no longer
        knows.  The receiver goes only when nothing can reach or read it
        any more: every segment was sent exactly once (so none is still
        in flight behind the final ACK) and none arrived out of order (the
        count ``lb_matrix`` sums over ``receivers`` after the run).
        """
        flow_id = flow.flow_id
        sender = self.senders.pop(flow_id)
        sender.cc = None  # rate-based laws point back at their sender
        sender.host.unregister(flow_id)
        receiver = self.receivers[flow_id]
        if flow.retransmissions == 0 and receiver.out_of_order == 0:
            del self.receivers[flow_id]
            receiver.host.unregister(flow_id)

    # ------------------------------------------------------------------
    def run(self, until_ns: Optional[int] = None) -> None:
        """Run the event loop (forever if no horizon given)."""
        self.sim.run(until=until_ns)

    def ideal_fcts_ns(self) -> Dict[int, int]:
        """Exact per-path ideal FCT of every flow, keyed by flow id.

        The denominators of FCT slowdown
        (:meth:`repro.topology.network.Network.ideal_fct_ns`) as plain
        data, so a result can compute slowdowns after the network it ran
        on was torn down.
        """
        ideal = self.net.ideal_fct_ns
        return {
            f.flow_id: ideal(f.src, f.dst, f.size_bytes, self.mtu_payload)
            for f in self.flows
        }

    def close(self) -> None:
        """The driver's share of :meth:`Simulator.close` (call that).

        Finished window flows were retired as they completed
        (:meth:`_retire`); what is left are the flows still running, DCQCN
        and HOMA flows, and receivers that saw loss or reordering.  Every
        receiver holds ``self._on_complete``, rate-based CC laws hold
        their sender and HOMA receivers and their grant scheduler hold
        each other, so the endpoint and scheduler maps go, each sender
        lets go of its CC object and each scheduler of its active
        messages.  ``flows`` / ``completed`` — the plain records results
        are built from — stay.
        """
        for sender in self.senders.values():
            sender.cc = None
        for scheduler in self._homa_schedulers.values():
            scheduler.active.clear()
        self.senders.clear()
        self.receivers.clear()
        self._homa_schedulers.clear()

    @property
    def unfinished(self) -> List[Flow]:
        """Flows that have not completed yet."""
        return [f for f in self.flows if not f.completed]


class _NoCc:
    """Placeholder CC for HOMA senders (no sender-side congestion control).

    ``HomaSender.__init__`` overwrites the window/pacing this sets.
    """

    def on_start(self, sender) -> None:
        pass

    def on_ack(self, sender, feedback) -> None:
        pass

    def on_loss(self, sender) -> None:
        pass

    def on_timeout(self, sender) -> None:
        pass

    def on_cnp(self, sender) -> None:
        pass
