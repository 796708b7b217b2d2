"""Deploys congestion-control algorithms onto a built network.

The driver owns flow lifecycle: it schedules flow starts on the event
loop, instantiates the right transport endpoints (window-based sender or
HOMA's receiver-driven pair), switches on the network features the
deployed algorithms need, collects completed flows for FCT analysis, and
retires a flow's endpoints once they can no longer be observed — memory
follows the flows in flight, not the flows that ran (see
``docs/INVARIANTS.md``, "Flow lifetime").

Algorithms are resolved through :mod:`repro.cc.registry` and may differ
*per flow* — the deployment question PowerTCP §6 raises (incremental
rollout next to an incumbent scheme).  ``algorithm`` accepts:

* a **string** or :class:`~repro.cc.registry.AlgorithmSpec` — every flow
  runs the same scheme (the classic single-algorithm experiment);
* a **mapping** from flow *tag* to string/spec (``"*"`` is the fallback
  key) — coexistence experiments tag each flow with its group;
* a **callable** ``(flow) -> str | AlgorithmSpec`` — arbitrary
  assignment policies;

and :meth:`FlowDriver.start_flow` takes an explicit per-flow
``algorithm=`` override.  Network features (INT stamping, ECN marking)
are derived as the *union* of every deployed scheme's declared
:class:`~repro.cc.registry.Requirements`; per-flow features (INT echo,
CNP pacing, transport style) follow each flow's own spec.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Union

from repro.cc.base import CongestionControl
from repro.cc.homa import HomaGrantScheduler, HomaReceiver, HomaSender
from repro.cc.registry import AlgorithmSpec, Requirements, make_algorithm
from repro.topology.network import Network
from repro.transport.flow import Flow
from repro.transport.receiver import Receiver
from repro.transport.sender import Sender
from repro.units import BITS_PER_BYTE, SEC

#: anything resolvable to a deployable spec
AlgorithmLike = Union[str, AlgorithmSpec]
#: the fallback key accepted in tag->algorithm mappings
DEFAULT_GROUP = "*"

#: duplicate-ACK threshold for flows crossing a packet-spraying network:
#: spray reorders constantly, so a few duplicate ACKs are routine — only
#: a persistent gap (or the RTO) should trigger the go-back-N rewind.
REORDER_DUP_ACK_THRESHOLD = 16


class FlowDriver:
    """Flow factory + lifecycle manager for one (network, algorithms) pair."""

    def __init__(
        self,
        net: Network,
        algorithm: Union[
            AlgorithmLike,
            Mapping[str, AlgorithmLike],
            Callable[[Flow], AlgorithmLike],
        ],
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

        #: every spec deployed so far, keyed by canonical name (the
        #: requirement union is over these)
        self.deployed: Dict[str, AlgorithmSpec] = {}
        self._ecn_factory = None  # the factory currently configuring ports
        self._int_enabled = False  # INT stamping already switched on
        self._flow_specs: Dict[int, AlgorithmSpec] = {}
        self._assign: Optional[Callable[[Flow], AlgorithmLike]] = None
        self._tag_specs: Optional[Dict[str, AlgorithmSpec]] = None
        self.sim.on_close(self.close)

        self.spec: Optional[AlgorithmSpec] = None  # the single/default spec
        if isinstance(algorithm, AlgorithmSpec):
            if cc_params:
                raise ValueError(
                    "cc_params cannot amend an already-bound AlgorithmSpec; "
                    "pass the parameters to make_algorithm() instead"
                )
            self.spec = algorithm
            self._deploy(self.spec)
        elif isinstance(algorithm, str):
            self.spec = self._resolve(algorithm, cc_params)
            self._deploy(self.spec)
        elif isinstance(algorithm, Mapping):
            if cc_params:
                raise ValueError(
                    "cc_params is ambiguous across algorithm groups; bind "
                    "parameters per group via make_algorithm(name, **params)"
                )
            if not algorithm:
                raise ValueError("algorithm mapping must not be empty")
            self._tag_specs = {
                tag: self._deploy(self._resolve(algo))
                for tag, algo in algorithm.items()
            }
        elif callable(algorithm):
            if cc_params:
                raise ValueError(
                    "cc_params is ambiguous with a callable assignment; "
                    "return parameterized specs from the callable instead"
                )
            self._assign = algorithm
        else:
            raise TypeError(
                "algorithm must be a name, an AlgorithmSpec, a tag->algorithm "
                f"mapping, or a callable(flow); got {type(algorithm).__name__}"
            )

    # ------------------------------------------------------------------
    # Algorithm resolution and network-feature union
    # ------------------------------------------------------------------
    def _resolve(
        self, algorithm: AlgorithmLike, cc_params: Optional[dict] = None
    ) -> AlgorithmSpec:
        if isinstance(algorithm, AlgorithmSpec):
            return algorithm
        if isinstance(algorithm, str):
            return make_algorithm(algorithm, **(cc_params or {}))
        raise TypeError(
            f"cannot resolve algorithm from {type(algorithm).__name__}"
        )

    def _deploy(self, spec: AlgorithmSpec) -> AlgorithmSpec:
        """Record a spec and (re)apply the union of network features."""
        if spec.name in self.deployed:
            return spec
        # Validate the union over (deployed + candidate) before recording,
        # so a rejected deploy (e.g. conflicting ECN) leaves the driver in
        # its previous, working state.
        candidate = dict(self.deployed)
        candidate[spec.name] = spec
        union = Requirements.union(
            s.requirements for s in candidate.values()
        )
        self.deployed = candidate
        if union.int_stamping and not self._int_enabled:
            self.net.enable_int(True)
            self._int_enabled = True
        factory = union.ecn_config
        if factory is not None and factory is not self._ecn_factory:
            base_rtt = self.net.base_rtt_ns
            self.net.apply_ecn(lambda rate: factory(rate, base_rtt))
            self._ecn_factory = factory
        return spec

    def _spec_for(self, flow: Flow) -> AlgorithmSpec:
        spec = self._flow_specs.get(flow.flow_id)
        if spec is not None:
            return spec
        if self._tag_specs is not None:
            spec = self._tag_specs.get(flow.tag) or self._tag_specs.get(
                DEFAULT_GROUP
            )
            if spec is None:
                raise KeyError(
                    f"flow tag {flow.tag!r} matches no algorithm group "
                    f"(groups: {', '.join(sorted(self._tag_specs))}); add a "
                    f"{DEFAULT_GROUP!r} fallback or tag the flow"
                )
            return spec
        return self.spec

    @property
    def requirements(self) -> Requirements:
        """Current union of the deployed schemes' network requirements."""
        return Requirements.union(
            s.requirements for s in self.deployed.values()
        )

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
        algorithm: Optional[AlgorithmLike] = None,
    ) -> Flow:
        """Schedule one flow; returns its (mutable) record.

        ``algorithm`` overrides the driver-level assignment for this flow
        (resolved — and its requirements deployed — eagerly, so unknown
        names or parameters fail here, not mid-simulation).
        """
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
        # Resolve the flow's algorithm eagerly, whatever the assignment
        # mode, so typos, unknown params, unmatched tags, and requirement
        # conflicts all fail here — never mid-simulation.
        if algorithm is not None:
            self._flow_specs[flow.flow_id] = self._deploy(
                self._resolve(algorithm)
            )
        elif self._assign is not None:
            self._flow_specs[flow.flow_id] = self._deploy(
                self._resolve(self._assign(flow))
            )
        elif self.spec is None:
            self._spec_for(flow)  # fail eagerly on unmatched tags
        self.flows.append(flow)
        start = self.sim.now if at_ns is None else at_ns
        self.sim.at(start, self._launch, flow)
        return flow

    def _launch(self, flow: Flow) -> None:
        spec = self._spec_for(flow)
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
        if self._reorder_tolerant:
            raise ValueError(
                f"network {self.net.name!r} routes with a packet-spraying "
                "policy, which requires reordering-tolerant receivers; the "
                "HOMA transport's grant machinery does not support that — "
                "use a flow-stable routing policy (ecmp, wrr, least-loaded) "
                "with HOMA"
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
        overcommit = int(spec.params.get("overcommitment", 1))
        scheduler = self._homa_schedulers.get(host_id)
        if scheduler is None:
            scheduler = HomaGrantScheduler(
                self.sim,
                self.net.host(host_id),
                overcommitment=overcommit,
                mtu_payload=self.mtu_payload,
            )
            self._homa_schedulers[host_id] = scheduler
        elif scheduler.overcommitment != overcommit:
            # The grant scheduler is per destination host; two HOMA groups
            # with different overcommitment cannot share one receiver.
            raise ValueError(
                f"host {host_id} already grants with overcommitment "
                f"{scheduler.overcommitment}; cannot deploy a HOMA flow "
                f"with overcommitment {overcommit} to the same receiver"
            )
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
        self._flow_specs.pop(flow_id, None)
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
