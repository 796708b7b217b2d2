"""Pluggable congestion-control registry.

Names, aliases and lookups are one :class:`repro.registry.Registry`.
Every CC scheme registers itself with the :func:`register` class
decorator (or :func:`register_algorithm` for receiver-driven transports
without a per-flow CC class), declaring a typed :class:`Requirements`
record — the switch and transport features the harness must provide for
that scheme to function:

* **INT stamping** — per-hop telemetry on data packets (PowerTCP, HPCC);
* an **ECN config factory** — ``(link_rate_bps, base_rtt_ns) -> EcnConfig``
  building per-port marking thresholds (DCQCN, DCTCP);
* a **CNP interval** — receiver-side congestion-notification pacing
  (DCQCN's notification point);
* the **transport style** — window-based senders vs HOMA's
  receiver-driven grant machinery.

Adding a scheme is one decorated class in one module; a built-in also
lists its module and spellings in :data:`BUILTIN_CATALOG` (lookups import
only the module the catalog names), a third-party scheme registers when
its module is imported::

    from repro.cc.base import CongestionControl
    from repro.cc.registry import Requirements, register

    @register("my-cc", aliases=("mycc",),
              requirements=Requirements(int_stamping=True))
    class MyCc(CongestionControl):
        ...

The paper's evaluated set maps to::

    powertcp        PowerTCP with INT   ("PowerTCP-INT" in Fig. 6)
    theta-powertcp  θ-PowerTCP          ("PowerTCP-Delay")
    hpcc            HPCC
    dcqcn           DCQCN
    timely          TIMELY
    homa            HOMA (receiver-driven; overcommitment parameter)
    retcp           reTCP (RDCN case study only)

Extensions beyond the paper's set: ``dctcp``, ``newreno``, ``cubic``,
and ``static`` (a fixed window, the tests' reference law).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.registry import Registry, class_params, first_doc_line

WINDOW_TRANSPORT = "window"
HOMA_TRANSPORT = "homa"


@dataclass(frozen=True)
class Requirements:
    """Declarative features one CC scheme needs from the harness.

    ``ecn_config`` is the per-port marking factory
    ``(link_rate_bps, base_rtt_ns) -> EcnConfig``; a scheme needs ECN
    marking iff it declares a factory (this removes the old DCTCP special
    case where the harness had to know the threshold depends on the base
    RTT — the factory simply receives it).  ``cnp_interval_ns`` and
    ``transport`` are per-flow concerns; ``int_stamping`` and
    ``ecn_config`` are network-wide, switched on once per run by the
    driver.
    """

    int_stamping: bool = False
    ecn_config: Optional[Callable[[float, int], object]] = None
    cnp_interval_ns: Optional[int] = None
    transport: str = WINDOW_TRANSPORT

    @property
    def needs_int(self) -> bool:
        """True when the scheme consumes per-hop INT telemetry."""
        return self.int_stamping

    @property
    def needs_ecn(self) -> bool:
        """True when the scheme declared an ECN marking factory."""
        return self.ecn_config is not None


@dataclass(frozen=True)
class RegisteredAlgorithm:
    """One registry entry: a named scheme plus its declared contract."""

    name: str
    requirements: Requirements
    cls: Optional[type] = None
    aliases: Tuple[str, ...] = ()
    #: accepted ``make_algorithm`` parameters (derived from the class
    #: constructor unless registered explicitly)
    param_names: FrozenSet[str] = frozenset()
    #: per-flow factory ``(flow, net, **params) -> CongestionControl``;
    #: defaults to ``cls(**params)``
    factory: Optional[Callable] = None
    #: True when the factory needs a built network (e.g. reTCP binds the
    #: circuit schedule) — such schemes cannot be driven standalone
    requires_network: bool = False
    description: str = ""

    def validate_params(self, params: Dict) -> None:
        """Reject unknown constructor parameters with a named error."""
        REGISTRY.validate_params(self.name, self.param_names, params)

    def make_cc(self, flow, net, params: Dict):
        """Instantiate the per-flow CC object (None for receiver-driven)."""
        if self.factory is not None:
            return self.factory(flow, net, **params)
        if self.cls is not None:
            return self.cls(**params)
        return None


#: each module that self-registers built-in algorithms -> the names and
#: aliases it registers (the PowerTCP family lives in repro.core;
#: everything else under repro.cc)
BUILTIN_CATALOG = {
    "repro.cc.base": ("static",),
    "repro.cc.cubic": ("cubic",),
    "repro.cc.dcqcn": ("dcqcn",),
    "repro.cc.dctcp": ("dctcp",),
    "repro.cc.homa": ("homa",),
    "repro.cc.hpcc": ("hpcc",),
    "repro.cc.newreno": ("newreno",),
    "repro.cc.retcp": ("retcp",),
    "repro.cc.timely": ("timely",),
    "repro.core.powertcp": ("powertcp", "powertcp-int"),
    "repro.core.theta": ("theta-powertcp", "powertcp-delay", "theta"),
}

#: Re-registration is idempotent only for the identical class object;
#: class-less entries (HOMA) have no identity to match, so a name
#: collision with one is always an error.
REGISTRY: Registry[RegisteredAlgorithm] = Registry(
    "congestion-control algorithm", BUILTIN_CATALOG, lambda entry: entry.cls
)
#: canonical name -> entry
ALGORITHMS = REGISTRY.entries
load_builtin_algorithms = REGISTRY.load_builtins
get_algorithm = REGISTRY.get
algorithm_names = REGISTRY.names


def register(
    name: str,
    *,
    aliases: Iterable[str] = (),
    requirements: Requirements = Requirements(),
    params: Optional[Iterable[str]] = None,
    factory: Optional[Callable] = None,
    requires_network: bool = False,
    description: str = "",
):
    """Class decorator: register a CC class under ``name`` (+ aliases).

    ``params`` overrides the accepted-parameter set (otherwise derived
    from the constructor signature across the MRO); ``factory`` replaces
    the default ``cls(**params)`` instantiation for schemes that need the
    built network (pass ``requires_network=True`` for those).
    """

    def decorate(cls: type) -> type:
        entry = RegisteredAlgorithm(
            name=name,
            requirements=requirements,
            cls=cls,
            aliases=tuple(aliases),
            param_names=(
                frozenset(params) if params is not None else class_params(cls)
            ),
            factory=factory,
            requires_network=requires_network,
            description=description or first_doc_line(cls),
        )
        REGISTRY.add(name, entry, entry.aliases)
        return cls

    return decorate


def register_algorithm(
    name: str,
    *,
    aliases: Iterable[str] = (),
    requirements: Requirements = Requirements(),
    params: Iterable[str] = (),
    description: str = "",
) -> RegisteredAlgorithm:
    """Register a scheme with no per-flow CC class (HOMA's receiver-driven
    transport: the machinery lives in the driver/receiver, not a CC law)."""
    entry = RegisteredAlgorithm(
        name=name,
        requirements=requirements,
        aliases=tuple(aliases),
        param_names=frozenset(params),
        description=description,
    )
    return REGISTRY.add(name, entry, entry.aliases)


@dataclass
class AlgorithmSpec:
    """One deployable (algorithm, parameters) binding.

    Produced by :func:`make_algorithm`; consumed by
    :class:`repro.experiments.driver.FlowDriver`.  All harness-facing
    knowledge lives in ``requirements`` — there are no per-scheme special
    fields.
    """

    name: str
    requirements: Requirements = field(default_factory=Requirements)
    params: Dict = field(default_factory=dict)
    entry: Optional[RegisteredAlgorithm] = None

    @property
    def needs_int(self) -> bool:
        return self.requirements.needs_int

    @property
    def needs_ecn(self) -> bool:
        return self.requirements.needs_ecn

    @property
    def cnp_interval_ns(self) -> Optional[int]:
        return self.requirements.cnp_interval_ns

    @property
    def is_homa(self) -> bool:
        """True for the receiver-driven transport."""
        return self.requirements.transport == HOMA_TRANSPORT

    def make_cc(self, flow, net):
        """Instantiate this spec's per-flow CC object."""
        if self.entry is None:
            raise ValueError(
                f"algorithm spec {self.name!r} has no registry entry; build "
                "specs via make_algorithm() or register the scheme"
            )
        return self.entry.make_cc(flow, net, self.params)


def make_algorithm(name: str, **params) -> AlgorithmSpec:
    """Bind ``name`` and constructor ``params`` into a deployable spec.

    Raises ``KeyError`` (:class:`repro.registry.UnknownNameError`) for
    unknown names and ``TypeError`` for unknown parameters (naming the
    algorithm and its accepted parameter set).
    """
    entry = get_algorithm(name)
    entry.validate_params(params)
    return AlgorithmSpec(
        name=entry.name,
        requirements=entry.requirements,
        params=dict(params),
        entry=entry,
    )


#: canonical names of the paper's evaluated set (Figs. 4-7)
PAPER_ALGORITHMS = ("powertcp", "theta-powertcp", "hpcc", "dcqcn", "timely", "homa")
