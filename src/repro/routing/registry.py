"""Pluggable routing/load-balancing policy registry.

Names, aliases and lookups are one :class:`repro.registry.Registry`.
Every policy registers itself with the :func:`register_policy` class
decorator, declaring a typed :class:`Requirements` record — what the
*transport* must provide for the policy to be safe.  Flow-level
policies (ECMP) keep a flow on one path for its lifetime, so INT hop
indices stay stable and the go-back-N receiver never sees reordering;
per-packet policies (spray) give that up and therefore declare
``reordering_tolerant_receiver=True``, which
:class:`repro.experiments.driver.FlowDriver` translates into
out-of-order accumulation at the receiver and a raised duplicate-ACK
threshold at the sender (see docs/INVARIANTS.md#path-stability).

Adding a policy is one decorated class in one module; a built-in also
lists its module and spellings in :data:`BUILTIN_CATALOG`::

    from repro.routing.base import RoutingPolicy
    from repro.routing.registry import Requirements, register_policy

    @register_policy("my-policy", aliases=("mine",))
    class MyPolicy(RoutingPolicy):
        ...

Topology builders consume the registry through their ``routing`` /
``routing_params`` knobs: ``build_topology(sim, "fattree",
routing="spray")`` gives every switch its own policy instance.
The default ``ecmp`` with no parameters is ``policy=None`` to
:class:`repro.sim.switch.Switch`, whose ``receive`` inlines the hash, so
the 26 committed figure series are byte-identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.registry import Registry, class_params, first_doc_line

#: canonical name of the policy the fast path inlines
DEFAULT_POLICY = "ecmp"


@dataclass(frozen=True)
class Requirements:
    """Declarative transport features one routing policy needs.

    ``reordering_tolerant_receiver`` — the policy may deliver one flow's
    packets over different paths, so receivers must buffer out-of-order
    segments (and senders must not treat a handful of duplicate ACKs as
    loss).  ``flow_stable`` — all packets of one flow take one path, the
    property INT-based CC schemes rely on for stable hop indices.
    """

    reordering_tolerant_receiver: bool = False
    flow_stable: bool = True

    @staticmethod
    def union(many: Iterable["Requirements"]) -> "Requirements":
        """Network-facing union across the deployed policies.

        Reorder tolerance is needed if *any* policy sprays; the network
        is flow-stable only if *every* policy is.  An empty iterable
        yields the default (flow-stable ECMP) requirements.
        """
        reordering = False
        flow_stable = True
        for req in many:
            reordering = reordering or req.reordering_tolerant_receiver
            flow_stable = flow_stable and req.flow_stable
        return Requirements(
            reordering_tolerant_receiver=reordering, flow_stable=flow_stable
        )


@dataclass(frozen=True)
class RegisteredPolicy:
    """One registry entry: a named policy class plus its declared contract."""

    name: str
    cls: type
    requirements: Requirements = Requirements()
    aliases: Tuple[str, ...] = ()
    #: accepted ``make_policy`` parameters (derived from the class
    #: constructor unless registered explicitly)
    param_names: FrozenSet[str] = frozenset()
    description: str = ""

    def validate_params(self, params: Dict) -> None:
        """Reject unknown constructor parameters with a named error."""
        REGISTRY.validate_params(self.name, self.param_names, params)


#: each module that self-registers a built-in policy -> the names and
#: aliases it registers
BUILTIN_CATALOG = {
    "repro.routing.ecmp": ("ecmp", "ecmp-hash", "hash"),
    "repro.routing.spray": ("spray", "packet-spray", "per-packet"),
}

REGISTRY: Registry[RegisteredPolicy] = Registry(
    "routing policy", BUILTIN_CATALOG, lambda entry: entry.cls
)
#: canonical name -> entry
POLICIES = REGISTRY.entries
load_builtin_policies = REGISTRY.load_builtins
get_policy = REGISTRY.get
policy_names = REGISTRY.names


def register_policy(
    name: str,
    *,
    aliases: Iterable[str] = (),
    requirements: Requirements = Requirements(),
    params: Optional[Iterable[str]] = None,
    description: str = "",
):
    """Class decorator: register a policy class under ``name`` (+ aliases).

    ``params`` overrides the accepted-parameter set (otherwise derived
    from the constructor signature across the MRO).  The decorator also
    stamps ``policy_name`` and ``requirements`` onto the class so a live
    policy instance carries its own contract.
    """

    def decorate(cls: type) -> type:
        entry = RegisteredPolicy(
            name=name,
            cls=cls,
            requirements=requirements,
            aliases=tuple(aliases),
            param_names=(
                frozenset(params) if params is not None else class_params(cls)
            ),
            description=description or first_doc_line(cls),
        )
        REGISTRY.add(name, entry, entry.aliases)
        cls.policy_name = name
        cls.requirements = requirements
        return cls

    return decorate


@dataclass
class PolicySpec:
    """One deployable (policy, parameters) binding.

    Produced by :func:`make_policy`; consumed by topology builders, which
    call :meth:`create` once per switch — policy state (spray cursors)
    is strictly per-switch, exactly as it would be on real hardware.
    """

    name: str
    requirements: Requirements = field(default_factory=Requirements)
    params: Dict = field(default_factory=dict)
    entry: Optional[RegisteredPolicy] = None

    @property
    def is_default_ecmp(self) -> bool:
        """True for parameterless ECMP — the byte-identical inline path.

        Builders pass ``policy=None`` to :class:`repro.sim.switch.Switch`
        in this case, which takes the inlined hash in ``receive``; any
        parameterized or non-default policy gets a real instance.
        """
        return self.name == DEFAULT_POLICY and not self.params

    def create(self):
        """Instantiate a fresh per-switch policy object."""
        if self.entry is None:
            raise ValueError(
                f"policy spec {self.name!r} has no registry entry; build "
                "specs via make_policy() or register the policy"
            )
        return self.entry.cls(**self.params)


def make_policy(name: str, **params) -> PolicySpec:
    """Bind ``name`` and constructor ``params`` into a deployable spec.

    Raises ``KeyError`` (:class:`repro.registry.UnknownNameError`) for
    unknown names and ``TypeError`` for unknown parameters (naming the
    policy and its accepted parameter set).
    """
    entry = get_policy(name)
    entry.validate_params(params)
    return PolicySpec(
        name=entry.name,
        requirements=entry.requirements,
        params=dict(params),
        entry=entry,
    )
