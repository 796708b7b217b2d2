"""Pluggable routing/load-balancing policy registry.

Mirrors :mod:`repro.cc.registry`: every policy registers itself with the
:func:`register_policy` class decorator, declaring a typed
:class:`Requirements` record — what the *transport* must provide for the
policy to be safe.  Flow-level policies (ECMP, WRR, least-loaded) keep a
flow on one path for its lifetime, so INT hop indices stay stable and
the go-back-N receiver never sees reordering; per-packet policies
(spray) give that up and therefore declare
``reordering_tolerant_receiver=True``, which
:class:`repro.experiments.driver.FlowDriver` translates into
out-of-order accumulation at the receiver and a raised duplicate-ACK
threshold at the sender (see docs/INVARIANTS.md#path-stability).

Lookup is lazy: the built-in policy modules are imported on first use,
so ``import repro.routing.registry`` stays cheap and free of circular
imports.  Adding a policy is one decorated class in one module — no
registry edits::

    from repro.routing.base import RoutingPolicy
    from repro.routing.registry import Requirements, register_policy

    @register_policy("my-policy", aliases=("mine",))
    class MyPolicy(RoutingPolicy):
        ...

Topology builders consume the registry through their ``routing`` /
``routing_params`` knobs: ``build_topology(sim, "fattree",
routing="least-loaded")`` gives every switch its own policy instance.
The default ``ecmp`` with no parameters is ``policy=None`` to
:class:`repro.sim.switch.Switch`, whose ``receive`` inlines the hash, so
the 26 committed figure series are byte-identical by construction.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

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


def _class_params(cls: type) -> FrozenSet[str]:
    """Constructor parameters accepted anywhere in the class's MRO."""
    names = set()
    for klass in cls.__mro__:
        init = klass.__dict__.get("__init__")
        if init is None:
            continue
        for param in inspect.signature(init).parameters.values():
            if param.name == "self":
                continue
            if param.kind in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY,
            ):
                names.add(param.name)
    return frozenset(names)


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
        unknown = sorted(set(params) - set(self.param_names))
        if unknown:
            accepted = ", ".join(sorted(self.param_names)) or "(none)"
            raise TypeError(
                f"unknown parameter(s) {', '.join(map(repr, unknown))} for "
                f"routing policy {self.name!r}; accepted parameters: "
                f"{accepted}"
            )


#: canonical name -> entry
POLICIES: Dict[str, RegisteredPolicy] = {}
#: normalized alias -> canonical name (canonical names are self-aliases)
_ALIASES: Dict[str, str] = {}

#: the modules that self-register built-in policies
BUILTIN_MODULES = (
    "repro.routing.ecmp",
    "repro.routing.wrr",
    "repro.routing.leastloaded",
    "repro.routing.spray",
)


def normalize(name: str) -> str:
    """Canonical key form: lowercase, underscores -> dashes."""
    return name.lower().replace("_", "-")


def _first_doc_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.splitlines()[0].strip() if doc else ""


def _add_entry(entry: RegisteredPolicy) -> RegisteredPolicy:
    # Validate everything before mutating, so a rejected registration
    # leaves the registry untouched.
    existing = POLICIES.get(entry.name)
    if existing is not None and existing.cls is not entry.cls:
        raise ValueError(
            f"routing policy name {entry.name!r} already registered"
        )
    keys = [normalize(alias) for alias in (entry.name,) + entry.aliases]
    for alias, key in zip((entry.name,) + entry.aliases, keys):
        owner = _ALIASES.get(key)
        if owner is not None and owner != entry.name:
            raise ValueError(
                f"routing policy alias {alias!r} already maps to {owner!r}"
            )
    POLICIES[entry.name] = entry
    for key in keys:
        _ALIASES[key] = entry.name
    return entry


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
        entry = _add_entry(
            RegisteredPolicy(
                name=normalize(name),
                cls=cls,
                requirements=requirements,
                aliases=tuple(aliases),
                param_names=(
                    frozenset(params) if params is not None else _class_params(cls)
                ),
                description=description or _first_doc_line(cls),
            )
        )
        cls.policy_name = entry.name
        cls.requirements = requirements
        return cls

    return decorate


def load_builtin_policies() -> None:
    """Import every built-in policy module (idempotent)."""
    for module in BUILTIN_MODULES:
        importlib.import_module(module)


def get_policy(name: str) -> RegisteredPolicy:
    """Look up a registry entry by name or alias; KeyError with catalog."""
    load_builtin_policies()
    canonical = _ALIASES.get(normalize(name))
    if canonical is None:
        raise KeyError(
            f"unknown routing policy: {name!r} "
            f"(registered: {', '.join(policy_names())})"
        )
    return POLICIES[canonical]


def policy_names() -> List[str]:
    """Sorted canonical names of every registered policy."""
    load_builtin_policies()
    return sorted(POLICIES)


@dataclass
class PolicySpec:
    """One deployable (policy, parameters) binding.

    Produced by :func:`make_policy`; consumed by topology builders, which
    call :meth:`create` once per switch — policy state (round-robin
    cursors, flow pins, load counters) is strictly per-switch, exactly as
    it would be on real hardware.
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

    Raises ``KeyError`` for unknown names and ``TypeError`` for unknown
    parameters (naming the policy and its accepted parameter set).
    """
    entry = get_policy(name)
    entry.validate_params(params)
    return PolicySpec(
        name=entry.name,
        requirements=entry.requirements,
        params=dict(params),
        entry=entry,
    )
