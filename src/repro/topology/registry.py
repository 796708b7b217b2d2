"""Declarative topology registry.

Names, aliases and lookups are one :class:`repro.registry.Registry`.
Every builder (``dumbbell``, ``fattree``, ``parkinglot``, ``rdcn``)
registers itself with the :func:`register_topology` decorator, declaring
its typed params dataclass::

    @register_topology("dumbbell", params_cls=DumbbellParams)
    def build_dumbbell(sim, params=None) -> Network:
        ...

Experiments then resolve topologies by *name* instead of importing
concrete builders::

    from repro.topology.registry import build_topology, make_topology_params

    net = build_topology(sim, "fattree", num_pods=2, hosts_per_tor=4)

which keeps every scenario topology-parametric: a ``topology=`` config
field plus a ``topology_params`` dict is enough to move an experiment
from the dumbbell to the fat-tree.  Unknown parameter names fail eagerly
with the accepted set (mirroring ``Scenario.configure``).
``python -m repro list`` prints the catalog.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.registry import Registry, first_doc_line

#: each module that self-registers a built-in builder -> the names and
#: aliases it registers
BUILTIN_CATALOG = {
    "repro.topology.dumbbell": ("dumbbell",),
    "repro.topology.fattree": ("fattree", "fat-tree"),
    "repro.topology.parkinglot": ("parkinglot", "parking-lot"),
    "repro.topology.rdcn": ("rdcn",),
}


@dataclass(frozen=True)
class RegisteredTopology:
    """One registry entry: a named builder plus its params dataclass."""

    name: str
    params_cls: type
    builder: Callable
    aliases: Tuple[str, ...] = ()
    description: str = ""

    def param_fields(self) -> List[str]:
        """Names of the tunable params-dataclass fields."""
        return [f.name for f in dataclasses.fields(self.params_cls)]

    def make_params(self, params: Any = None, **overrides) -> Any:
        """Instantiate the params dataclass, rejecting unknown fields.

        Pass either a ready params object (returned as-is) or keyword
        overrides — not both.
        """
        if params is not None:
            if overrides:
                raise ValueError(
                    f"topology {self.name!r}: pass either a params object or "
                    f"keyword overrides, not both (got params and "
                    f"{', '.join(sorted(overrides))})"
                )
            if not isinstance(params, self.params_cls):
                raise TypeError(
                    f"topology {self.name!r} expects {self.params_cls.__name__}"
                    f" params, got {type(params).__name__}"
                )
            return params
        valid = set(self.param_fields())
        unknown = sorted(set(overrides) - valid)
        if unknown:
            raise ValueError(
                f"topology {self.name!r}: unknown param(s) "
                f"{', '.join(unknown)}; valid params: "
                f"{', '.join(sorted(valid))}"
            )
        return self.params_cls(**overrides)

    def build(self, sim, params: Any = None, **overrides):
        """Build the network from a params object or keyword overrides."""
        return self.builder(sim, self.make_params(params, **overrides))


REGISTRY: Registry[RegisteredTopology] = Registry(
    "topology", BUILTIN_CATALOG, lambda entry: entry.builder
)
#: canonical name -> entry
TOPOLOGIES = REGISTRY.entries
load_builtin_topologies = REGISTRY.load_builtins
get_topology = REGISTRY.get
topology_names = REGISTRY.names


def register_topology(
    name: str,
    *,
    params_cls: type,
    aliases: Iterable[str] = (),
    description: str = "",
):
    """Function decorator: register a builder under ``name`` (+ aliases).

    The builder keeps its original signature (``(sim, params=None)``) and
    remains directly callable; registration only indexes it.
    """
    if not dataclasses.is_dataclass(params_cls):
        raise TypeError(
            f"topology {name!r}: params_cls must be a dataclass, got "
            f"{params_cls!r}"
        )

    def decorate(builder: Callable) -> Callable:
        entry = RegisteredTopology(
            name=name,
            params_cls=params_cls,
            builder=builder,
            aliases=tuple(aliases),
            description=description or first_doc_line(builder),
        )
        REGISTRY.add(name, entry, entry.aliases)
        return builder

    return decorate


def make_topology_params(name: str, params: Any = None, **overrides) -> Any:
    """Instantiate one topology's params dataclass by name."""
    return get_topology(name).make_params(params, **overrides)


def resolve_topology_params(
    name: str, defaults: Any, overrides: Optional[dict] = None
) -> Any:
    """``name``'s params: ``defaults`` (a params object or a dict of its
    fields) with the ``overrides`` dict laid over them.

    This is how a scenario's ``topology_params`` reach its fabric: plain
    data over the scenario's default shape, built by
    :func:`make_topology_params`, so an unknown key is a ``ValueError``
    naming the valid params.
    """
    if overrides is not None and not isinstance(overrides, dict):
        raise ValueError(
            f"topology {name!r}: topology_params must be a dict of params, "
            f"got {type(overrides).__name__}"
        )
    if not isinstance(defaults, dict):
        defaults = {
            f.name: getattr(defaults, f.name)
            for f in dataclasses.fields(defaults)
        }
    return make_topology_params(name, **{**defaults, **(overrides or {})})


def build_topology(sim, name: str, params: Any = None, **overrides):
    """Resolve ``name`` and build the network in one call."""
    return get_topology(name).build(sim, params, **overrides)
