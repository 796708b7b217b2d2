"""One name -> entry registry, shared by every pluggable axis.

The congestion-control, routing, topology, scenario and lint-rule
registries are each one :class:`Registry` instance plus their
domain-specific parts; this module is the only implementation of the
contract they share (docs/INVARIANTS.md#registry-only-resolution):

* **normalisation** — lookups and collision checks compare
  :func:`normalize`-d keys; canonical names stay exactly as registered;
* **identity** — re-registering a taken name is a no-op only for the
  identical object (an idempotent module re-import), otherwise an error;
* **validate before mutate** — a rejected registration leaves the entry
  table and the alias map untouched;
* **unknown names** — :class:`UnknownNameError`, a ``KeyError`` whose
  message carries the sorted catalog;
* **catalog** — each built-in module is named with the spellings it
  registers, so a lookup imports only the module that owns its name
  (docs/INVARIANTS.md#import-cost).
"""

from __future__ import annotations

import importlib
import inspect
import sys
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Generic,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

Entry = TypeVar("Entry")


class UnknownNameError(KeyError):
    """A lookup no registered name or alias matches.

    ``args[0]`` is the one-line catalog message, which is also what a
    sweep worker reports as the failed cell's error message.
    """

    def __str__(self) -> str:  # KeyError would repr-quote the message
        return self.args[0]


def normalize(name: str) -> str:
    """Lookup-key form: lowercase, underscores/spaces -> dashes."""
    return name.lower().replace("_", "-").replace(" ", "-")


def first_doc_line(obj) -> str:
    """First docstring line of ``obj`` ("" when undocumented)."""
    doc = inspect.getdoc(obj) or ""
    return doc.splitlines()[0].strip() if doc else ""


def class_params(cls: type) -> FrozenSet[str]:
    """Constructor parameters accepted anywhere in the class's MRO."""
    names = set()
    # object, always last, is skipped: its __init__ takes only *args and
    # **kwargs, which never count, and inspect parses its text signature.
    for klass in cls.__mro__[:-1]:
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


class Registry(Generic[Entry]):
    """Canonical name -> entry, plus normalised aliases.

    ``kind`` labels error messages ("topology", "routing policy");
    ``catalog`` maps each built-in module to the names and aliases it
    registers when imported; ``identity(entry)`` is the object (class,
    builder) whose re-registration under the same name is an idempotent
    re-import — returning ``None`` means the entry has no such identity,
    so any collision with it is an error.
    """

    def __init__(
        self,
        kind: str,
        catalog: Mapping[str, Tuple[str, ...]],
        identity: Callable[[Entry], Optional[object]],
    ):
        self.kind = kind
        #: built-in module -> the spellings (names and aliases) it registers
        self.catalog = dict(catalog)
        #: normalised catalog spelling -> the built-in module owning it
        self._owners = {
            normalize(spelling): module
            for module, spellings in self.catalog.items()
            for spelling in spellings
        }
        self._identity = identity
        #: canonical name -> entry
        self.entries: Dict[str, Entry] = {}
        #: normalised name or alias -> canonical name
        self.aliases: Dict[str, str] = {}

    def add(self, name: str, entry: Entry, aliases: Iterable[str] = ()) -> Entry:
        """Index ``entry`` under ``name`` and ``aliases``; returns it."""
        spellings = (name, *aliases)
        # A built-in owning one of these spellings registers first, so a
        # collision with it is caught whether or not it was imported yet.
        for spelling in spellings:
            module = self._owners.get(normalize(spelling))
            if module is not None and module not in sys.modules:
                importlib.import_module(module)
        # Validate everything before mutating, so a rejected registration
        # leaves the registry untouched.
        existing = self.entries.get(name)
        if existing is not None and existing is not entry:
            same = self._identity(existing)
            if same is None or same is not self._identity(entry):
                raise ValueError(f"{self.kind} name {name!r} already registered")
        for spelling in spellings:
            owner = self.aliases.get(normalize(spelling))
            if owner is not None and owner != name:
                raise ValueError(
                    f"{self.kind} alias {spelling!r} already maps to {owner!r}"
                )
        self.entries[name] = entry
        for spelling in spellings:
            self.aliases[normalize(spelling)] = name
        return entry

    def load_builtins(self) -> None:
        """Import every built-in module (idempotent)."""
        for module in self.catalog:
            importlib.import_module(module)

    def get(self, name: str) -> Entry:
        """Look up an entry by name or alias; KeyError with the catalog.

        A registered spelling is a dict hit; a built-in one not imported
        yet imports its catalog module alone; only a spelling the catalog
        does not know imports every built-in before giving up.
        """
        key = normalize(name)
        canonical = self.aliases.get(key)
        if canonical is None:
            module = self._owners.get(key)
            if module is not None:
                importlib.import_module(module)
            else:
                self.load_builtins()
            canonical = self.aliases.get(key)
        if canonical is None:
            raise UnknownNameError(
                f"unknown {self.kind}: {name!r} "
                f"(registered: {', '.join(self.names())})"
            )
        return self.entries[canonical]

    def names(self) -> List[str]:
        """Sorted canonical names of every registered entry."""
        self.load_builtins()
        return sorted(self.entries)

    def validate_params(
        self, name: str, accepted: FrozenSet[str], params: Dict
    ) -> None:
        """Reject constructor parameters entry ``name`` does not accept."""
        unknown = sorted(set(params) - accepted)
        if unknown:
            raise TypeError(
                f"unknown parameter(s) {', '.join(map(repr, unknown))} for "
                f"{self.kind} {name!r}; accepted parameters: "
                f"{', '.join(sorted(accepted)) or '(none)'}"
            )
