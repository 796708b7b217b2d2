"""Lazy package exports (PEP 562), shared by every ``repro`` package.

A package ``__init__`` names its public API by defining module instead of
importing it::

    __all__, __getattr__ = lazy_exports(__name__, {
        "repro.sim.engine": ("Simulator", "Event"),
    })

``from repro.sim import Simulator`` imports ``repro.sim.engine`` on first
use, so importing a package, or any module inside it, costs only the
modules that are used (docs/INVARIANTS.md#import-cost).
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Tuple[str, ...]]
) -> Tuple[List[str], Callable[[str], object]]:
    """``__all__`` and the module ``__getattr__`` for ``package``.

    ``exports`` maps each defining module to the public names it gives
    the package.  A name resolves once: its value is then stored in the
    package namespace, so later lookups never reach ``__getattr__``.
    """
    namespace = sys.modules[package].__dict__
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    return sorted(owner), __getattr__
