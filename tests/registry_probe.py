"""Probe the built-in catalogs from a fresh interpreter (not a test module).

``python tests/registry_probe.py`` prints one JSON document describing the
five registries as a cold process sees them; ``tests/test_registry_catalog.py``
runs it and checks the document.  Each lookup or registration that must
start from a cold registry runs in a forked child of the probe, so one
interpreter serves every spelling:

* ``imports[module]`` — catalog modules loaded after importing ``module``
  alone, and the registry tables it leaves;
* ``lookups[spelling]`` — catalog modules loaded after ``get(spelling)``;
* ``collisions[spelling]`` — the error a plugin claiming ``spelling``
  gets, and the tables it leaves;
* ``owners`` — normalised spelling -> the module whose import registered
  it, recorded while ``load_builtins()`` runs;
* ``strays`` — registrations made by modules outside the catalogs when
  every module of the registering packages is imported.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import sys
import traceback
from types import SimpleNamespace

#: registry module -> the packages whose modules may register into it
REGISTRIES = {
    "repro.cc.registry": ("repro.cc", "repro.core"),
    "repro.routing.registry": ("repro.routing",),
    "repro.topology.registry": ("repro.topology",),
    "repro.scenarios.registry": ("repro.experiments",),
    "repro.lint.registry": ("repro.lint.rules",),
}


def _registries():
    return {name: importlib.import_module(name).REGISTRY for name in REGISTRIES}


def _loaded(registry):
    return sorted(module for module in registry.catalog if module in sys.modules)


def _tables(registry):
    return {"entries": sorted(registry.entries), "aliases": dict(registry.aliases)}


def _in_child(fn):
    """``fn()``'s JSON-able result, computed in a forked child."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        os.close(read_fd)
        try:  # never return into the parent's code
            try:
                result = fn()
            except Exception:  # reported to the parent, checked by the test
                result = {"error": traceback.format_exc()}
            with os.fdopen(write_fd, "w") as out:
                json.dump(result, out)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as handle:
        result = json.load(handle)
    os.waitpid(pid, 0)
    return result


def _record_owners(registry_module, registry, owners):
    """Wrap ``registry.add`` to note the module each spelling comes from."""
    from repro.registry import normalize

    add = registry.add

    def recording_add(name, entry, aliases=()):
        frame = sys._getframe(1)
        while frame.f_globals.get("__name__") == registry_module:
            frame = frame.f_back  # out of the decorator to the caller
        for spelling in (name, *aliases):
            owners[normalize(spelling)] = frame.f_globals["__name__"]
        return add(name, entry, aliases)

    registry.add = recording_add


def _import(module, registry):
    importlib.import_module(module)
    return {"loaded": _loaded(registry), **_tables(registry)}


def _lookup(spelling, registry):
    registry.get(spelling)
    return {"loaded": _loaded(registry)}


def _collide(spelling, registry):
    plugin = SimpleNamespace(cls=type("Plugin", (), {}), builder=lambda: None)
    try:
        registry.add(spelling, plugin)
    except ValueError as exc:
        return {"error": str(exc), **_tables(registry)}
    return {"error": None, **_tables(registry)}


def probe(registry_module):
    registry = _registries()[registry_module]
    report = {"base": _loaded(registry), "imports": {}, "lookups": {},
              "collisions": {}}
    for module, spellings in registry.catalog.items():
        report["imports"][module] = _in_child(lambda: _import(module, registry))
        for spelling in spellings:
            report["lookups"][spelling] = _in_child(
                lambda: _lookup(spelling, registry))
            report["collisions"][spelling] = _in_child(
                lambda: _collide(spelling, registry))
    owners = {}
    _record_owners(registry_module, registry, owners)
    registry.load_builtins()
    report["owners"] = owners
    return report


def strays():
    """Registrations from every module of the registering packages."""
    registries = _registries()
    owners = {name: {} for name in registries}
    for name, registry in registries.items():
        _record_owners(name, registry, owners[name])
    for packages in REGISTRIES.values():
        for package in packages:
            path = importlib.import_module(package).__path__
            for info in pkgutil.iter_modules(path, package + "."):
                importlib.import_module(info.name)
    return {
        name: sorted(set(owners[name].values()) - set(registries[name].catalog))
        for name in registries
    }


if __name__ == "__main__":
    doc = {name: _in_child(lambda: probe(name)) for name in REGISTRIES}
    doc["strays"] = _in_child(strays)
    json.dump(doc, sys.stdout)
