"""Catalog drift: each registry's built-in catalog matches its modules.

A lookup imports only the catalog module that owns the spelling
(docs/INVARIANTS.md#registry-only-resolution), so a catalog that is out
of step with the decorators breaks lookups from a cold process.  The
facts come from ``tests/registry_probe.py`` in a fresh interpreter: this
test process has long since imported every built-in.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

from repro.registry import normalize

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

REGISTRIES = (
    "repro.cc.registry",
    "repro.routing.registry",
    "repro.topology.registry",
    "repro.scenarios.registry",
    "repro.lint.registry",
)


@pytest.fixture(scope="module")
def probe():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "registry_probe.py")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    return json.loads(out)


def _catalog(registry_module):
    return importlib.import_module(registry_module).REGISTRY.catalog


def _owners(catalog):
    return {
        normalize(spelling): module
        for module, spellings in catalog.items()
        for spelling in spellings
    }


@pytest.mark.parametrize("registry_module", REGISTRIES)
def test_load_builtins_registers_exactly_the_catalog(probe, registry_module):
    """Every spelling, and only those, each from the module named for it."""
    report = probe[registry_module]
    assert report["base"] == []  # the registry module imports no built-in
    assert report["owners"] == _owners(_catalog(registry_module))


@pytest.mark.parametrize("registry_module", REGISTRIES)
def test_every_registering_module_is_in_its_catalog(probe, registry_module):
    assert probe["strays"][registry_module] == []


@pytest.mark.parametrize("registry_module", REGISTRIES)
def test_a_cold_lookup_imports_only_its_module(probe, registry_module):
    """Looking a spelling up loads its module and what that module itself
    imports (theta-powertcp reuses PowerTCP's constants), nothing more."""
    report = probe[registry_module]
    for module, spellings in _catalog(registry_module).items():
        for spelling in spellings:
            lookup = report["lookups"][spelling]
            assert "error" not in lookup, lookup
            assert module in lookup["loaded"], spelling
            assert lookup["loaded"] == report["imports"][module]["loaded"]


@pytest.mark.parametrize("registry_module", REGISTRIES)
def test_a_plugin_cannot_take_an_unloaded_builtin_spelling(probe, registry_module):
    """The owner loads first, so the collision is caught, and the tables
    hold exactly what importing the owner alone puts there."""
    report = probe[registry_module]
    for module, spellings in _catalog(registry_module).items():
        alone = report["imports"][module]
        for spelling in spellings:
            collision = report["collisions"][spelling]
            assert collision["error"] and "already" in collision["error"]
            assert collision["entries"] == alone["entries"], spelling
            assert collision["aliases"] == alone["aliases"], spelling
