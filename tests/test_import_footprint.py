"""Cold commands import what they run (docs/INVARIANTS.md#import-cost).

Every ``python -m repro`` process pays for the modules it imports, so
``import repro.cli`` must load no built-in it has not been asked for, and
a ``run`` loads only its own scenario, CC law and topology.  Each check
runs in a fresh interpreter: this test process has imported everything.
"""

import json
import os
import subprocess
import sys

from repro.cc.registry import BUILTIN_CATALOG as CC_CATALOG
from repro.routing.registry import BUILTIN_CATALOG as ROUTING_CATALOG
from repro.scenarios.registry import BUILTIN_CATALOG as SCENARIO_CATALOG
from repro.topology.registry import BUILTIN_CATALOG as TOPOLOGY_CATALOG

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: modules that only some commands need, by prefix
OPTIONAL_PREFIXES = (
    "repro.lint.", "repro.scenarios.sweep", "repro.fluid", "repro.figures",
)


def _loaded_after(code):
    """``repro.*`` modules a fresh interpreter holds after running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    script = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.'))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    ).stdout
    return set(json.loads(out))


def _builtins(*catalogs):
    return {module for catalog in catalogs for module in catalog}


def test_import_cli_loads_no_builtin_and_no_optional_layer():
    loaded = _loaded_after("import repro.cli")
    builtins = _builtins(CC_CATALOG, TOPOLOGY_CATALOG, SCENARIO_CATALOG,
                         ROUTING_CATALOG)
    assert not loaded & builtins
    assert not [m for m in loaded if m.startswith(OPTIONAL_PREFIXES)]
    assert "repro.lint" not in loaded


def test_run_loads_only_its_scenario_law_and_topology():
    loaded = _loaded_after(
        "from repro.cli import main\n"
        "main(['run', 'websearch', '--tiny'])"
    )
    assert loaded & _builtins(SCENARIO_CATALOG) == {"repro.experiments.websearch"}
    # repro.cc.base is the interface every law subclasses
    assert loaded & _builtins(CC_CATALOG) == {"repro.cc.base", "repro.core.powertcp"}
    assert loaded & _builtins(TOPOLOGY_CATALOG) == {"repro.topology.fattree"}
    # every command builds the whole parser, lint's from repro.lint.cli
    assert [m for m in loaded if m.startswith(OPTIONAL_PREFIXES)] == [
        "repro.lint.cli"
    ]


def test_list_and_an_unknown_name_still_see_every_builtin():
    everything = _builtins(CC_CATALOG, TOPOLOGY_CATALOG, SCENARIO_CATALOG,
                           ROUTING_CATALOG)
    assert everything <= _loaded_after(
        "from repro.cli import main\nmain(['list'])"
    )
    loaded = _loaded_after(
        "from repro.cli import main\n"
        "try:\n"
        "    main(['run', 'incast', '--tiny', '--algorithm', 'bbr'])\n"
        "except SystemExit as exc:\n"
        "    assert 'registered: cubic, dcqcn' in str(exc), exc"
    )
    assert _builtins(CC_CATALOG) <= loaded


def _exits_clean(probe):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", probe], env=env, timeout=60).returncode == 0


def test_cold_cli_and_worker_imports_leave_numpy_unloaded():
    assert _exits_clean(
        "import sys; import repro.cli; import repro.campaign.worker; "
        "sys.exit('numpy' in sys.modules)"
    )


def test_cold_cli_and_worker_imports_leave_the_process_pool_unloaded():
    # the rest of the import-cost deny-list: both grid runners fork their
    # workers with os.fork, so no command needs multiprocessing
    assert _exits_clean(
        "import sys; import repro.cli; import repro.campaign.worker; "
        "sys.exit(any(m in sys.modules for m in "
        "('multiprocessing', 'concurrent.futures')))"
    )


def test_inline_sweep_loads_neither_the_worker_pool_nor_the_orchestrator():
    loaded = _loaded_after(
        "from repro.scenarios.sweep import run_sweep\n"
        "run_sweep('incast', {'fanout': [2]},"
        " base={'burst_bytes': 20_000, 'duration_ns': 200_000})"
    )
    assert "repro.campaign.driver" in loaded
    assert not loaded & {
        "repro.campaign.executor", "repro.campaign.manifest",
        "repro.campaign.orchestrator", "repro.campaign.journal",
        "repro.analysis.results",
    }
