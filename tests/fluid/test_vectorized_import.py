"""numpy is an optional accelerator, loaded by the first grid call only."""

import os
import subprocess
import sys

import pytest

from repro.fluid import FluidParams, POWER_LAW, simulate, simulate_grid

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


def _params():
    p = FluidParams()
    p.beta_bytes = 0.01 * p.bdp_bytes
    return p


def test_cold_cli_and_worker_imports_leave_numpy_unloaded():
    probe = (
        "import sys; import repro.cli; import repro.campaign.worker; "
        "sys.exit('numpy' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", probe], env=env, timeout=60)
    assert done.returncode == 0


def test_cold_cli_and_worker_imports_leave_the_process_pool_unloaded():
    # the rest of the import-cost deny-list: only `sweep --jobs N` builds a pool
    probe = (
        "import sys; import repro.cli; import repro.campaign.worker; "
        "sys.exit(any(m in sys.modules for m in "
        "('multiprocessing', 'concurrent.futures')))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", probe], env=env, timeout=60)
    assert done.returncode == 0


def test_simulate_grid_resolves_numpy_on_first_use():
    pytest.importorskip("numpy")
    p = _params()
    states = [(3 * p.bdp_bytes, 2 * p.bdp_bytes), (0.5 * p.bdp_bytes, 0.0)]
    grid = simulate_grid(POWER_LAW, p, states, 20 * p.tau_s)
    for i, (w0, q0) in enumerate(states):
        scalar = simulate(POWER_LAW, p, w0, q0, 20 * p.tau_s)
        assert grid.trace(i).window_bytes == scalar.window_bytes


def test_simulate_grid_without_numpy_raises_the_documented_error(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)  # makes `import numpy` fail
    p = _params()
    with pytest.raises(ImportError, match="requires numpy; install it or use"):
        simulate_grid(POWER_LAW, p, [(p.bdp_bytes, 0.0)], p.tau_s)
