"""Gated loader for the optional compiled event core.

This module is the **only** place allowed to import ``repro._ckernel``
(enforced by the ``compiled-core-import`` lint rule; contract:
``docs/INVARIANTS.md#compiled-core-gating``).  Everything else selects
the compiled engine through ``Simulator(scheduler="compiled")`` or
``scheduler="best"``, which call :func:`load_compiled` here.

The probe runs once per process and caches the outcome: either the
extension module (built by ``python setup.py build_ext --inplace`` or a
wheel built with a compiler present) or the failure reason, surfaced by
:func:`compiled_error` and ``repro perf --engines``.  A missing or
broken extension is *not* an error at import time — ``"best"`` falls
back to the pure-Python heap, and only an explicit
``scheduler="compiled"`` request raises.

:func:`force_unavailable` simulates the no-compiler install (the loader
failure branch) for tests, without any environment-variable switches.

Why it is kept: whole-CLI wall heap / compiled = 1.08-1.24 on the four
simulation-bound e2e workloads, compiled faster in 23 of 24 interleaved
cold pairs (protocol and table: ``benchmarks/perf/README.md``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

#: probe outcome cache: probed? / module-or-None / failure reason
_state = {"probed": False, "module": None, "error": None}

#: test hook (see :func:`force_unavailable`): when True the loader
#: reports the extension unavailable regardless of the real probe
_forced_off = False

_FORCED_ERROR = "forced unavailable (force_unavailable test hook active)"


def load_compiled():
    """The ``corekernel`` extension module, or None when unavailable.

    Probes at most once per process; the failure reason (ImportError
    text, or a missing-symbol report for a stale build) is retained for
    :func:`compiled_error`.
    """
    if _forced_off:
        return None
    if not _state["probed"]:
        _state["probed"] = True
        try:
            from repro._ckernel import corekernel
        except Exception as exc:  # ImportError, or a broken .so
            _state["error"] = f"{type(exc).__name__}: {exc}"
        else:
            missing = [
                name
                for name in ("drain", "heappush", "heappop")
                if not hasattr(corekernel, name)
            ]
            if missing:
                _state["error"] = (
                    f"corekernel is missing {missing} (stale build? "
                    "re-run: python setup.py build_ext --inplace)"
                )
            else:
                _state["module"] = corekernel
    return _state["module"]


def compiled_available() -> bool:
    """True when the compiled event core can be used right now."""
    return load_compiled() is not None


def compiled_error() -> Optional[str]:
    """Why the compiled core is unavailable (None when it loaded)."""
    if _forced_off:
        return _FORCED_ERROR
    load_compiled()
    return _state["error"]


@contextmanager
def force_unavailable():
    """Pretend the extension did not build (the no-compiler install).

    Inside the block ``scheduler="best"`` falls back to the pure-Python
    heap and ``scheduler="compiled"`` raises — exactly the behavior of
    an installation without a C compiler.  Used by the fallback tests;
    restores the real probe result on exit.
    """
    global _forced_off
    previous = _forced_off
    _forced_off = True
    try:
        yield
    finally:
        _forced_off = previous
