"""Shared helper of the figure benchmarks: emit a regenerated series.

``emit`` writes ``benchmarks/results/<name>.txt`` and queues the block
for the terminal summary (see benchmarks/conftest.py).  The claims each
series is checked against are in ``repro.figures``.
"""

from __future__ import annotations

import os
from typing import Iterable

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: blocks emitted during this session, replayed by the conftest's
#: terminal-summary hook (pytest's fd-level capture swallows direct
#: writes during test execution).
SESSION_EMISSIONS = []


def emit(name: str, lines: Iterable[str]) -> None:
    """Record a result block: to results/<name>.txt immediately, and to
    the terminal at session end (see benchmarks/conftest.py)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = "\n".join(lines)
    SESSION_EMISSIONS.append((name, text))
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")
