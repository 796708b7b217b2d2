"""A fault-injection scenario for exercising orchestration failure paths.

Registered as ``faulty`` — but deliberately *not* in the scenario
``BUILTIN_CATALOG``: it only exists once this module is imported, which
campaign manifests do via their ``modules`` list (and tests do
directly).  Each cell misbehaves according to its config:

* ``behavior="ok"``    — succeed immediately;
* ``behavior="fail"``  — raise :class:`InjectedFailure`;
* ``behavior="crash"`` — hard-exit the worker process (``os._exit``),
  simulating a segfault/OOM kill (never run this in-process!);
* ``behavior="hang"``  — sleep ``hang_s`` seconds, simulating a
  straggler/deadlock that only a wall-clock timeout can reclaim.

``fail_times`` gates the misbehaviour: the first ``fail_times``
*attempts* of a cell misbehave and later attempts succeed (exercising
retry-then-succeed and worker respawn); ``-1`` means every attempt
misbehaves (exercising retries-exhausted reporting).  Attempts are
counted across processes in ``state_dir`` via single-byte ``O_APPEND``
writes — one file per cell, its size *is* the attempt count — so the
same counters double as execution-count evidence for kill-and-resume
tests (a journal-recovered cell's counter must not grow on resume).
Each process that runs a cell also leaves an empty ``pid-<pid>`` file
there (:func:`worker_pids`), so a test can watch the workers of a
campaign it killed.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.scenarios.base import Scenario
from repro.scenarios.registry import register

BEHAVIORS = ("ok", "fail", "crash", "hang")


class InjectedFailure(RuntimeError):
    """The deliberate failure raised by ``behavior="fail"`` cells."""


@dataclass
class FaultyConfig:
    """One faulty cell: what to do, and for how many attempts."""

    x: int = 0  # the grid axis; also keys the attempt counter
    behavior: str = "ok"
    fail_times: int = -1  # attempts that misbehave; -1 = all of them
    state_dir: str = ""  # cross-process attempt counters live here
    hang_s: float = 60.0
    work_s: float = 0.0  # honest work per attempt (a kill window)
    seed: int = 1

    def __post_init__(self):
        if self.behavior not in BEHAVIORS:
            raise ValueError(
                f"faulty behavior must be one of {', '.join(BEHAVIORS)}; "
                f"got {self.behavior!r}"
            )


def counter_path(state_dir: str, x: int, behavior: str) -> str:
    """The attempt-counter file for one cell (size == attempt count)."""
    return os.path.join(state_dir, f"attempts-{behavior}-x{x}.n")


def attempt_count(state_dir: str, x: int, behavior: str) -> int:
    """How many times a cell has *started* executing (0 if never)."""
    try:
        return os.stat(counter_path(state_dir, x, behavior)).st_size
    except OSError:
        return 0


def worker_pids(state_dir: str) -> List[int]:
    """The pids of every process that ran a cell with this ``state_dir``."""
    try:
        names = os.listdir(state_dir)
    except OSError:
        return []
    return sorted(int(name[4:]) for name in names if name.startswith("pid-"))


def _record_attempt(config: FaultyConfig) -> int:
    """Bump this cell's attempt counter; returns the 1-based attempt.

    Single-byte ``O_APPEND`` writes are atomic on POSIX, so concurrent
    workers cannot lose counts.  Without a ``state_dir`` there is no
    cross-attempt memory: every attempt reads as the first, so gated
    behaviours misbehave on every attempt.
    """
    if not config.state_dir:
        return 1
    os.makedirs(config.state_dir, exist_ok=True)
    open(os.path.join(config.state_dir, f"pid-{os.getpid()}"), "a").close()
    path = counter_path(config.state_dir, config.x, config.behavior)
    fd = os.open(path, os.O_APPEND | os.O_CREAT | os.O_WRONLY)
    try:
        os.write(fd, b"1")
        return os.fstat(fd).st_size
    finally:
        os.close(fd)


@register
class FaultyScenario(Scenario):
    name = "faulty"
    description = (
        "fault-injection cells (fail/crash/hang on demand) for testing "
        "the campaign orchestrator; not a simulation"
    )
    config_cls = FaultyConfig

    def tiny_overrides(self) -> Dict[str, Any]:
        return {"work_s": 0.0}

    def build(self, config: FaultyConfig):
        def run_once() -> Dict[str, Any]:
            attempt = _record_attempt(config)
            misbehaving = config.fail_times < 0 or attempt <= config.fail_times
            if config.work_s > 0:
                time.sleep(config.work_s)
            if misbehaving and config.behavior == "fail":
                raise InjectedFailure(
                    f"injected failure for x={config.x} (attempt {attempt})"
                )
            if misbehaving and config.behavior == "crash":
                # Bypass all exception handling, like a segfault would.
                os._exit(3)
            if misbehaving and config.behavior == "hang":
                time.sleep(config.hang_s)
            return {"attempt": attempt}

        return run_once

    def collect(
        self, config: FaultyConfig, raw: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Dict[str, List]]:
        # A deterministic function of the config, so resumed/merged
        # outputs are checkable for completeness by value.
        metrics = {
            "value": float(config.x * 10 + config.seed % 7),
            "attempt": raw["attempt"],
        }
        return metrics, {}
