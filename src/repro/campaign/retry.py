"""Bounded retries with exponential backoff and seeded jitter.

Retry/timeout semantics live here in the orchestration layer — not in
operator habits (SCTP's framing: robustness belongs in the protocol).
Delays are a pure function of (policy, attempt, seeded RNG), so two
identical campaign invocations schedule identical retry timelines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass
class LimitsPolicy:
    """Per-cell failure-handling knobs (the manifest's ``limits`` block)."""

    #: wall-clock budget for one cell attempt; the worker is killed past it
    cell_timeout_s: float = 300.0
    #: total executions per cell (first try + retries)
    max_attempts: int = 3
    #: exponential backoff: base * factor**(attempt-1), capped, jittered
    backoff_base_s: float = 0.25
    backoff_factor: float = 2.0
    backoff_max_s: float = 30.0
    #: +/- fraction of the delay added as seeded jitter (decorrelates
    #: retry storms when many cells fail at once)
    jitter_frac: float = 0.25
    #: SIGTERM-to-SIGKILL grace when reclaiming a worker
    worker_grace_s: float = 5.0

    def validate(self) -> None:
        if self.cell_timeout_s <= 0:
            raise ValueError("limits.cell_timeout_s must be > 0")
        if self.max_attempts < 1:
            raise ValueError("limits.max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("limits backoff delays must be >= 0")
        if self.backoff_factor < 1:
            raise ValueError("limits.backoff_factor must be >= 1")
        if not 0 <= self.jitter_frac < 1:
            raise ValueError("limits.jitter_frac must be in [0, 1)")


class RetryPolicy:
    """Decides whether — and when — a failed cell attempt runs again."""

    def __init__(self, limits: LimitsPolicy, seed: int = 1):
        self.limits = limits
        # Seeded per-campaign: jitter decorrelates retry storms without
        # sacrificing run-to-run reproducibility of the schedule.
        self._rng = random.Random(seed * 2_000_003 + 17)

    def should_retry(self, attempts: int) -> bool:
        """True while the cell has attempts left (attempts = runs so far)."""
        return attempts < self.limits.max_attempts

    def delay_s(self, attempts: int) -> float:
        """Backoff before attempt ``attempts + 1`` (jittered, capped)."""
        base = self.limits.backoff_base_s * (
            self.limits.backoff_factor ** max(0, attempts - 1)
        )
        delay = min(self.limits.backoff_max_s, base)
        if self.limits.jitter_frac and delay > 0:
            spread = self.limits.jitter_frac * delay
            delay += self._rng.uniform(-spread, spread)
        return max(0.0, delay)
