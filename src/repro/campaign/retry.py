"""Bounded retries with exponential backoff and seeded jitter.

Retry/timeout semantics live here in the orchestration layer — not in
operator habits (SCTP's framing: robustness belongs in the protocol).
Delays are a pure function of (policy, attempt, seeded RNG), so two
identical campaign invocations schedule identical retry timelines.
"""

from __future__ import annotations

import random

from repro.campaign.manifest import LimitsPolicy


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
