"""Coupled window/queue fluid dynamics (paper Eqs. 3, 4, 9).

Aggregate window ``w`` and bottleneck queue ``q`` evolve as::

    θ(t)  = q/b + τ                     (RTT)
    q̇(t)  = w/θ − b        if q > 0     (Eq. 9; clamped at q = 0)
    ẇ(t)  = γ_r · ( w·e/f − w + β̂ )     (Eq. 3 with γ_r = γ/δt)

``f`` is evaluated on the current state (the paper's feedback delay only
shifts trajectories; shapes and equilibria are unchanged, and the delayed
variant is available via ``feedback_delay_s``).

Forward-Euler integration with a small fixed step is deliberately chosen
over an adaptive solver: the q=0 clamp makes the RHS non-smooth, which
trips adaptive steppers, while Euler with dt << τ is robust and exactly
reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional

from repro.fluid.laws import ControlLaw


@dataclass
class FluidParams:
    """Fluid-model configuration (defaults: the paper's Fig. 3 example —
    100 Gbps bottleneck, 20 µs base RTT)."""

    bandwidth_Bps: float = 100e9 / 8.0
    tau_s: float = 20e-6
    gamma: float = 0.9
    #: window-update interval δt (defaults to one RTT)
    update_interval_s: Optional[float] = None
    #: aggregate additive increase β̂ (bytes per update)
    beta_bytes: float = 0.0
    dt_s: float = 1e-7
    feedback_delay_s: float = 0.0

    @property
    def bdp_bytes(self) -> float:
        """Bandwidth-delay product of the modeled pipe."""
        return self.bandwidth_Bps * self.tau_s

    @property
    def gamma_rate(self) -> float:
        """γ_r = γ / δt."""
        interval = self.update_interval_s or self.tau_s
        return self.gamma / interval


@dataclass
class FluidTrace:
    """Time series produced by :func:`simulate`."""

    times_s: List[float] = field(default_factory=list)
    window_bytes: List[float] = field(default_factory=list)
    queue_bytes: List[float] = field(default_factory=list)
    inflight_bytes: List[float] = field(default_factory=list)

    @property
    def final_window(self) -> float:
        """Window at the end of the run."""
        return self.window_bytes[-1]

    @property
    def final_queue(self) -> float:
        """Queue at the end of the run."""
        return self.queue_bytes[-1]

    def min_inflight(self, after_s: float = 0.0) -> float:
        """Minimum inflight bytes after ``after_s`` — inflight below the
        BDP means throughput loss (the region below Fig. 3's dotted line)."""
        values = [
            v
            for t, v in zip(self.times_s, self.inflight_bytes)
            if t >= after_s
        ]
        return min(values) if values else float("nan")

    def loss_after_fill(self, bdp_bytes: float, tolerance: float = 0.999) -> float:
        """Deepest dip below the BDP *after* the pipe first filled, as a
        fraction of BDP.

        This is the overreaction signature of Fig. 3a: a trajectory that
        reaches full utilization and then starves the link.  Trajectories
        that never fill the pipe return 0 (they are growth-limited, not
        overreacting).
        """
        filled_at = None
        for i, v in enumerate(self.inflight_bytes):
            if v >= tolerance * bdp_bytes:
                filled_at = i
                break
        if filled_at is None:
            return 0.0
        min_after = min(self.inflight_bytes[filled_at:])
        dip = (bdp_bytes - min_after) / bdp_bytes
        return dip if dip > 0.0 else 0.0


def simulate(
    law: ControlLaw,
    params: FluidParams,
    w0_bytes: float,
    q0_bytes: float,
    duration_s: float,
    *,
    sample_every: int = 10,
) -> FluidTrace:
    """Integrate the fluid system from ``(w0, q0)`` for ``duration_s``.

    Inflight bytes are ``min(w, b·τ) + q`` — the pipe contents plus the
    queue, which is the y-axis of the paper's Fig. 3.
    """
    p = params
    b = p.bandwidth_Bps
    tau = p.tau_s
    gamma_r = p.gamma_rate
    dt = p.dt_s
    steps = max(1, int(duration_s / dt))

    delay_steps = int(p.feedback_delay_s / dt)
    history: deque = deque(maxlen=delay_steps + 1)

    w = float(w0_bytes)
    q = float(q0_bytes)
    trace = FluidTrace()
    for step in range(steps + 1):
        theta = q / b + tau
        arrival = w / theta
        qdot = arrival - b
        if q <= 0.0 and qdot < 0.0:
            qdot = 0.0
        mu = b if q > 0.0 else min(arrival, b)

        history.append((q, qdot, mu))
        q_fb, qdot_fb, mu_fb = history[0]

        if step % sample_every == 0:
            trace.times_s.append(step * dt)
            trace.window_bytes.append(w)
            trace.queue_bytes.append(q)
            trace.inflight_bytes.append(min(w, b * tau) + q)

        f = law.f(q_fb, qdot_fb, mu_fb, b, tau)
        if f <= 0.0:
            f = 1e-12  # the gradient law can hit f -> 0 while draining
        e = law.e(b, tau)
        wdot = gamma_r * (w * e / f - w + p.beta_bytes)

        w = max(w + wdot * dt, 1.0)
        q = max(q + qdot * dt, 0.0)
    return trace
