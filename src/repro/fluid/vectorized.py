"""Numpy-vectorized fluid integration: whole parameter grids per call.

:func:`simulate_grid` integrates N independent ``(w0, q0)`` trajectories
of one control law simultaneously, replacing N Python-level calls to
:func:`repro.fluid.model.simulate` with one loop over time steps whose
body is a handful of elementwise float64 array operations.  Phase
portraits (:func:`repro.fluid.phase.phase_portrait_grid`) and stability
scans (:func:`repro.fluid.stability.convergence_time_scan`) build on it;
on a Fig.-3-sized grid the speedup over the scalar loop is one to two
orders of magnitude (see ``repro perf --cases fluid_grid``).

Equivalence with the scalar path
--------------------------------
The step body performs the *same* IEEE-754 double operations in the
*same* order as the scalar integrator (``q/b + tau``, ``w/theta``, the
``q <= 0`` / ``f <= 0`` clamps as ``np.where``, the ``max`` floors as
``np.maximum``), so columns of a grid are bit-identical to the scalar
trajectories on every platform whose numpy uses ordinary IEEE doubles —
the fig2/fig3 benches assert exact equality, and the guaranteed bound is
1e-12 relative.  The control-law lambdas in :mod:`repro.fluid.laws` are
pure arithmetic and evaluate unchanged on arrays.

numpy is an *optional* accelerator dependency, imported by the first
call that needs it: importing this module always succeeds and never
loads numpy, and every entry point raises a descriptive ``ImportError``
when numpy is unavailable (the scalar path never needs it).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.fluid.laws import ControlLaw
from repro.fluid.model import FluidParams, FluidTrace


def _require_numpy():
    """numpy, resolved on first use: the CLI imports this package in every
    ``run``/``sweep``/``campaign`` process, and only grid calls need it."""
    try:
        import numpy
    except ImportError:
        raise ImportError(
            "repro.fluid.vectorized requires numpy; install it or use the "
            "scalar repro.fluid.model.simulate path"
        ) from None
    return numpy


@dataclass
class GridTrace:
    """Sampled trajectories of one :func:`simulate_grid` call.

    ``times_s`` has shape ``(samples,)``; the other arrays are
    ``(samples, n)`` with one column per initial state, in input order.
    Column *i* is bit-identical to the scalar trace from the same
    ``(w0[i], q0[i])`` (see the module docstring for the tolerance).
    """

    times_s: "object"
    window_bytes: "object"
    queue_bytes: "object"
    inflight_bytes: "object"

    @property
    def n_trajectories(self) -> int:
        """Number of integrated columns."""
        return self.window_bytes.shape[1]

    @property
    def final_windows(self):
        """Final window of every trajectory — shape ``(n,)``."""
        return self.window_bytes[-1]

    @property
    def final_queues(self):
        """Final queue of every trajectory — shape ``(n,)``."""
        return self.queue_bytes[-1]

    def trace(self, i: int) -> FluidTrace:
        """Column ``i`` as a scalar-compatible :class:`FluidTrace`."""
        return FluidTrace(
            times_s=self.times_s.tolist(),
            window_bytes=self.window_bytes[:, i].tolist(),
            queue_bytes=self.queue_bytes[:, i].tolist(),
            inflight_bytes=self.inflight_bytes[:, i].tolist(),
        )

    def loss_after_fill(self, bdp_bytes: float, tolerance: float = 0.999):
        """Per-trajectory deepest post-fill dip below the BDP (fraction).

        Vectorized equivalent of :meth:`FluidTrace.loss_after_fill`:
        trajectories that never reach ``tolerance * bdp`` inflight return
        0 (growth-limited, not overreacting).  Shape ``(n,)``.
        """
        np = _require_numpy()
        inflight = self.inflight_bytes
        filled = inflight >= tolerance * bdp_bytes
        has_filled = filled.any(axis=0)
        first = filled.argmax(axis=0)  # 0 where never filled (masked below)
        # Minimum of each column's suffix starting at its own fill index.
        suffix_min = np.minimum.accumulate(inflight[::-1], axis=0)[::-1]
        min_after = suffix_min[first, np.arange(inflight.shape[1])]
        dip = (bdp_bytes - min_after) / bdp_bytes
        return np.where(has_filled & (dip > 0.0), dip, 0.0)


def simulate_grid(
    law: ControlLaw,
    params: FluidParams,
    initial_states: Sequence[Tuple[float, float]],
    duration_s: float,
    *,
    sample_every: int = 10,
) -> GridTrace:
    """Integrate every ``(w0, q0)`` in ``initial_states`` at once.

    One forward-Euler time loop over ``duration_s`` whose body operates
    on length-``n`` float64 arrays; identical step-for-step to
    :func:`repro.fluid.model.simulate` (same operations, same order, same
    clamps — see the module docstring for the equivalence contract,
    including the ``feedback_delay_s`` history).
    """
    np = _require_numpy()
    if not initial_states:
        raise ValueError("need at least one initial state")
    p = params
    b = p.bandwidth_Bps
    tau = p.tau_s
    gamma_r = p.gamma_rate
    beta = p.beta_bytes
    dt = p.dt_s
    steps = max(1, int(duration_s / dt))

    delay_steps = int(p.feedback_delay_s / dt)
    history: deque = deque(maxlen=delay_steps + 1)

    w = np.array([s[0] for s in initial_states], dtype=np.float64)
    q = np.array([s[1] for s in initial_states], dtype=np.float64)
    n = w.shape[0]
    n_samples = steps // sample_every + 1
    times = np.empty(n_samples)
    windows = np.empty((n_samples, n))
    queues = np.empty((n_samples, n))
    inflights = np.empty((n_samples, n))
    e = law.e(b, tau)
    bdp = b * tau
    sample = 0
    for step in range(steps + 1):
        theta = q / b + tau
        arrival = w / theta
        qdot = arrival - b
        qdot = np.where((q <= 0.0) & (qdot < 0.0), 0.0, qdot)
        mu = np.where(q > 0.0, b, np.minimum(arrival, b))

        history.append((q, qdot, mu))
        q_fb, qdot_fb, mu_fb = history[0]

        if step % sample_every == 0:
            times[sample] = step * dt
            windows[sample] = w
            queues[sample] = q
            inflights[sample] = np.minimum(w, bdp) + q
            sample += 1

        f = law.f(q_fb, qdot_fb, mu_fb, b, tau)
        f = np.where(f <= 0.0, 1e-12, f)
        wdot = gamma_r * (w * e / f - w + beta)

        w = np.maximum(w + wdot * dt, 1.0)
        q = np.maximum(q + qdot * dt, 0.0)
    return GridTrace(
        times_s=times[:sample],
        window_bytes=windows[:sample],
        queue_bytes=queues[:sample],
        inflight_bytes=inflights[:sample],
    )
