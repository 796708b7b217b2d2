"""Appendix A made executable: equilibria, linearization, convergence.

* :func:`equilibrium` — the fixed point (w_e, q_e) of a law (Appendix C):
  queue/delay/power laws have the unique ``(b·τ + β̂, β̂)``; the gradient
  law has none (any queue length with q̇ = 0 is stationary).
* :func:`linearized_eigenvalues` — Theorem 1: the power-law system
  linearized around its equilibrium is upper-triangular with eigenvalues
  ``−1/τ`` and ``−γ_r``, both negative, hence Lyapunov- and asymptotically
  stable.
* :func:`convergence_time_constant` — Theorem 2: after a perturbation the
  window error decays as ``exp(−γ_r · t)``, i.e. time constant ``δt/γ``;
  this function fits the constant from a simulated trace so the theorem
  can be checked numerically.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from repro.fluid.laws import ControlLaw, GRADIENT_LAW, POWER_LAW
from repro.fluid.model import FluidParams


def equilibrium(
    law: ControlLaw, params: FluidParams, beta_bytes: Optional[float] = None
) -> Optional[Tuple[float, float]]:
    """(w_e, q_e) for laws with a unique equilibrium; None for the
    gradient law (no unique equilibrium — the paper's key negative
    result for current-based CC)."""
    if law.kind == "current":
        return None
    beta = params.beta_bytes if beta_bytes is None else beta_bytes
    return params.bdp_bytes + beta, beta


def linearized_eigenvalues(params: FluidParams) -> Tuple[float, float]:
    """Eigenvalues of the power-law system linearized at equilibrium.

    The Jacobian (Appendix A) is ``[[−1/τ, 1/τ], [0, −γ_r]]`` in (δq, δw)
    coordinates, upper-triangular, so the eigenvalues are the diagonal.
    """
    return (-1.0 / params.tau_s, -params.gamma_rate)


def is_asymptotically_stable(params: FluidParams) -> bool:
    """Theorem 1: both eigenvalues strictly negative."""
    eig1, eig2 = linearized_eigenvalues(params)
    return eig1 < 0.0 and eig2 < 0.0


def theoretical_time_constant_s(params: FluidParams) -> float:
    """Theorem 2: δt / γ."""
    return 1.0 / params.gamma_rate


def convergence_time_constant(
    times_s: Sequence[float],
    window_bytes: Sequence[float],
    w_equilibrium: float,
) -> float:
    """Fit the exponential decay constant of |w(t) − w_e|.

    Least-squares on ``ln|error|`` over samples where the error is still
    at least 0.1 % of the initial error (below that, integration noise
    dominates).  Returns the fitted time constant in seconds.
    """
    if len(times_s) != len(window_bytes) or len(times_s) < 3:
        raise ValueError("need at least three (time, window) samples")
    initial_error = abs(window_bytes[0] - w_equilibrium)
    if initial_error == 0:
        raise ValueError("trace starts at equilibrium; nothing to fit")
    xs, ys = [], []
    for t, w in zip(times_s, window_bytes):
        error = abs(w - w_equilibrium)
        if error > 1e-3 * initial_error:
            xs.append(t)
            ys.append(math.log(error))
    if len(xs) < 3:
        raise ValueError("error decayed too fast to fit")
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var = sum((x - mean_x) ** 2 for x in xs)
    slope = cov / var
    if slope >= 0:
        raise ValueError("window error is not decaying")
    return -1.0 / slope


def gradient_law_equilibria_are_degenerate(
    params: FluidParams, queue_levels: Sequence[float]
) -> bool:
    """Check the Appendix C result directly: for the gradient law, *every*
    queue level with q̇ = 0 makes the feedback stationary (f = e = 1), so
    there is a continuum of equilibria."""
    b = params.bandwidth_Bps
    return all(
        math.isclose(
            GRADIENT_LAW.f(q, 0.0, b, b, params.tau_s),
            GRADIENT_LAW.e(b, params.tau_s),
        )
        for q in queue_levels
    )
