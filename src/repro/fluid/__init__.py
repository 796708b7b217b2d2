"""Fluid (ODE) models of the §2 control-law taxonomy.

This package makes the paper's analytical motivation executable:

* :mod:`repro.fluid.laws` — the simplified control-law family of Eq. 2 /
  Appendix C (queue-length, delay, RTT-gradient) plus the power law;
* :mod:`repro.fluid.model` — the coupled window/queue dynamics (Eqs. 3, 4,
  9) integrated with forward Euler;
* :mod:`repro.fluid.phase` — Fig. 3 phase portraits (trajectories from a
  grid of initial states);
* :mod:`repro.fluid.reaction` — Fig. 2 reaction curves (multiplicative
  decrease versus queue length / buildup rate);
* :mod:`repro.fluid.stability` — Appendix A: equilibria, linearization,
  eigenvalues, and convergence time constants (Theorems 1-2);
* :mod:`repro.fluid.vectorized` — numpy-backed grid integration: whole
  sets of initial states per call, bit-identical to the scalar path
  (numpy is optional and loaded by the first grid call, not by importing
  this package; the entry points raise ImportError without it).
"""

from repro.fluid.laws import (
    ControlLaw,
    DELAY_LAW,
    GRADIENT_LAW,
    POWER_LAW,
    QUEUE_LAW,
)
from repro.fluid.model import FluidParams, FluidTrace, simulate
from repro.fluid.phase import (
    PhasePortrait,
    dense_initial_grid,
    phase_portrait,
    phase_portrait_grid,
)
from repro.fluid.reaction import (
    decrease_vs_buildup_rate,
    decrease_vs_queue_length,
    three_case_comparison,
)
from repro.fluid.stability import (
    convergence_time_constant,
    convergence_time_scan,
    equilibrium,
    gradient_law_equilibria_are_degenerate,
    is_asymptotically_stable,
    linearized_eigenvalues,
    theoretical_time_constant_s,
)
from repro.fluid.vectorized import GridTrace, simulate_grid

__all__ = [
    "ControlLaw",
    "DELAY_LAW",
    "FluidParams",
    "FluidTrace",
    "GRADIENT_LAW",
    "GridTrace",
    "POWER_LAW",
    "PhasePortrait",
    "QUEUE_LAW",
    "convergence_time_constant",
    "convergence_time_scan",
    "decrease_vs_buildup_rate",
    "decrease_vs_queue_length",
    "dense_initial_grid",
    "equilibrium",
    "gradient_law_equilibria_are_degenerate",
    "is_asymptotically_stable",
    "linearized_eigenvalues",
    "phase_portrait",
    "phase_portrait_grid",
    "simulate",
    "simulate_grid",
    "theoretical_time_constant_s",
    "three_case_comparison",
]
