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
  eigenvalues, and convergence time constants (Theorems 1-2).
"""

from repro.fluid.laws import (
    ControlLaw,
    DELAY_LAW,
    GRADIENT_LAW,
    POWER_LAW,
    QUEUE_LAW,
)
from repro.fluid.model import FluidParams, FluidTrace, simulate
from repro.fluid.phase import PhasePortrait, phase_portrait
from repro.fluid.reaction import (
    decrease_vs_buildup_rate,
    decrease_vs_queue_length,
    three_case_comparison,
)
from repro.fluid.stability import (
    convergence_time_constant,
    equilibrium,
    gradient_law_equilibria_are_degenerate,
    is_asymptotically_stable,
    linearized_eigenvalues,
    theoretical_time_constant_s,
)

__all__ = [
    "ControlLaw",
    "DELAY_LAW",
    "FluidParams",
    "FluidTrace",
    "GRADIENT_LAW",
    "POWER_LAW",
    "PhasePortrait",
    "QUEUE_LAW",
    "convergence_time_constant",
    "decrease_vs_buildup_rate",
    "decrease_vs_queue_length",
    "equilibrium",
    "gradient_law_equilibria_are_degenerate",
    "is_asymptotically_stable",
    "linearized_eigenvalues",
    "phase_portrait",
    "simulate",
    "theoretical_time_constant_s",
    "three_case_comparison",
]
