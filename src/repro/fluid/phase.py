"""Fig. 3 phase portraits: trajectories from a grid of initial states.

The paper plots (window, inflight) trajectories for the three law types;
the diagnostic quantities we extract per law:

* **equilibrium spread** — the dispersion of final states across initial
  conditions.  Voltage and power laws converge to one point (spread ≈ 0);
  the RTT-gradient law does not (Fig. 3b "no unique equilibrium").
* **throughput loss** — whether any trajectory dips below the BDP line
  (Fig. 3a: voltage-based CC overreacts and loses throughput; Fig. 3c:
  the power law does not).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.fluid.laws import ControlLaw
from repro.fluid.model import FluidParams, FluidTrace, simulate


@dataclass
class PhasePortrait:
    """All trajectories of one law plus summary diagnostics."""

    law_name: str
    traces: List[FluidTrace] = field(default_factory=list)
    initial_states: List[Tuple[float, float]] = field(default_factory=list)
    bdp_bytes: float = 0.0

    @property
    def final_windows(self) -> List[float]:
        """Final window of every trajectory."""
        return [t.final_window for t in self.traces]

    def equilibrium_spread(self) -> float:
        """Relative spread of final windows (max−min over mean).

        ~0 for a unique equilibrium; O(1) when final states depend on the
        initial state.
        """
        finals = self.final_windows
        mean = sum(finals) / len(finals)
        return (max(finals) - min(finals)) / mean if mean else float("inf")

    def worst_throughput_loss(self) -> float:
        """Deepest post-fill dip below the BDP across trajectories, as a
        fraction of BDP (0 = no trajectory starved the link after filling
        the pipe).  This is the overreaction signature of Fig. 3a."""
        return max(t.loss_after_fill(self.bdp_bytes) for t in self.traces)

    def fraction_with_loss(self, threshold: float = 0.01) -> float:
        """Fraction of trajectories that, after filling the pipe, dipped
        more than ``threshold``·BDP below it (Fig. 3a: "almost every
        initial point" for voltage-based CC)."""
        losing = sum(
            1
            for t in self.traces
            if t.loss_after_fill(self.bdp_bytes) > threshold
        )
        return losing / len(self.traces)


def default_initial_grid(bdp: float) -> List[Tuple[float, float]]:
    """Initial (window, queue) states spanning under- and over-shoot."""
    return [
        (0.1 * bdp, 0.0),
        (0.5 * bdp, 0.0),
        (1.0 * bdp, 0.5 * bdp),
        (2.0 * bdp, 1.0 * bdp),
        (4.0 * bdp, 3.0 * bdp),
        (8.0 * bdp, 7.0 * bdp),
    ]


def phase_portrait(
    law: ControlLaw,
    params: FluidParams,
    *,
    initial_states: Sequence[Tuple[float, float]] = None,
    duration_s: float = None,
) -> PhasePortrait:
    """Integrate the law from every initial state (Fig. 3 for one panel)."""
    bdp = params.bdp_bytes
    states = list(initial_states) if initial_states else default_initial_grid(bdp)
    horizon = duration_s if duration_s is not None else 200 * params.tau_s
    portrait = PhasePortrait(law.name, bdp_bytes=bdp, initial_states=states)
    for w0, q0 in states:
        portrait.traces.append(simulate(law, params, w0, q0, horizon))
    return portrait

