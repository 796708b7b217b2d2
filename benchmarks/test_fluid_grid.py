"""The numpy grid mode of the fluid model against its scalar path.

Not figure series: the vectorized sweeps of figs. 2 and 3 must equal
the scalar per-point results exactly.  Both skip without numpy.
"""

import pytest

from repro.figures import B_BPS, BDP, TAU, fig3_params as params
from repro.fluid.laws import GRADIENT_LAW, POWER_LAW, QUEUE_LAW
from repro.fluid.phase import phase_portrait, phase_portrait_grid
from repro.fluid.reaction import decrease_vs_buildup_rate, decrease_vs_queue_length


def test_fig2_grid_mode_matches_scalar():
    # Grid mode: the control-law lambdas are pure arithmetic, so one
    # vectorized multiplicative_factor call over the whole sweep must
    # equal the scalar per-point series exactly.
    np = pytest.importorskip("numpy")

    rates = [0, 1, 2, 3, 4, 5, 6, 7, 8]
    scalar = decrease_vs_buildup_rate(
        bandwidth_Bps=B_BPS, tau_s=TAU,
        queue_bytes=0.5 * BDP, rate_multiples=rates,
    )
    qdot = np.array(rates, dtype=np.float64) * B_BPS
    for law in (QUEUE_LAW, GRADIENT_LAW):
        vec = law.multiplicative_factor(0.5 * BDP, qdot, B_BPS, B_BPS, TAU)
        # A law blind to the swept variable yields a scalar — broadcast it.
        vec = np.broadcast_to(np.asarray(vec), qdot.shape)
        assert vec.tolist() == scalar[law.name]

    fracs = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
    scalar = decrease_vs_queue_length(
        bandwidth_Bps=B_BPS, tau_s=TAU,
        queue_lengths_bytes=[f * BDP for f in fracs],
    )
    q = np.array([f * BDP for f in fracs], dtype=np.float64)
    for law in (QUEUE_LAW, GRADIENT_LAW):
        vec = law.multiplicative_factor(q, 0.0, B_BPS, B_BPS, TAU)
        vec = np.broadcast_to(np.asarray(vec), q.shape)
        assert vec.tolist() == scalar[law.name]


def test_fig3_grid_mode_matches_scalar():
    # Grid mode: the numpy-vectorized sweep must reproduce the scalar
    # trajectories bit-for-bit (the vectorized module's equivalence
    # contract), so the portrait diagnostics are interchangeable.
    pytest.importorskip("numpy")
    p = params()
    for law in (QUEUE_LAW, GRADIENT_LAW, POWER_LAW):
        scalar = phase_portrait(law, p)
        grid = phase_portrait_grid(law, p)
        for s, g in zip(scalar.traces, grid.traces):
            assert s.times_s == g.times_s
            assert s.window_bytes == g.window_bytes
            assert s.queue_bytes == g.queue_bytes
            assert s.inflight_bytes == g.inflight_bytes
        assert scalar.equilibrium_spread() == grid.equilibrium_spread()
        assert scalar.worst_throughput_loss() == grid.worst_throughput_loss()
