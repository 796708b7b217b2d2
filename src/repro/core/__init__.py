"""The paper's contribution: power-based congestion control.

* :mod:`repro.core.power` — the notion of power (§3.1): current, voltage,
  and normalized power computed from INT feedback or RTT samples.
* :mod:`repro.core.powertcp` — Algorithm 1, the INT-based control law.
* :mod:`repro.core.theta` — Algorithm 2, θ-PowerTCP, the standalone
  (timestamp-only) variant for legacy switches.
"""

from repro.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.core.power": (
        "INTPowerEstimator",
        "PowerSample",
        "normalized_power_from_delay",
        "normalized_power_from_hop",
    ),
    "repro.core.powertcp": ("PowerTcp",),
    "repro.core.theta": ("ThetaPowerTcp",),
})
