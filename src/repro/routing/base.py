"""The RoutingPolicy protocol: per-switch path selection.

A policy instance belongs to exactly one switch (builders call
``PolicySpec.create()`` once per switch), mirroring hardware: ECMP salts
and spray cursors live in each switch's forwarding plane.
:meth:`RoutingPolicy.attach` enforces that ownership.

``select`` is the single hot-path hook: given a packet and the candidate
egress ports for its destination (always >= 2 — single-candidate routes
never consult the policy), return the port to enqueue on.  Policies must
be deterministic functions of (their own state, the packet, the
candidates): any randomness comes from a ``random.Random`` seeded from
policy params and the switch id (see the ``spray`` policy), never from
ambient state — the determinism lint rules cover ``routing/`` too.
"""

from __future__ import annotations

from typing import Sequence

from repro.routing.registry import Requirements


class RoutingPolicy:
    """Base class for registered routing policies (see module docstring)."""

    #: stamped by :func:`repro.routing.registry.register_policy`
    policy_name: str = ""
    requirements: Requirements = Requirements()

    _switch = None
    #: id of the owning switch (hash input for ECMP-style policies)
    switch_id: int = 0

    def attach(self, switch) -> None:
        """Bind this instance to its owning switch (once).

        Called by ``Switch.__init__``/``set_policy``.  Re-attaching the
        same instance to a *different* switch would silently share
        cursors across switches, so it is an error — create one
        instance per switch via ``PolicySpec.create()``.
        """
        if self._switch is not None and self._switch is not switch:
            raise ValueError(
                f"routing policy {self.policy_name or type(self).__name__!r} "
                f"is already attached to switch {self._switch.name!r}; "
                "policy instances are per-switch — create a fresh one via "
                "PolicySpec.create()"
            )
        self._switch = switch
        self.switch_id = switch.switch_id

    def select(self, pkt, options: Sequence):
        """Pick the egress port for ``pkt`` among >= 2 candidates."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        owner = self._switch.name if self._switch is not None else "unattached"
        return f"{type(self).__name__}({owner})"
