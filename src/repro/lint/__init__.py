"""`repro lint` — AST-based invariant linter for the simulator's contracts.

The byte-identity suite (26 committed figure series) catches determinism
violations *after* they corrupt a run; this package rejects them at diff
time.  Each rule encodes one contract from ``docs/INVARIANTS.md``:

* **determinism** — seeded-RNG-only randomness, no wall-clock reads, no
  iteration over unordered containers in the hot packages;
* **pool-lifetime** — the :class:`~repro.cc.base.AckFeedback` /
  ``PacketPool`` contract: ``on_ack`` must copy scalars, never retain
  the feedback view or its ``HopRecord`` objects;
* **registry** — topology and CC resolution go through the registries,
  never through concrete-module imports;
* **integer-time** — the simulation clock is integer nanoseconds; floats
  must not flow into scheduling calls or ``*_ns`` arguments;
* **scheduler-api** — only ``*_cancellable`` scheduling returns handles;
* **env-isolation** — ``os.environ`` stays out of simulation code.

Rules self-register with :func:`repro.lint.registry.register_rule`;
``python -m repro lint --list-rules`` prints the catalog.  Findings are
suppressable per line with ``# lint: disable=<rule-id>`` and stale
suppressions are themselves findings (``unused-suppression``).
"""

from repro.lint.framework import (  # noqa: F401
    Finding,
    LintContext,
    LintReport,
    Rule,
    default_targets,
    run_paths,
)
from repro.lint.registry import (  # noqa: F401
    RULES,
    RegisteredRule,
    get_rule,
    load_builtin_rules,
    register_rule,
    rule_ids,
)

__all__ = [
    "Finding",
    "LintContext",
    "LintReport",
    "Rule",
    "RULES",
    "RegisteredRule",
    "default_targets",
    "get_rule",
    "load_builtin_rules",
    "register_rule",
    "rule_ids",
    "run_paths",
]
