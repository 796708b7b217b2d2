"""Built-in rule modules (imported lazily through registry.BUILTIN_RULE_CATALOG).

One module per invariant family:

* :mod:`repro.lint.rules.determinism` — seeded RNG, wall clock, unordered
  iteration;
* :mod:`repro.lint.rules.pool` — AckFeedback/PacketPool lifetime;
* :mod:`repro.lint.rules.hygiene` — registry-only topology/CC resolution,
  gated imports of the optional accelerators (compiled core, numpy);
* :mod:`repro.lint.rules.timeint` — integer-nanosecond time;
* :mod:`repro.lint.rules.scheduler` — fast-path vs cancellable timers;
* :mod:`repro.lint.rules.env` — ``os.environ`` isolation;
* :mod:`repro.lint.rules.meta` — the linter's own hygiene
  (stale suppressions).
"""
