"""Rule registry: id -> entry.

Ids and lookups are one :class:`repro.registry.Registry`.  Every rule
class self-registers with the :func:`register_rule` class decorator,
declaring an id (the name used in findings and in ``# lint: disable=``
suppressions), a category, and the ``docs/INVARIANTS.md`` anchor of the
contract it enforces.  Adding a rule is one decorated class in one
module, plus its module and id in :data:`BUILTIN_RULE_CATALOG` (lookups
import only the module the catalog names)::

    from repro.lint.framework import Rule
    from repro.lint.registry import register_rule

    @register_rule("my-rule", category="determinism",
                   contract="docs/INVARIANTS.md#seeded-rng-discipline")
    class MyRule(Rule):
        \"\"\"One-line summary shown by --list-rules.\"\"\"

        def check(self, ctx):
            ...
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.registry import Registry, first_doc_line

#: each module that self-registers built-in rules -> the ids it registers
BUILTIN_RULE_CATALOG = {
    "repro.lint.rules.determinism": (
        "unseeded-rng", "wall-clock", "unordered-iteration",
    ),
    "repro.lint.rules.pool": ("feedback-retention",),
    "repro.lint.rules.hygiene": (
        "concrete-topology-import",
        "unregistered-cc",
        "compiled-core-import",
        "module-scope-heavy-import",
        "unregistered-routing-policy",
    ),
    "repro.lint.rules.timeint": ("float-ns-time",),
    "repro.lint.rules.scheduler": ("cancel-fast-path",),
    "repro.lint.rules.env": ("env-read",),
    "repro.lint.rules.robustness": ("subprocess-timeout",),
    "repro.lint.rules.meta": ("unused-suppression",),
}

#: rule id of the stale-suppression meta check (registered in
#: :mod:`repro.lint.rules.meta`; findings produced by framework.run_paths)
UNUSED_SUPPRESSION = "unused-suppression"

#: rule id attached to files the linter cannot parse (not a registered
#: rule: a syntax error is unconditionally fatal and unsuppressable)
PARSE_ERROR = "parse-error"


@dataclass(frozen=True)
class RegisteredRule:
    """One registry entry: a named rule plus the contract it encodes."""

    id: str
    category: str
    cls: type
    #: first line of the rule class docstring
    description: str = ""
    #: ``docs/INVARIANTS.md`` anchor for the underlying contract
    contract: str = ""

    def make(self):
        """Instantiate a fresh rule object (rules may keep per-file state)."""
        return self.cls()


REGISTRY: Registry[RegisteredRule] = Registry(
    "lint rule", BUILTIN_RULE_CATALOG, lambda entry: entry.cls
)
#: rule id -> entry
RULES = REGISTRY.entries
load_builtin_rules = REGISTRY.load_builtins
get_rule = REGISTRY.get
rule_ids = REGISTRY.names


def register_rule(rule_id: str, *, category: str, contract: str = ""):
    """Class decorator: register a :class:`~repro.lint.framework.Rule`.

    Re-registration is allowed only for the identical class object
    (idempotent module re-import); any other id collision is an error.
    """

    def decorate(cls: type) -> type:
        entry = RegisteredRule(
            id=rule_id,
            category=category,
            cls=cls,
            description=first_doc_line(cls),
            contract=contract,
        )
        REGISTRY.add(rule_id, entry)
        cls.id = rule_id
        cls.category = category
        cls.contract = contract
        return cls

    return decorate
