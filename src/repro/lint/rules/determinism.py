"""Determinism rules: every run must be a pure function of (config, seed).

Contract: ``docs/INVARIANTS.md#seeding-discipline`` — all randomness
flows from explicitly seeded ``random.Random(seed)`` instances threaded
through the call graph, never from process-global or wall-clock state,
and nothing in the hot packages iterates containers whose order depends
on hashing or object identity.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.framework import Finding, LintContext, Rule
from repro.lint.registry import register_rule

#: wall-clock call targets (dotted, post import-alias resolution)
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register_rule(
    "unseeded-rng",
    category="determinism",
    contract="docs/INVARIANTS.md#seeding-discipline",
)
class UnseededRngRule(Rule):
    """No unseeded random.Random(), module-level random.*, or numpy.random.

    The module-level ``random.*`` functions and ``numpy.random.*`` draw
    from process-global generators whose state depends on import order
    and prior calls; ``random.Random()`` without arguments seeds from the
    OS.  Use ``random.Random(seed)`` instances threaded from the
    scenario config (see docs/INVARIANTS.md#seeding-discipline).
    """

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.imports.dotted(node.func)
            if dotted is None:
                continue
            if dotted == "random.Random":
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx,
                        node,
                        "unseeded random.Random() — pass an explicit seed "
                        "derived from the scenario config",
                    )
            elif dotted.startswith("random."):
                yield self.finding(
                    ctx,
                    node,
                    f"module-level {dotted}() uses the process-global RNG — "
                    "use a seeded random.Random(seed) instance",
                )
            elif dotted == "numpy.random" or dotted.startswith("numpy.random."):
                yield self.finding(
                    ctx,
                    node,
                    f"{dotted}() draws from numpy's global/unpinned RNG — "
                    "thread an explicitly seeded generator instead",
                )


@register_rule(
    "wall-clock",
    category="determinism",
    contract="docs/INVARIANTS.md#wall-clock-isolation",
)
class WallClockRule(Rule):
    """No wall-clock reads outside perf/, campaign/, and benchmarks/.

    ``time.time``/``perf_counter``/``datetime.now`` values differ across
    runs; any influence on simulation behaviour breaks byte identity.
    Simulation time is ``sim.now`` (integer nanoseconds).  Timing
    harnesses live in ``perf/`` and ``benchmarks/``, and the campaign
    orchestrator's job *is* wall-clock (cell timeouts, retry backoff,
    progress ETA) — all three are exempt; anything else measuring
    wall time for *provenance only* must carry a justifying
    ``# lint: disable=wall-clock``.
    """

    def applies(self, ctx: LintContext) -> bool:
        return not ctx.in_package_dirs("perf", "campaign") and not ctx.under_dir(
            "benchmarks"
        )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.imports.dotted(node.func)
            if dotted in WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock read {dotted}() outside perf//benchmarks/ — "
                    "simulation behaviour must depend only on sim.now",
                )


def _is_builtin_call(node: ast.AST, ctx: LintContext, names) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in names
        and node.func.id not in ctx.imports.names
    )


@register_rule(
    "unordered-iteration",
    category="determinism",
    contract="docs/INVARIANTS.md#ordered-iteration",
)
class UnorderedIterationRule(Rule):
    """No iteration over set/frozenset or id()-keyed dicts in hot packages.

    Set iteration order follows hash order (stable for ints, but a
    refactor to str/object elements silently reorders events) and
    ``id()`` keys depend on allocator addresses.  In ``sim/``, ``cc/``,
    ``transport/``, ``topology/``, and ``routing/`` iterate lists or
    ``sorted(...)`` views, and key dicts by stable identifiers (port
    ids, flow ids).
    """

    def applies(self, ctx: LintContext) -> bool:
        return ctx.in_package_dirs("sim", "cc", "transport", "topology", "routing")

    def _iter_targets(self, ctx: LintContext) -> Iterator[ast.AST]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield node.iter
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    yield gen.iter

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for target in self._iter_targets(ctx):
            if isinstance(target, (ast.Set, ast.SetComp)) or _is_builtin_call(
                target, ctx, ("set", "frozenset")
            ):
                yield self.finding(
                    ctx,
                    target,
                    "iteration over a set/frozenset follows hash order — "
                    "iterate a list or sorted(...) view",
                )
        for node in ast.walk(ctx.tree):
            key = None
            if isinstance(node, ast.Subscript):
                key = node.slice
            elif isinstance(node, ast.Dict):
                for k in node.keys:
                    if k is not None and _is_builtin_call(k, ctx, ("id",)):
                        key = k
                        break
            elif isinstance(node, ast.DictComp):
                key = node.key
            if key is not None and _is_builtin_call(key, ctx, ("id",)):
                yield self.finding(
                    ctx,
                    key,
                    "id()-keyed mapping depends on allocator addresses — "
                    "key by a stable identifier instead",
                )
