"""Robustness rules: orchestration code must never block without a bound.

Contract: ``docs/INVARIANTS.md#subprocess-timeout-discipline`` — the
campaign layer exists to survive hung and crashed workers, so every
potentially-blocking wait on another process (or a future standing in
for one) must carry an explicit ``timeout=``.  One unbounded
``proc.wait()`` re-introduces exactly the failure mode the orchestrator
is built to contain: a single wedged worker hangs the whole campaign.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.framework import Finding, LintContext, Rule
from repro.lint.registry import register_rule

#: subprocess module entry points that accept (and here require) timeout=
_SUBPROCESS_CALLS = frozenset(
    {
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
    }
)

#: blocking methods on Popen/Future-like objects that require timeout=
_BLOCKING_METHODS = frozenset({"wait", "communicate", "result"})


def _passes_wnohang(ctx: LintContext, node: ast.Call) -> bool:
    """Whether an ``os.waitpid`` call's options name ``os.WNOHANG``."""
    return any(
        ctx.imports.dotted(sub) == "os.WNOHANG"
        for arg in node.args[1:] + [kw.value for kw in node.keywords]
        for sub in ast.walk(arg)
    )


def _has_timeout_kw(node: ast.Call) -> bool:
    return any(
        kw.arg == "timeout" or kw.arg is None  # **kwargs may carry it
        for kw in node.keywords
    )


@register_rule(
    "subprocess-timeout",
    category="robustness",
    contract="docs/INVARIANTS.md#subprocess-timeout-discipline",
)
class SubprocessTimeoutRule(Rule):
    """Every blocking subprocess/pool wait in campaign/ carries timeout=.

    Flags ``subprocess.run/call/check_call/check_output`` invocations and
    ``.wait()``/``.communicate()``/``.result()`` method calls without an
    explicit ``timeout=`` keyword, ``os.waitpid()`` without ``os.WNOHANG``
    and ``os.wait()`` (the pool's own process handle polls ``waitpid``
    under a deadline instead).  The method check is name-based (the
    linter cannot type the receiver), which is the point: inside the
    orchestration layer *anything* named like a blocking wait must state
    its bound, so a wedged worker is always reclaimable by the
    orchestrator's clock.
    """

    def applies(self, ctx: LintContext) -> bool:
        return ctx.in_package_dirs("campaign")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or _has_timeout_kw(node):
                continue
            dotted = ctx.imports.dotted(node.func)
            if dotted == "os.wait" or (
                dotted == "os.waitpid" and not _passes_wnohang(ctx, node)
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"{dotted}() blocks until a child exits — poll "
                    "os.waitpid(pid, os.WNOHANG) under a deadline instead",
                )
            elif dotted in _SUBPROCESS_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"{dotted}() without timeout= — a wedged child would "
                    "hang the campaign; pass an explicit bound",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _BLOCKING_METHODS
            ):
                yield self.finding(
                    ctx,
                    node,
                    f".{node.func.attr}() without timeout= — blocking "
                    "waits in campaign/ must be bounded so hung workers "
                    "stay reclaimable",
                )
