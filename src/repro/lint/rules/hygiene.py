"""Registry-hygiene rules: resolution goes through registries only.

Contract: ``docs/INVARIANTS.md#registry-only-resolution`` — experiments
resolve topologies via :func:`repro.topology.registry.build_topology`
(PR 5 removed every concrete-builder import), every CC module
self-registers via :func:`repro.cc.registry.register` /
``register_algorithm``, and every routing-policy module self-registers
via :func:`repro.routing.registry.register_policy` so the catalog,
requirement union, and parameter validation see all deployable schemes.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

import os

from repro.lint.framework import REPO_ROOT, Finding, LintContext, Rule
from repro.lint.registry import register_rule

#: topology modules experiments may import (everything else is a
#: concrete builder and must be reached through the registry)
ALLOWED_TOPOLOGY_MODULES = frozenset({"registry", "network"})


def builder_modules(repo_root: str = REPO_ROOT) -> frozenset:
    """Concrete builder modules: every ``repro/topology/*.py`` that is not
    infrastructure.  Grounded in the checkout so new builders are covered
    the moment their file lands; falls back to the known set when the
    package directory is not present (installed without sources)."""
    topo_dir = os.path.join(repo_root, "src", "repro", "topology")
    names = set()
    if os.path.isdir(topo_dir):
        for entry in os.listdir(topo_dir):
            if entry.endswith(".py"):
                names.add(entry[:-3])
    else:
        names = {"dumbbell", "fattree", "parkinglot", "rdcn"}
    return frozenset(names - set(ALLOWED_TOPOLOGY_MODULES) - {"__init__"})


def _type_checking_imports(tree: ast.AST) -> Set[ast.AST]:
    """Import nodes guarded by ``if TYPE_CHECKING:`` (annotation-only)."""
    guarded: Set[ast.AST] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        is_tc = (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
            isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
        )
        if not is_tc:
            continue
        for child in node.body:
            for sub in ast.walk(child):
                if isinstance(sub, (ast.Import, ast.ImportFrom)):
                    guarded.add(sub)
    return guarded


def _topology_submodule(module: str) -> str:
    """'repro.topology.fattree' / '..topology.fattree' -> 'fattree' ('' if
    the import is the package itself or not a topology module at all)."""
    stripped = module.lstrip(".")
    for prefix in ("repro.topology", "topology"):
        if stripped == prefix:
            return ""
        if stripped.startswith(prefix + "."):
            return stripped[len(prefix) + 1:].split(".")[0]
    return ""


@register_rule(
    "concrete-topology-import",
    category="registry",
    contract="docs/INVARIANTS.md#registry-only-resolution",
)
class ConcreteTopologyImportRule(Rule):
    """experiments/ must not import concrete topology builder modules.

    Importing ``repro.topology.fattree`` (or any builder module) from an
    experiment bypasses the registry's parameter validation and pairing
    policies and re-couples experiments to builder internals.  Resolve
    through ``build_topology``/``make_topology_params``;
    ``if TYPE_CHECKING:`` imports of params types are exempt.
    """

    def applies(self, ctx: LintContext) -> bool:
        return ctx.in_package_dirs("experiments")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        guarded = _type_checking_imports(ctx.tree)
        builders = builder_modules()
        for node in ast.walk(ctx.tree):
            if node in guarded:
                continue
            modules = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                if _topology_submodule(module + ".probe") == "probe":
                    # ``from repro.topology import fattree`` — the
                    # imported names themselves may be submodules
                    modules = [module + "." + alias.name for alias in node.names]
                else:
                    modules = [module]
            for module in modules:
                sub = _topology_submodule(module)
                if sub in builders:
                    yield self.finding(
                        ctx,
                        node,
                        f"experiments import concrete topology module "
                        f"{module!r} — resolve through "
                        "repro.topology.registry (build_topology/"
                        "make_topology_params); TYPE_CHECKING-only "
                        "imports of params types are exempt",
                    )


@register_rule(
    "unregistered-cc",
    category="registry",
    contract="docs/INVARIANTS.md#registry-only-resolution",
)
class UnregisteredCcRule(Rule):
    """Every CC module must register a scheme (register/register_algorithm).

    A CC scheme outside the registry is invisible to ``repro list``, the
    conformance suite, FlowDriver's requirement union, and parameter
    validation.  Each module under ``repro/cc/`` (except ``__init__``,
    ``registry``) must carry at least one ``@register(...)`` decorator or
    ``register_algorithm(...)`` call.
    """

    def applies(self, ctx: LintContext) -> bool:
        return ctx.in_package_dirs("cc") and ctx.basename() not in (
            "__init__.py",
            "registry.py",
        )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if _calls_any(ctx.tree, ("register", "register_algorithm")):
            return
        yield Finding(
            path=ctx.rel_path,
            line=1,
            col=0,
            rule_id=self.id,
            message=(
                "CC module registers no scheme — decorate the class with "
                "@register(...) or call register_algorithm(...) so the "
                "registry sees it (move pure helpers out of repro/cc/)"
            ),
        )


def _calls_any(tree: ast.AST, names) -> bool:
    """True when the module calls (or decorates with) any of ``names``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in names:
            return True
    return False


def _mentions_ckernel(dotted: str) -> bool:
    """True when a dotted import path reaches into ``_ckernel``."""
    return "_ckernel" in dotted.lstrip(".").split(".")


def _imported_modules(node: ast.AST) -> list:
    """Dotted names an import statement may load (``[]`` for other nodes):
    the module itself plus, for ``from m import a``, ``m.a``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = "." * node.level + (node.module or "")
        return [base] + [f"{base}.{alias.name}" for alias in node.names]
    return []


@register_rule(
    "compiled-core-import",
    category="registry",
    contract="docs/INVARIANTS.md#compiled-core-gating",
)
class CompiledCoreImportRule(Rule):
    """Only the gated loader may import the compiled core (_ckernel).

    ``repro.sim._compiled`` owns the probe: it caches the one import
    attempt, records the failure reason, and lets ``scheduler="best"``
    degrade to the pure-Python reference.  A direct import anywhere else
    bypasses that gate — it would crash on boxes where the extension did
    not build and dodge the parity contract
    (``docs/INVARIANTS.md#compiled-parity``).  Select the engine through
    ``Simulator(scheduler="compiled"|"best")`` instead.
    """

    def applies(self, ctx: LintContext) -> bool:
        pkg = ctx.pkg_path
        if pkg is None:
            return True  # examples/, benchmarks/ outside the package
        return pkg != "sim/_compiled.py" and not pkg.startswith("_ckernel/")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if any(map(_mentions_ckernel, _imported_modules(node))):
                yield self.finding(
                    ctx,
                    node,
                    "direct import of the compiled core — only the gated "
                    "loader repro.sim._compiled may import _ckernel; use "
                    "Simulator(scheduler='compiled'|'best') or the loader's "
                    "compiled_available()/compiled_error()",
                )


#: modules no file under ``src/repro`` may import at module scope (costs
#: per cold process in docs/INVARIANTS.md#import-cost)
_HEAVY_IMPORTS = ("numpy", "concurrent.futures", "multiprocessing")


def _heavy_import(module: str):
    """The deny-list entry ``module`` is or lives under, else None."""
    for heavy in _HEAVY_IMPORTS:
        if module == heavy or module.startswith(heavy + "."):
            return heavy
    return None


@register_rule(
    "module-scope-heavy-import",
    category="import-cost",
    contract="docs/INVARIANTS.md#import-cost",
)
class ModuleScopeHeavyImportRule(Rule):
    """No module-scope import of numpy / a process pool in the package.

    A module-scope import of anything on the deny-list (``numpy``,
    ``concurrent.futures``, ``multiprocessing``) is paid by every cold
    ``run`` / ``sweep`` / ``campaign`` process that loads the module and
    every campaign worker, although only the
    fluid grid paths use numpy and only ``sweep --jobs N`` builds a
    pool.  Import it inside the function that needs it.  Class bodies
    and module-level ``try:`` blocks run at import and count.
    """

    def applies(self, ctx: LintContext) -> bool:
        return ctx.pkg_path is not None

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            heavy = next(
                filter(None, map(_heavy_import, _imported_modules(node))), None
            )
            if heavy is None:
                continue
            owner = ctx.parents.get(node)
            while owner is not None and not isinstance(
                owner, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                owner = ctx.parents.get(owner)
            if owner is None:
                yield self.finding(
                    ctx,
                    node,
                    f"module-scope import of {heavy} — every cold CLI "
                    "process and campaign worker would load it; import it "
                    "inside the function that needs it",
                )


@register_rule(
    "unregistered-routing-policy",
    category="registry",
    contract="docs/INVARIANTS.md#registry-only-resolution",
)
class UnregisteredRoutingPolicyRule(Rule):
    """Every routing-policy module must register via ``register_policy``.

    A policy outside the registry is invisible to ``repro list``, the
    topology builders' ``routing=`` knob, and the transport-requirement
    union (``Network.routing_requirements``) — a spraying policy deployed
    by direct import would silently skip the reordering-tolerant receiver
    it depends on.  Each module under ``repro/routing/`` (except
    ``__init__``, ``registry``, ``base``) must carry at least one
    ``@register_policy(...)`` decorator.
    """

    def applies(self, ctx: LintContext) -> bool:
        return ctx.in_package_dirs("routing") and ctx.basename() not in (
            "__init__.py",
            "registry.py",
            "base.py",
        )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if _calls_any(ctx.tree, ("register_policy",)):
            return
        yield Finding(
            path=ctx.rel_path,
            line=1,
            col=0,
            rule_id=self.id,
            message=(
                "routing module registers no policy — decorate the class "
                "with @register_policy(...) so the catalog, topology "
                "builders, and requirement union see it (move pure "
                "helpers out of repro/routing/)"
            ),
        )
