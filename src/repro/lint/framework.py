"""Core linting machinery: contexts, suppressions, and the file runner.

A :class:`Rule` inspects one parsed file through a :class:`LintContext`
(AST + parent links + an import-alias map + repo-relative path) and
yields :class:`Finding` records.  The runner applies per-line
``# lint: disable=<rule-id>[,<rule-id>...]`` suppressions (collected with
:mod:`tokenize`, so ``#`` inside strings never reads as a comment) and
reports suppressions that matched nothing as ``unused-suppression``
findings — stale escapes rot into silent blind spots otherwise.

Path scoping: rules see both the repo-relative path (``rel_path``) and
the package-relative path (``pkg_path``, the part after the last
``repro/`` component, e.g. ``cc/hpcc.py``), so "only in ``sim/``" and
"not under ``benchmarks/``" scopes are one-line predicates.  Test
fixtures exercise the scoping by living under directories that mimic the
package layout (``tests/lint_fixtures/repro/sim/...``).
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.lint import registry as rule_registry


def _repo_root() -> str:
    """Nearest ancestor that looks like this checkout (see scenarios.sweep)."""
    node = os.path.dirname(os.path.abspath(__file__))
    while True:
        if os.path.isdir(os.path.join(node, "benchmarks")) and os.path.isdir(
            os.path.join(node, "src", "repro")
        ):
            return node
        parent = os.path.dirname(node)
        if parent == node:
            return os.getcwd()
        node = parent


REPO_ROOT = _repo_root()

#: directories linted when the CLI is given no paths.  ``tests/`` is
#: deliberately absent: the lint fixtures contain intentional violations.
DEFAULT_TARGET_DIRS = ("src", "examples", "benchmarks")


@dataclass(frozen=True)
class Finding:
    """One rule violation (or meta finding) at a source location."""

    path: str  # repo-relative posix path
    line: int  # 1-based
    col: int  # 0-based
    rule_id: str
    message: str

    @property
    def sort_key(self) -> Tuple:
        return (self.path, self.line, self.col, self.rule_id, self.message)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def to_json_dict(self) -> Dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule_id": self.rule_id,
            "message": self.message,
        }


class ImportMap:
    """Local name -> dotted module/attribute map for one file.

    ``import numpy.random as npr`` maps ``npr -> numpy.random``;
    ``from time import perf_counter as pc`` maps
    ``pc -> time.perf_counter``.  Relative imports keep their module
    text with the leading dots stripped (``from ..topology import x`` ->
    ``topology.x``) — good enough for prefix matching.
    """

    def __init__(self, tree: ast.AST):
        names: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        names[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        names[head] = head
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                for alias in node.names:
                    local = alias.asname or alias.name
                    dotted = f"{module}.{alias.name}" if module else alias.name
                    names[local] = dotted
        self.names = names

    def dotted(self, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain to a dotted name.

        Uses the import map for the base name when available, else the
        literal text — ``time.time()`` resolves identically whether
        ``time`` was imported in this file or shadows a local (rules
        accept the rare false positive; suppressions exist).
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.names.get(node.id, node.id)
        parts.append(base)
        return ".".join(reversed(parts))


class LintContext:
    """Everything one rule needs to inspect one parsed file."""

    def __init__(self, abs_path: str, rel_path: str, source: str, tree: ast.AST):
        self.abs_path = abs_path
        #: repo-relative posix path (as printed in findings)
        self.rel_path = rel_path
        self.source = source
        self.tree = tree
        self.imports = ImportMap(tree)
        #: child AST node -> parent (for "is this Name an attribute base?")
        self.parents: Dict[ast.AST, ast.AST] = {
            child: parent
            for parent in ast.walk(tree)
            for child in ast.iter_child_nodes(parent)
        }
        parts = rel_path.split("/")
        #: path inside the ``repro`` package (``cc/hpcc.py``) or None
        self.pkg_path: Optional[str] = None
        if "repro" in parts:
            idx = len(parts) - 1 - parts[::-1].index("repro")
            tail = parts[idx + 1:]
            if tail:
                self.pkg_path = "/".join(tail)

    # -- scope predicates ------------------------------------------------
    def in_package_dirs(self, *dirs: str) -> bool:
        """True when the file lives under ``repro/<dir>/`` for any dir."""
        if self.pkg_path is None:
            return False
        return self.pkg_path.split("/")[0] in dirs

    def under_dir(self, name: str) -> bool:
        """True when any component of the repo-relative path is ``name``."""
        return name in self.rel_path.split("/")[:-1]

    def basename(self) -> str:
        return self.rel_path.rsplit("/", 1)[-1]


class Rule:
    """Base class for lint rules; subclasses register via register_rule."""

    id: str = ""
    category: str = ""
    contract: str = ""

    def applies(self, ctx: LintContext) -> bool:
        """Path scope; default: every linted file."""
        return True

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: LintContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.id,
            message=message,
        )


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
_SUPPRESS_RE = re.compile(r"lint:\s*disable=([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)")


def parse_suppressions(source: str) -> Dict[int, List[str]]:
    """line -> rule ids disabled on that line (source order preserved)."""
    out: Dict[int, List[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match:
                ids = [part.strip() for part in match.group(1).split(",")]
                out.setdefault(tok.start[0], []).extend(i for i in ids if i)
    except tokenize.TokenError:  # unterminated string etc.: ast will fail too
        pass
    return out


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding]
    files_checked: int
    suppressed: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_json_dict(self) -> Dict:
        return {
            "version": 1,
            "ok": self.ok,
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "findings": [f.to_json_dict() for f in self.findings],
        }


def default_targets(repo_root: str = REPO_ROOT) -> List[str]:
    """The directories ``repro lint`` checks when given no paths."""
    return [
        os.path.join(repo_root, d)
        for d in DEFAULT_TARGET_DIRS
        if os.path.isdir(os.path.join(repo_root, d))
    ]


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into .py files (sorted, deduplicated)."""
    seen = set()
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [d for d in dirnames if d != "__pycache__"]
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        full = os.path.join(dirpath, name)
                        if full not in seen:
                            seen.add(full)
                            yield full
        elif path not in seen:
            seen.add(path)
            yield path


def _rel_path(path: str, repo_root: str) -> str:
    abs_path = os.path.abspath(path)
    root = os.path.abspath(repo_root)
    if abs_path.startswith(root + os.sep):
        rel = abs_path[len(root) + 1:]
    else:
        rel = path
    return rel.replace(os.sep, "/")


def lint_file(
    path: str,
    rules: Sequence[Rule],
    *,
    repo_root: str = REPO_ROOT,
    check_unused: bool = True,
) -> Tuple[List[Finding], int]:
    """Lint one file; returns (findings, suppressed_count)."""
    rel = _rel_path(path, repo_root)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        tree = ast.parse(source, filename=path)
    except (OSError, SyntaxError, ValueError) as exc:
        return (
            [
                Finding(
                    path=rel,
                    line=getattr(exc, "lineno", None) or 1,
                    col=0,
                    rule_id=rule_registry.PARSE_ERROR,
                    message=f"cannot lint file: {exc}",
                )
            ],
            0,
        )
    ctx = LintContext(path, rel, source, tree)
    raw: List[Finding] = []
    for rule in rules:
        if rule.applies(ctx):
            raw.extend(rule.check(ctx))
    suppressions = parse_suppressions(source)
    used = set()
    kept: List[Finding] = []
    suppressed = 0
    for f in sorted(set(raw), key=lambda f: f.sort_key):
        if f.rule_id in suppressions.get(f.line, ()):
            used.add((f.line, f.rule_id))
            suppressed += 1
        else:
            kept.append(f)
    if check_unused:
        known = set(rule_registry.RULES)
        for line in sorted(suppressions):
            for rule_id in suppressions[line]:
                if (line, rule_id) in used:
                    continue
                if rule_id not in known:
                    msg = (
                        f"suppression names unknown rule {rule_id!r} "
                        "(see repro lint --list-rules)"
                    )
                else:
                    msg = (
                        f"suppression for {rule_id!r} matches no finding "
                        "on this line — remove the stale escape"
                    )
                kept.append(
                    Finding(
                        path=rel,
                        line=line,
                        col=0,
                        rule_id=rule_registry.UNUSED_SUPPRESSION,
                        message=msg,
                    )
                )
    return kept, suppressed


def run_paths(
    paths: Optional[Sequence[str]] = None,
    *,
    select: Optional[Iterable[str]] = None,
    repo_root: str = REPO_ROOT,
) -> LintReport:
    """Lint files/directories with the registered battery.

    ``select`` narrows to a subset of rule ids (unknown ids raise
    KeyError).  The unused-suppression check only runs with the full
    battery — under ``select``, a suppression for an unselected rule
    would read as stale when it is not.
    """
    selected = select if select is not None else rule_registry.rule_ids()
    rules = [rule_registry.get_rule(rule_id).make() for rule_id in selected]
    paths = list(paths) if paths is not None else []
    if not paths:
        paths = default_targets(repo_root)
    findings: List[Finding] = []
    files = 0
    suppressed = 0
    for path in iter_python_files(paths):
        files += 1
        file_findings, file_suppressed = lint_file(
            path, rules, repo_root=repo_root, check_unused=select is None
        )
        findings.extend(file_findings)
        suppressed += file_suppressed
    findings.sort(key=lambda f: f.sort_key)
    return LintReport(findings=findings, files_checked=files, suppressed=suppressed)
