"""The ``repro lint`` subcommand: text/JSON reports and the rule catalog.

Exit status: 0 on a clean tree, 1 when findings survive suppressions —
CI runs ``python -m repro lint --json`` as a blocking job and tier-1
runs the same battery in-process (``tests/test_lint_self.py``).
Every ``repro`` command builds this parser, so this module imports the
framework and the rule registry only inside the functions that run them.
"""

from __future__ import annotations

import json
from typing import List

from repro.lint import DEFAULT_TARGET_DIRS


def add_lint_parser(sub) -> None:
    """Register the ``lint`` subparser on an argparse subparsers object."""
    lint_p = sub.add_parser(
        "lint",
        help="statically check the simulator's determinism/pool/registry "
        "contracts (AST-based; see docs/INVARIANTS.md)",
    )
    lint_p.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: "
        + " ".join(f"{d}/" for d in DEFAULT_TARGET_DIRS)
        + " under the repo root)",
    )
    lint_p.add_argument(
        "--json", action="store_true", help="machine-readable report on stdout"
    )
    lint_p.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rule catalog and exit",
    )
    lint_p.add_argument(
        "--select",
        metavar="RULE[,RULE...]",
        help="run only these rule ids (disables the unused-suppression check)",
    )


def _catalog_lines() -> List[str]:
    from repro.lint import registry as rule_registry

    lines = ["lint rules (suppress per line with '# lint: disable=<id>'):"]
    by_category = {}
    for rule_id in rule_registry.rule_ids():
        entry = rule_registry.RULES[rule_id]
        by_category.setdefault(entry.category, []).append(entry)
    for category in sorted(by_category):
        lines.append(f"{category}:")
        for entry in by_category[category]:
            lines.append(f"  {entry.id:26s} {entry.description}")
            if entry.contract:
                lines.append(f"  {'':26s}   contract: {entry.contract}")
    return lines


def cmd_lint(args) -> int:
    """Run the linter; returns the process exit status."""
    if args.list_rules:
        for line in _catalog_lines():
            print(line)
        return 0
    from repro.lint.framework import run_paths

    select = args.select.split(",") if args.select else None
    report = run_paths(args.paths or None, select=select)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=1, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.render())
        summary = (
            f"{len(report.findings)} finding(s) in {report.files_checked} "
            f"file(s) checked ({report.suppressed} suppressed)"
        )
        print(summary)
    return 0 if report.ok else 1
