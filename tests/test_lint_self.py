"""Tier-1 self-lint: the shipped tree must pass its own invariant linter.

Runs the framework in-process over the default targets (``src/``,
``examples/``, ``benchmarks/``) so any contract regression — an
unseeded RNG, a retained AckFeedback, a float creeping into a
nanosecond timestamp — fails ``pytest -x -q`` immediately.
"""

from repro.lint import run_paths
from repro.lint.registry import RULES, load_builtin_rules


def test_rule_battery_is_complete():
    load_builtin_rules()
    assert len(RULES) >= 6
    categories = {entry.category for entry in RULES.values()}
    # at least the contract families named in docs/INVARIANTS.md
    for category in ("determinism", "pool-lifetime", "registry",
                     "integer-time", "scheduler-api", "env-isolation",
                     "robustness"):
        assert category in categories, category


def test_tree_lints_clean():
    report = run_paths()
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.ok, f"repro lint found violations:\n{rendered}"
    assert report.files_checked > 100


def test_suppressions_in_tree_are_all_consumed():
    # run_paths' full battery flags stale suppressions as findings, so a
    # clean report also proves every `# lint: disable=` is still needed.
    report = run_paths()
    assert not any(f.rule_id == "unused-suppression" for f in report.findings)
    # scenarios/base.py carries the two documented wall-clock waivers
    assert report.suppressed == 2
