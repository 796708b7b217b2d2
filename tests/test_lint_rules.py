"""Per-rule tests: paired good/bad fixtures with exact ids and lines.

The fixtures live under ``tests/lint_fixtures/`` in directories that
mimic the package layout (``repro/sim/...``), so these tests exercise
each rule's path scoping as well as its AST pattern.
"""

import os

import pytest

from repro.lint import run_paths
from repro.lint.framework import lint_file
from repro.lint.registry import RULES, load_builtin_rules

FIXTURES = os.path.join(os.path.dirname(__file__), "lint_fixtures")


def _lint(*rel_parts, select=None):
    path = os.path.join(FIXTURES, *rel_parts)
    assert os.path.exists(path), path
    return run_paths([path], select=select)


#: bad fixture -> exact expected (rule-id, line) pairs
BAD_EXPECTATIONS = {
    ("repro", "sim", "bad_determinism.py"): [
        ("unseeded-rng", 9),
        ("unseeded-rng", 10),
        ("wall-clock", 11),
        ("wall-clock", 12),
        ("unordered-iteration", 14),
        ("unordered-iteration", 16),
    ],
    ("repro", "cc", "bad_feedback_retention.py"): [
        ("feedback-retention", 10),
        ("feedback-retention", 11),
        ("feedback-retention", 13),
        ("feedback-retention", 15),
        ("feedback-retention", 16),
    ],
    ("repro", "cc", "bad_unregistered.py"): [
        ("unregistered-cc", 1),
    ],
    ("repro", "routing", "bad_unregistered.py"): [
        ("unregistered-routing-policy", 1),
        ("unordered-iteration", 10),
    ],
    ("repro", "experiments", "bad_topology_import.py"): [
        ("concrete-topology-import", 3),
        ("concrete-topology-import", 4),
        ("concrete-topology-import", 5),
    ],
    ("repro", "sim", "bad_float_time.py"): [
        ("float-ns-time", 5),
        ("float-ns-time", 6),
        ("float-ns-time", 7),
        ("float-ns-time", 8),
    ],
    ("repro", "sim", "bad_cancel.py"): [
        ("cancel-fast-path", 6),
        ("cancel-fast-path", 7),
    ],
    ("repro", "sim", "bad_ckernel_import.py"): [
        ("compiled-core-import", 3),
        ("compiled-core-import", 4),
        ("compiled-core-import", 5),
        ("compiled-core-import", 6),
    ],
    ("repro", "fluid", "bad_numpy_import.py"): [
        ("module-scope-heavy-import", 3),
        ("module-scope-heavy-import", 4),
        ("module-scope-heavy-import", 7),
        ("module-scope-heavy-import", 13),
    ],
    ("repro", "scenarios", "bad_pool_import.py"): [
        ("module-scope-heavy-import", 3),
        ("module-scope-heavy-import", 4),
        ("module-scope-heavy-import", 5),
        ("module-scope-heavy-import", 6),
        ("module-scope-heavy-import", 7),
        ("module-scope-heavy-import", 10),
    ],
    ("repro", "sim", "bad_env.py"): [
        ("env-read", 8),
        ("env-read", 9),
        ("env-read", 10),
    ],
    ("repro", "sim", "bad_unused_suppression.py"): [
        ("unused-suppression", 3),
        ("unused-suppression", 4),
    ],
    ("repro", "campaign", "bad_subprocess_timeout.py"): [
        ("subprocess-timeout", 7),
        ("subprocess-timeout", 8),
        ("subprocess-timeout", 9),
        ("subprocess-timeout", 10),
        ("subprocess-timeout", 11),
        ("subprocess-timeout", 12),
    ],
    ("repro", "campaign", "bad_waitpid.py"): [
        ("subprocess-timeout", 8),
        ("subprocess-timeout", 9),
        ("subprocess-timeout", 10),
        ("subprocess-timeout", 11),
    ],
}

GOOD_FIXTURES = [
    ("repro", "sim", "_compiled.py"),
    ("repro", "sim", "good_determinism.py"),
    ("repro", "cc", "good_feedback_retention.py"),
    ("repro", "routing", "good_registered.py"),
    ("repro", "experiments", "good_topology_import.py"),
    ("repro", "sim", "good_float_time.py"),
    ("repro", "sim", "good_cancel.py"),
    ("examples", "good_env.py"),
    ("repro", "fluid", "good_numpy_import.py"),
    ("repro", "scenarios", "good_pool_import.py"),
    ("repro", "campaign", "good_subprocess_timeout.py"),
    ("repro", "campaign", "good_waitpid.py"),
]


@pytest.mark.parametrize(
    "rel_parts", sorted(BAD_EXPECTATIONS), ids=lambda p: p[-1]
)
def test_bad_fixture_exact_findings(rel_parts):
    report = _lint(*rel_parts)
    got = [(f.rule_id, f.line) for f in report.findings]
    assert sorted(got) == sorted(BAD_EXPECTATIONS[rel_parts])
    assert not report.ok


@pytest.mark.parametrize("rel_parts", GOOD_FIXTURES, ids=lambda p: p[-1])
def test_good_fixture_clean(rel_parts):
    report = _lint(*rel_parts)
    assert report.findings == []
    assert report.ok


def test_every_rule_has_a_failing_fixture():
    """Each registered rule (bar the meta check's host) detects its target."""
    load_builtin_rules()
    covered = {rule_id for pairs in BAD_EXPECTATIONS.values() for rule_id, _ in pairs}
    assert set(RULES) == covered


def test_suppression_consumed_and_counted():
    report = _lint("repro", "sim", "suppressed_ok.py")
    assert report.findings == []
    assert report.suppressed == 1


def test_select_narrows_and_skips_unused_check():
    # Only the wall-clock rule runs: the determinism fixture's other
    # findings disappear, and stale suppressions are not reported.
    report = _lint("repro", "sim", "bad_determinism.py", select=["wall-clock"])
    assert [(f.rule_id, f.line) for f in report.findings] == [
        ("wall-clock", 11),
        ("wall-clock", 12),
    ]
    stale = _lint(
        "repro", "sim", "bad_unused_suppression.py", select=["wall-clock"]
    )
    assert stale.findings == []


def test_scoping_silences_out_of_package_paths(tmp_path):
    """The same source is clean outside the scoped package dirs."""
    src = os.path.join(
        FIXTURES, "repro", "sim", "bad_determinism.py"
    )
    with open(src) as fh:
        body = fh.read()
    # under analysis/ the unordered-iteration rule must not fire (its
    # scope is sim/cc/transport/topology), while unseeded-rng still does
    target = tmp_path / "repro" / "analysis" / "moved.py"
    target.parent.mkdir(parents=True)
    target.write_text(body)
    report = run_paths([str(target)])
    rules = {f.rule_id for f in report.findings}
    assert "unordered-iteration" not in rules
    assert "unseeded-rng" in rules


def test_parse_error_is_a_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    report = run_paths([str(bad)])
    assert len(report.findings) == 1
    assert report.findings[0].rule_id == "parse-error"
    assert not report.ok


def test_lint_file_reports_repo_relative_paths():
    path = os.path.join(FIXTURES, "repro", "sim", "bad_cancel.py")
    load_builtin_rules()
    rules = [entry.make() for entry in RULES.values()]
    findings, _ = lint_file(path, rules)
    assert all(
        f.path == "tests/lint_fixtures/repro/sim/bad_cancel.py"
        for f in findings
    )
