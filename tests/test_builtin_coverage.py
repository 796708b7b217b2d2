"""Every built-in name earns its place: something that is measured runs it.

The committed figure table (``src/repro/figures.py``), the end-to-end
benchmark's workloads (``benchmarks/e2e/e2e_workloads.py``) and the
``repro perf`` case grid (``src/repro/perf/bench.py``) are what the
repository measures.  A built-in scenario, CC law, topology or routing
policy that none of them names is code no series, claim or benchmark
exercises, so it either gets a figure or goes.  A name counts as reached
when one of its catalog spellings, exactly as written, is a token of a
string constant in those files, docstrings included (split on ``,``,
``=`` and whitespace).  The few built-ins that are reached only
implicitly are listed in :data:`EXEMPT` with the reason, and that list
must stay exact.
"""

import ast
import os
import re

from repro.cc.registry import BUILTIN_CATALOG as CC_CATALOG
from repro.routing.registry import BUILTIN_CATALOG as ROUTING_CATALOG
from repro.scenarios.registry import BUILTIN_CATALOG as SCENARIO_CATALOG
from repro.topology.registry import BUILTIN_CATALOG as TOPOLOGY_CATALOG

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: the files whose string constants name what is measured
MEASURED = (
    "src/repro/figures.py",
    "benchmarks/e2e/e2e_workloads.py",
    "src/repro/perf/bench.py",
)

CATALOGS = {
    "congestion-control algorithm": CC_CATALOG,
    "routing policy": ROUTING_CATALOG,
    "scenario": SCENARIO_CATALOG,
    "topology": TOPOLOGY_CATALOG,
}

#: built-ins that run without being named, canonical name -> why
EXEMPT = {
    "static": "the fixed-window law the unit and conformance tests drive",
    "ecmp": "the default policy, which Switch.receive inlines",
    "parkinglot": "the fabric multi_bottleneck builds",
}


def _tokens():
    """Tokens of every string constant in the measured files."""
    tokens = set()
    for relpath in MEASURED:
        with open(os.path.join(ROOT, relpath)) as handle:
            tree = ast.parse(handle.read(), relpath)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                tokens.update(re.split(r"[,=\s]+", node.value))
    return tokens


def _builtins():
    """(kind, canonical name, spellings) of every catalog entry."""
    return [
        (kind, spellings[0], spellings)
        for kind, catalog in CATALOGS.items()
        for spellings in catalog.values()
    ]


def test_every_builtin_is_named_by_a_figure_or_workload():
    tokens = _tokens()
    unclaimed = [
        f"{kind} {name!r}"
        for kind, name, spellings in _builtins()
        if name not in EXEMPT
        and not tokens.intersection(spellings)
    ]
    assert not unclaimed, (
        "built-ins no figure, claim or benchmark workload names (give each "
        f"a FIGURES entry or delete it): {', '.join(unclaimed)}"
    )


def test_the_exemptions_are_exact():
    tokens = _tokens()
    registered = {name: spellings for _kind, name, spellings in _builtins()}
    unknown = sorted(set(EXEMPT) - set(registered))
    assert not unknown, f"exempt but not a built-in: {', '.join(unknown)}"
    reached = sorted(
        name for name in EXEMPT
        if tokens.intersection(registered[name])
    )
    assert not reached, (
        f"exempt but named by what is measured, drop the exemption: "
        f"{', '.join(reached)}"
    )
