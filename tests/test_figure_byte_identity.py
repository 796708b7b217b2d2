"""Fast byte-identity guardrail over committed figure series.

The files under ``benchmarks/results/`` are the repo's regression
record: every engine or fluid-model change must leave them byte-exact
(the full check is the benchmark suite itself).  This tier-1 test
re-runs three cheap cells — two fluid-model figures and one real
simulator cell on the default (heap, unbatched) engine path — and
compares the regenerated text against the committed bytes, so a drift
in either stack fails in seconds instead of at the next bench run.

Each cell takes its run and its formatter from the figure table
(``repro.figures.FIGURES``) and never calls the bench harness's ``emit``
(which would overwrite the committed files being compared against).

Every cell runs twice — once on the reference heap engine and once on
the compiled event core — because the committed bytes are the parity
oracle (docs/INVARIANTS.md#compiled-parity): if the C drain reordered a
single event, the regenerated series would drift from the committed
text.  The compiled cells skip visibly when the extension is unbuilt.
"""

from pathlib import Path

import pytest

from compiled_support import require_compiled
from repro.figures import select
from repro.sim.engine import engine_defaults

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


@pytest.fixture(autouse=True, params=["heap", "compiled"])
def _engine(request):
    require_compiled(request.param)
    with engine_defaults(scheduler=request.param):
        yield


def committed(name):
    return (RESULTS / f"{name}.txt").read_text()


def regenerated(series, **knobs):
    (entry,) = select(series)
    return entry.text(entry.run(**knobs))


def test_fig2a_series_byte_identical():
    name = "fig2a_md_vs_buildup_rate"
    assert regenerated(name) == committed(name)


def test_fig2c_series_byte_identical():
    name = "fig2c_three_cases"
    assert regenerated(name) == committed(name)


def test_motivation_standing_queue_powertcp_row_byte_identical():
    # The table's PowerTCP cell alone: a 20 ms dumbbell run through the
    # default engine path (transport, switch, port, probes) whose
    # formatted series must be the committed one without the other rows.
    lines = regenerated(
        "motivation_standing_queue", algorithms=["powertcp"]
    ).splitlines()
    text = committed("motivation_standing_queue").splitlines()
    assert lines[:2] == text[:2], f"regenerated row drifted:\n{lines[1]!r}"
    assert lines[2:] == text[5:]  # the prose under the four rows
