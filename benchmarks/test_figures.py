"""Regenerate every committed paper-figure series and check its claims.

One bench per entry of ``repro.figures.FIGURES``: run the entry once
under pytest-benchmark timing (these are simulations, not
microbenchmarks), write ``benchmarks/results/<series>.txt`` and the
entry's ``<name>_sweep.json`` documents (untracked), then evaluate every
claim.  ``pytest benchmarks/test_figures.py -k <series>`` runs one.
"""

import pytest

from benchharness import RESULTS_DIR, emit
from repro.figures import FIGURES


@pytest.mark.parametrize("entry", FIGURES, ids=[e.series for e in FIGURES])
def test_figure(benchmark, entry):
    results = benchmark.pedantic(
        entry.run, kwargs={"results_dir": RESULTS_DIR}, rounds=1, iterations=1
    )
    emit(entry.series, entry.format(results))
    entry.check(results)
