"""The figure table (``repro.figures``) against the committed series.

No simulation runs here: the table must name every committed file
exactly once, its claim ids must be unique, the fluid-model entries must
print the committed bytes through ``repro fig``, and a claim that does
not hold must say which claim and where the paper makes it.
"""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import FIGURE_ALIASES, main
from repro.figures import FIGURES, ClaimFailed, select

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


def test_every_committed_series_has_exactly_one_entry():
    committed = sorted(path.stem for path in RESULTS.glob("*.txt"))
    assert sorted(entry.series for entry in FIGURES) == committed
    assert len(committed) == 26


def test_claim_ids_are_unique():
    ids = [claim.id for entry in FIGURES for claim in entry.claims]
    assert len(ids) == len(set(ids)) == 61


def test_every_alias_selects_entries():
    for alias in FIGURE_ALIASES:
        assert select(alias)


@pytest.mark.parametrize(
    "series", ["fig2a_md_vs_buildup_rate", "fig2c_three_cases"]
)
def test_repro_fig_prints_the_committed_bytes(series, capsys):
    assert main(["fig", series]) == 0
    assert capsys.readouterr().out == (RESULTS / f"{series}.txt").read_text()


def test_failing_claim_names_its_id_and_locus():
    (entry,) = select("fig4_top_10to1")
    cell = SimpleNamespace(
        mean_late_qlen=lambda: 50_000.0, burst_utilization=lambda: 0.5
    )
    with pytest.raises(ClaimFailed) as failure:
        entry.check({"powertcp": cell, "hpcc": cell, "timely": cell})
    message = str(failure.value)
    assert "claim fig4-top.powertcp-settled-queue (fig. 4 top)" in message
    assert "claim fig4-top.powertcp-burst-util (fig. 4 top)" in message
    # powertcp == hpcc and timely == powertcp: those two hold / fail as written
    assert "fig4-top.hpcc-loses-throughput" not in message
    assert "claim fig4-top.timely-uncontrolled-queue (fig. 4 top)" in message


def test_cli_import_loads_neither_the_table_nor_the_fluid_model():
    # Only `repro fig` / `repro list` import them; every cold run, sweep
    # and campaign pays for what `import repro.cli` loads.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    probe = ("import sys, repro.cli; print(sorted(m for m in sys.modules "
             "if m.startswith(('repro.fluid', 'repro.figures'))))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
