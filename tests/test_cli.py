"""Tests for the command line: figures, scenarios, sweeps, campaigns."""

from pathlib import Path

import pytest

from repro.cli import FIGURE_ALIASES, build_parser, main

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


def committed(series):
    return (RESULTS / f"{series}.txt").read_text()


def test_all_figures_registered():
    assert FIGURE_ALIASES == ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7g",
                              "fig8", "fig9", "fig10", "fig11")
    for name in FIGURE_ALIASES:
        assert build_parser().parse_args([name]).figure == name


def test_list_prints_catalog(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig4" in out and "fig8" in out
    # every figure id with its series and paper locus
    assert "fig4       fig4_top_10to1" in out and "fig. 4 top" in out
    assert "motivation_multi_bottleneck     §3.5" in out


def test_parser_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig99"])


def test_unknown_figure_exits_with_the_catalog_line():
    with pytest.raises(SystemExit) as figure_exit:
        main(["fig", "fig99"])
    with pytest.raises(SystemExit) as scenario_exit:
        main(["run", "nosuch"])
    figure_msg, scenario_msg = str(figure_exit.value), str(scenario_exit.value)
    assert figure_msg.startswith("unknown figure: 'fig99' (registered: ")
    assert scenario_msg.startswith("unknown scenario: 'nosuch' (registered: ")
    assert "fig4_top_10to1" in figure_msg and "\n" not in figure_msg


def test_fig2_runs(capsys):
    assert main(["fig2"]) == 0
    out = capsys.readouterr().out
    for series in ("fig2a_md_vs_buildup_rate", "fig2b_md_vs_queue_length",
                   "fig2c_three_cases"):
        assert committed(series) in out
    assert "rtt-gradient" in out


def test_fig3_runs(capsys):
    assert main(["fig3"]) == 0
    assert capsys.readouterr().out == committed("fig3_phase_portraits")


def test_fig4_with_algorithm_filter(capsys):
    assert main(["fig4", "--algorithms", "powertcp",
                 "--set", "duration_ns=2000000"]) == 0
    out = capsys.readouterr().out
    assert "powertcp" in out
    assert "hpcc" not in out


def test_fig_rejects_knobs_on_a_fluid_series():
    with pytest.raises(SystemExit, match="not backed by a scenario"):
        main(["fig", "fig3_phase_portraits", "--set", "beta=1"])


def test_list_prints_scenarios_and_fields(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "websearch" in out and "incast" in out
    assert "fields:" in out


def test_list_prints_every_scenario_and_cc_name(capsys):
    from repro.cc.registry import algorithm_names
    from repro.scenarios import scenario_names

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out
    for name in algorithm_names():
        assert name in out
    assert "aliases: powertcp-int" in out


def test_run_subcommand_prints_metrics(capsys):
    assert main(["run", "incast", "--tiny", "--set", "fanout=3"]) == 0
    out = capsys.readouterr().out
    assert "scenario=incast" in out
    assert "burst_utilization" in out
    assert "events_processed" in out


def test_run_subcommand_json_output(capsys):
    import json

    assert main(["run", "fairness", "--tiny", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"] == "fairness"
    assert "metrics" in doc and "provenance" in doc


def test_run_rejects_unknown_override():
    with pytest.raises(SystemExit, match="bogus_knob"):
        main(["run", "incast", "--tiny", "--set", "bogus_knob=1"])


def test_sweep_rejects_unknown_axis():
    with pytest.raises(SystemExit, match="bogus_axis"):
        main(["sweep", "incast", "--tiny", "--grid", "bogus_axis=1,2"])


def test_sweep_subcommand_writes_json(tmp_path, capsys):
    import json

    out_path = tmp_path / "sweep.json"
    assert main([
        "sweep", "incast", "--tiny", "--algorithms", "powertcp",
        "--grid", "fanout=2,3", "--out", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "fanout=2" in out and "fanout=3" in out
    doc = json.loads(out_path.read_text())
    assert len(doc["cells"]) == 2


def test_sweep_requires_an_axis():
    with pytest.raises(SystemExit):
        main(["sweep", "incast"])


def test_sweep_incremental_reuse_and_force(tmp_path, capsys):
    out_path = str(tmp_path / "sweep.json")
    args = ["sweep", "incast", "--tiny", "--grid", "fanout=2",
            "--out", out_path]
    assert main(args) == 0
    assert "reused" not in capsys.readouterr().out
    # Second run hits the cache; --force re-simulates.
    assert main(args) == 0
    assert "reused 1 cached" in capsys.readouterr().out
    assert main(args + ["--force"]) == 0
    assert "reused" not in capsys.readouterr().out


def test_sweep_force_keeps_unrelated_cached_cells(tmp_path, capsys):
    import json

    out_path = str(tmp_path / "sweep.json")
    wide = ["sweep", "incast", "--tiny", "--grid", "fanout=2,3",
            "--out", out_path]
    assert main(wide) == 0
    # --force on a narrower grid refreshes its cells but must not purge
    # the fanout=3 result persisted by the wider sweep.
    narrow = ["sweep", "incast", "--tiny", "--grid", "fanout=2",
              "--out", out_path, "--force"]
    assert main(narrow) == 0
    capsys.readouterr()
    doc = json.loads(open(out_path).read())
    assert sorted(c["params"]["fanout"] for c in doc["cells"]) == [2, 3]


def test_forced_sweep_rerun_reproduces_metrics(tmp_path, capsys):
    import json

    out_path = tmp_path / "fairness.json"
    args = [
        "sweep", "fairness", "--tiny",
        "--algorithms", "powertcp,dcqcn", "--out", str(out_path),
    ]
    assert main(args) == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["cells"]) == 2
    first = {c["params"]["algorithm"]: c["metrics"] for c in doc["cells"]}
    # Deterministic per-cell results: a re-run reproduces the metrics.
    assert main(args + ["--force"]) == 0
    doc2 = json.loads(out_path.read_text())
    second = {c["params"]["algorithm"]: c["metrics"] for c in doc2["cells"]}
    assert first == second


def test_campaign_zero_workers_is_a_usage_error(tmp_path):
    """``--workers 0`` exits like ``sweep --jobs 0``: one line, no traceback."""
    import json
    import os
    import subprocess
    import sys

    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "scenario": "incast", "grid": {"fanout": [2]},
        "out": str(tmp_path / "out.json"),
    }))
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "campaign", str(manifest), "--workers", "0"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stderr.strip() == "workers must be >= 1"
    assert "Traceback" not in proc.stdout + proc.stderr
    assert not os.path.exists(tmp_path / "out.json")


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_list_into_a_closed_pipe_exits_quietly(unbuffered):
    """``repro list | head -n 1``: a reader that has gone is no error.

    The pipe's read end is closed before the command writes, so its first
    write (a print when unbuffered, the final flush when buffered) fails
    with EPIPE every time.
    """
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"], stdout=write_end,
            stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ""
    assert proc.returncode == 0
