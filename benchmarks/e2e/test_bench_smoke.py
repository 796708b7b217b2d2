"""Tier-1 smoke test of the end-to-end benchmark (``bench.py``).

Runs every workload once at its sub-second ``--tiny`` size and checks
the *shape* of what comes out: every workload and metric BENCHMARK.json
names is reported with its unit, no operation failed, the traced layers
account for the engine's run time, and each layer shows up on the
workload chosen to exercise it.  There are no timing assertions — the
tiny sizes measure nothing.
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCH = os.path.join(HERE, "bench.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: self times of everything wrapped inside Simulator.run, plus what is left
IN_RUN_PARTS = [
    "sim.engine.residual_s",
    "sim.port.enqueue_self_s",
    "sim.circuit.enqueue_self_s",
    "sim.switch.receive_self_s",
    "routing.select_self_s",
    "sim.host.self_s",
    "transport.sender.on_packet_self_s",
    "transport.receiver.on_packet_self_s",
    "cc.on_ack_self_s",
]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, BENCH, *args],
        cwd=cwd, capture_output=True, text=True, timeout=240,
    )


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "tiny.json"
    proc = _bench("--tiny", "--repeats", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out) as handle:
        return proc.stdout, json.load(handle), str(out)


def test_benchmark_json_meets_the_contract(spec):
    assert sorted(spec) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    )
    assert spec["paths"] == ["benchmarks/e2e"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = []
    for workload in spec["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in spec["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
        names.append(metric["name"])
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_workload_and_metric_is_reported_with_its_unit(spec, tiny_run):
    stdout, doc, _path = tiny_run
    assert list(doc["workloads"]) == [w["name"] for w in spec["workloads"]]
    for name, workload in doc["workloads"].items():
        assert name in stdout
        for kind in ("end_to_end", "per_layer"):
            for metric in spec[kind]:
                entry = workload[kind][metric["name"]]
                assert entry["unit"] == metric["unit"], (name, metric["name"])
                assert isinstance(entry["value"], (int, float))
                assert metric["name"] in stdout
        for metric in spec["end_to_end"]:
            assert workload["end_to_end"][metric["name"]]["value"] > 0


def test_no_operation_failed(tiny_run):
    _stdout, doc, _path = tiny_run
    for name, workload in doc["workloads"].items():
        assert workload["ops_attempted"] > 0, name
        assert workload["ops_failed"] == 0, (name, workload["errors"])
        assert workload["errors"] == [], name
        assert re.fullmatch(r"[0-9a-f]{64}", workload["sim_fingerprint"]), name
        assert workload["spans"], name


def test_layer_self_times_account_for_the_engine_run(tiny_run):
    _stdout, doc, _path = tiny_run
    for name, workload in doc["workloads"].items():
        layers = workload["per_layer"]
        run_s = layers["sim.engine.run_s"]["value"]
        parts = sum(layers[part]["value"] for part in IN_RUN_PARTS)
        assert run_s > 0, name
        assert abs(parts - run_s) <= 0.02 * run_s, (name, parts, run_s)
        # the tracer and the program agree on how much was simulated
        assert layers["sim.engine.events"]["value"] > 0, name


def test_each_layer_shows_on_the_workload_chosen_for_it(tiny_run):
    _stdout, doc, _path = tiny_run

    def layer(workload, metric):
        return doc["workloads"][workload]["per_layer"][metric]["value"]

    # generic Switch + RoutingPolicy.select: spray only
    assert layer("permutation_spray", "routing.select_calls") > 0
    assert layer("websearch_fattree", "routing.select_calls") == 0
    assert layer("rdcn_circuit", "routing.select_calls") == 0
    assert layer("permutation_spray", "transport.reorder_events") > 0
    # the general (VOQ) port body: rdcn only
    assert layer("rdcn_circuit", "sim.circuit.enqueue_self_s") > 0
    assert layer("websearch_fattree", "sim.circuit.enqueue_self_s") == 0
    # the loss/RTO path and all the CC laws: the incast grid only
    assert layer("incast_cc_grid", "sim.port.drops") > 0
    assert layer("websearch_fattree", "sim.port.drops") == 0
    for law in ("powertcp", "theta-powertcp", "hpcc", "timely", "dcqcn"):
        assert layer("incast_cc_grid", f"cc.on_ack_self_s.{law}") > 0, law
    assert layer("incast_cc_grid", "cc.homa.on_packet_self_s") > 0
    # the two executors
    assert layer("sweep_grid", "scenarios.sweep.cells") == 8
    assert layer("sweep_grid", "campaign.run_s") == 0
    assert layer("campaign_grid", "campaign.cells_executed") == 8
    assert layer("campaign_grid", "campaign.journal_append_us") > 0
    assert layer("campaign_grid", "scenarios.sweep.run_s") == 0


def test_sweep_and_campaign_agree_cell_for_cell(tiny_run):
    _stdout, doc, _path = tiny_run
    workloads = doc["workloads"]
    assert (
        workloads["sweep_grid"]["sim_fingerprint"]
        == workloads["campaign_grid"]["sim_fingerprint"]
    )


def test_compare_passes_identical_results_and_fails_a_regression(tiny_run, tmp_path):
    _stdout, doc, path = tiny_run
    same = _bench("--compare", path, path)
    assert same.returncode == 0, same.stdout + same.stderr
    assert "PASS" in same.stdout and "FAIL" not in same.stdout

    slower = copy.deepcopy(doc)
    entry = slower["workloads"]["rdcn_circuit"]["end_to_end"]["wall_s"]
    for key in ("value", "min", "q1", "q3"):
        entry[key] *= 2
    entry["samples"] = [2 * sample for sample in entry["samples"]]
    slower_path = tmp_path / "slower.json"
    slower_path.write_text(json.dumps(slower))
    worse = _bench("--compare", path, str(slower_path))
    assert worse.returncode != 0
    assert re.search(r"rdcn_circuit\s+wall_s.*FAIL", worse.stdout)
    # the other direction is an improvement, not a regression
    better = _bench("--compare", str(slower_path), path)
    assert better.returncode == 0, better.stdout


def test_refuses_to_report_without_the_program(tmp_path):
    """In a directory holding only the benchmark, there is nothing to
    measure: non-zero exit and no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", "--workload",
         "websearch_fattree", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
