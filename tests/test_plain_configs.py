"""Scenario configs are plain data (docs/INVARIANTS.md#plain-data-configs).

A config must survive the trip a manifest or a campaign worker gives it:
``config_to_jsonable`` -> JSON text -> ``Scenario.configure``.  A fabric
is such data too: ``topology_params`` are field overrides on the
scenario's scaled default shape, so a grid can sweep them through forked
campaign workers and get what an inline sweep gets.
"""

import json

import pytest

import repro.scenarios.faulty  # noqa: F401  (registers the test scenario)
from repro.campaign.manifest import manifest_from_dict
from repro.campaign.orchestrator import run_campaign
from repro.scenarios.base import config_to_jsonable
from repro.scenarios.registry import BUILTIN_CATALOG, get_scenario
from repro.scenarios.sweep import run_sweep
from repro.topology.registry import RegisteredTopology

SCENARIOS = sorted(
    {name for names in BUILTIN_CATALOG.values() for name in names} | {"faulty"}
)

#: the scenarios whose fabric is a scaled default plus ``topology_params``
FABRIC_SCENARIOS = ["lb_matrix", "rdcn", "websearch"]


def _through_json(config):
    return json.loads(json.dumps(config_to_jsonable(config)))


@pytest.mark.parametrize("name", SCENARIOS)
def test_config_round_trips_through_json(name):
    scenario = get_scenario(name)
    for overrides in ({}, scenario.tiny_overrides()):
        config = scenario.configure(**overrides)
        assert scenario.configure(**_through_json(config)) == config


@pytest.mark.parametrize("name", FABRIC_SCENARIOS)
def test_topology_params_reach_the_built_network(name, monkeypatch):
    built = []  # hosts of each network built (the run tears it down)
    build = RegisteredTopology.build

    def recording_build(self, sim, params=None, **overrides):
        net = build(self, sim, params, **overrides)
        built.append(net.num_hosts)
        return net

    monkeypatch.setattr(RegisteredTopology, "build", recording_build)
    scenario = get_scenario(name)
    fabric = {"hosts_per_tor": 2}
    config = scenario.configure(
        **scenario.tiny_overrides(), topology_params=fabric
    )
    assert _through_json(config)["topology_params"] == fabric
    scenario.run(config=config)
    # both scaled defaults have 4 ToRs of 4 hosts
    assert built == [4 * 2]


@pytest.mark.parametrize("name", FABRIC_SCENARIOS)
def test_an_unknown_topology_param_fails_the_config(name):
    with pytest.raises(ValueError, match="unknown param.*bogus.*valid params"):
        get_scenario(name).configure(topology_params={"bogus": 1})


def test_a_fabric_axis_runs_through_forked_workers_as_inline(tmp_path):
    grid = {"topology_params": [{"hosts_per_tor": 2}, {"hosts_per_tor": 3}]}
    base = dict(get_scenario("websearch").tiny_overrides(), max_flows=6)
    manifest = manifest_from_dict({
        "scenario": "websearch", "grid": grid, "base": base, "workers": 2,
        "journal_fsync": False, "out": str(tmp_path / "fabric.json"),
    })
    report = run_campaign(manifest, quiet=True)
    assert report.complete and report.executed == 2

    with open(manifest.out_path()) as handle:
        forked = {
            json.dumps(cell["params"], sort_keys=True): cell
            for cell in json.load(handle)["cells"]
        }
    inline = run_sweep("websearch", grid, base=base).cells
    assert len(forked) == len(inline) == 2
    for cell in inline:
        other = forked[json.dumps(cell.params, sort_keys=True)]
        assert other["metrics"] == cell.result.metrics
        assert other["series"] == cell.result.series
