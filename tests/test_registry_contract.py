"""The one registry contract (docs/INVARIANTS.md#registry-only-resolution).

Three layers: the contract every live ``REGISTRY`` honours, a hypothesis
property on a fresh :class:`repro.registry.Registry`, and the CLI-level
consequences (unknown names exit cleanly on every axis; an aliased
scenario spelling never forks the sweep cache).
"""

import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc import registry as cc_registry
from repro.cli import main
from repro.lint import registry as lint_registry
from repro.registry import Registry, UnknownNameError, normalize
from repro.routing import registry as routing_registry
from repro.scenarios import registry as scenario_registry
from repro.scenarios.base import Scenario
from repro.topology import registry as topology_registry


def _other_class(entry):
    return dataclasses.replace(entry, cls=type("Impostor", (), {}))


def _other_builder(entry):
    return dataclasses.replace(entry, builder=lambda sim, params=None: None)


def _other_scenario(entry):
    return type("Impostor", (Scenario,), {"name": entry.name, "config_cls": dict})()


#: id -> (live registry, entry -> a *different* object of the same shape)
LIVE = {
    "cc": (cc_registry.REGISTRY, _other_class),
    "routing": (routing_registry.REGISTRY, _other_class),
    "topology": (topology_registry.REGISTRY, _other_builder),
    "scenario": (scenario_registry.REGISTRY, _other_scenario),
    "lint": (lint_registry.REGISTRY, _other_class),
}


def _variants(name):
    """Case / underscore / space respellings of one registered spelling."""
    out = {name, name.upper(), name.title()}
    for sep in "-_ ":
        out |= {v.replace("-", sep).replace("_", sep) for v in list(out)}
    return out


def _snapshot(registry):
    return dict(registry.entries), dict(registry.aliases)


@pytest.fixture(params=sorted(LIVE))
def live(request):
    registry, impostor = LIVE[request.param]
    registry.load_builtins()
    return registry, impostor


def test_names_are_sorted_and_non_empty(live):
    registry, _ = live
    names = registry.names()
    assert names and names == sorted(names)
    assert set(names) == set(registry.entries)


def test_every_spelling_resolves_to_the_same_entry_object(live):
    registry, _ = live
    assert set(registry.aliases.values()) == set(registry.entries)
    for name, entry in registry.entries.items():
        declared = tuple(getattr(entry, "aliases", ()))
        for spelling in (name,) + declared:
            for variant in _variants(spelling):
                assert registry.get(variant) is entry, (name, variant)


def test_unknown_name_lists_the_whole_catalog(live):
    registry, _ = live
    with pytest.raises(UnknownNameError) as excinfo:
        registry.get("no-such-entry")
    assert isinstance(excinfo.value, KeyError)
    message = str(excinfo.value)
    assert message == excinfo.value.args[0]
    assert f"unknown {registry.kind}: 'no-such-entry'" in message
    for name in registry.names():
        assert name in message
    # Survives the trip back from a --jobs N pool worker.
    clone = pickle.loads(pickle.dumps(excinfo.value))
    assert type(clone) is UnknownNameError and clone.args == excinfo.value.args


def test_collisions_are_rejected_and_leave_the_registry_untouched(live):
    registry, impostor = live
    before = _snapshot(registry)
    for name, entry in before[0].items():
        with pytest.raises(ValueError, match="already registered"):
            registry.add(name, impostor(entry))
        # A fresh name squatting on a taken spelling (any variant of it).
        with pytest.raises(ValueError, match="already maps to"):
            registry.add("fresh-name", impostor(entry), aliases=(name.upper(),))
        with pytest.raises(ValueError, match="already maps to"):
            registry.add(name.upper() + "_", impostor(entry), aliases=(name,))
        assert _snapshot(registry) == before


def test_re_adding_the_identical_object_is_a_no_op(live):
    registry, _ = live
    before = _snapshot(registry)
    for name, entry in before[0].items():
        aliases = getattr(entry, "aliases", ())
        assert registry.add(name, entry, aliases) is entry
    assert _snapshot(registry) == before


# ----------------------------------------------------------------------
# property: any sequence of add() calls keeps the tables consistent
# ----------------------------------------------------------------------
class _Entry:
    def __init__(self, ident):
        self.ident = ident


#: a few spellings that collide under normalisation, a few that do not
_NAMES = st.sampled_from(["a", "A", "a-b", "a_b", "A b", "b", "c", "c-d"])
#: entry pool: 0/1 share one identity, 2 has its own, 3 has none (HOMA)
_IDENTS = [object(), object()]
_POOL = [_Entry(_IDENTS[0]), _Entry(_IDENTS[0]), _Entry(_IDENTS[1]), _Entry(None)]
_CALLS = st.lists(
    st.tuples(_NAMES, st.integers(0, len(_POOL) - 1), st.lists(_NAMES, max_size=3)),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(_CALLS)
def test_any_add_sequence_keeps_entries_and_aliases_consistent(calls):
    registry = Registry("thing", (), lambda entry: entry.ident)
    for name, index, aliases in calls:
        before = _snapshot(registry)
        try:
            assert registry.add(name, _POOL[index], aliases) is _POOL[index]
        except ValueError:
            assert _snapshot(registry) == before  # a rejected call changes nothing
            continue
        assert registry.entries[name] is _POOL[index]
        for spelling in [name] + aliases:
            assert registry.get(spelling.swapcase()) is _POOL[index]
        # Accepted over a taken name only as the idempotent re-import.
        if name in before[0] and before[0][name] is not _POOL[index]:
            assert before[0][name].ident is _POOL[index].ident is not None
        # Aliases only ever point at registered names, every name is its
        # own alias, and no lookup key is claimed by two entries.
        assert set(registry.aliases.values()) == set(registry.entries)
        for canonical in registry.entries:
            assert registry.aliases[normalize(canonical)] == canonical
        for key, owner in before[1].items():
            assert registry.aliases[key] == owner


# ----------------------------------------------------------------------
# CLI: unknown names exit with the one-line catalog on every axis
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "argv, kind",
    [
        (["run", "incats", "--tiny"], "scenario"),
        (["run", "incast", "--tiny", "--algorithm", "bbr"],
         "congestion-control algorithm"),
        (["run", "coexistence", "--tiny", "--set", "topology=nope"], "topology"),
        (["run", "lb_matrix", "--tiny", "--set", "routing=nope"],
         "routing policy"),
        (["sweep", "incast", "--tiny", "--algorithms", "bbr,cubic", "--jobs", "2",
          "--out", "unused.json"], "congestion-control algorithm"),
        (["lint", "--select", "nope"], "lint rule"),
    ],
)
def test_unknown_name_is_a_clean_exit(argv, kind, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the sweep case must not write into the repo
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    message = excinfo.value.code  # a str code is printed and exits 1
    assert isinstance(message, str) and "\n" not in message
    assert message.startswith(f"unknown {kind}: ") and "registered: " in message


def test_campaign_manifest_naming_an_unknown_scenario_is_a_clean_exit(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"scenario": "incats", "grid": {"fanout": [2]}}))
    with pytest.raises(SystemExit) as excinfo:
        main(["campaign", str(manifest)])
    assert excinfo.value.code.startswith("unknown scenario: 'incats'")
    assert "incast" in excinfo.value.code


def test_bare_key_errors_still_propagate(monkeypatch):
    """Only UnknownNameError is a usage error; a KeyError is a bug."""
    def boom(args):
        raise KeyError("not a registry lookup")

    monkeypatch.setattr("repro.cli.cmd_list", boom)
    with pytest.raises(KeyError):
        main(["list"])


# ----------------------------------------------------------------------
# normalised lookups never fork the canonical name
# ----------------------------------------------------------------------
def test_normalised_lookups_resolve_on_every_axis():
    from repro.cc.registry import make_algorithm
    from repro.scenarios import get_scenario

    assert get_scenario("LB_Matrix").name == "lb_matrix"
    assert get_scenario("multi-bottleneck").name == "multi_bottleneck"
    assert make_algorithm("theta powertcp").name == "theta-powertcp"
    assert routing_registry.get_policy("Least Loaded").name == "least-loaded"
    assert lint_registry.get_rule("Wall_Clock").id == "wall-clock"


def test_run_accepts_an_aliased_scenario_and_reports_the_canonical_name(capsys):
    assert main(["run", "multi-bottleneck", "--tiny", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["scenario"] == "multi_bottleneck"


def test_aliased_sweep_spelling_shares_cells_header_and_cache(tmp_path, capsys):
    out_path = tmp_path / "sweep.json"
    tail = ["--tiny", "--grid", "fanout=2,3", "--out", str(out_path)]
    assert main(["sweep", "Incast"] + tail) == 0
    assert "reused" not in capsys.readouterr().out
    first = json.loads(out_path.read_text())
    assert main(["sweep", "incast"] + tail) == 0
    assert "reused 2 cached" in capsys.readouterr().out
    second = json.loads(out_path.read_text())
    for doc in (first, second):
        assert doc["scenario"] == "incast"
        assert [cell["scenario"] for cell in doc["cells"]] == ["incast"] * 2


def test_specs_canonicalise_the_scenario_name(monkeypatch):
    from repro.campaign.manifest import manifest_from_dict
    from repro.scenarios import sweep
    from repro.scenarios.sweep import SweepSpec, default_results_path

    spec = SweepSpec(scenario="Multi-Bottleneck", grid={"segments": [2]})
    spec.validate()
    assert spec.scenario == "multi_bottleneck"
    manifest = manifest_from_dict(
        {"scenario": "LB Matrix", "grid": {"load": [0.2]}}
    )
    assert manifest.scenario == "lb_matrix"
    assert manifest.out_path().endswith("lb_matrix_campaign.json")

    # The default output file (= the incremental cache) follows suit
    # (cmd_sweep imports the sweep module when it runs).
    seen = []
    monkeypatch.setattr(
        sweep, "default_results_path",
        lambda name: seen.append(name) or default_results_path(name),
    )
    with pytest.raises(SystemExit, match="bogus_axis"):
        main(["sweep", "Incast", "--grid", "bogus_axis=1"])
    assert seen == ["incast"]
