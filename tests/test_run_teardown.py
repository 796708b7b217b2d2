"""A finished run dies by reference counting (docs/INVARIANTS.md#run-teardown).

Every test here runs with the cyclic collector **disabled**: whatever is
gone when ``Scenario.run`` returns was freed by reference counting
alone, which is the contract — the executors run cells back to back with
the collector paused for most of each cell.
"""

import gc

import pytest

import repro.scenarios.faulty  # noqa: F401  (registers the fault-injection scenario)
from repro.experiments.driver import FlowDriver
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.sweep import SweepRunner, SweepSpec
from repro.sim.engine import Simulator
from repro.sim.host import Host
from repro.sim.port import EgressPort
from repro.sim.switch import Switch
from repro.topology.network import Network
from repro.topology.registry import build_topology
from repro.transport.receiver import Receiver
from repro.transport.sender import Sender

#: what a live run is made of (subclasses — CircuitPort, RdcnToR,
#: HomaSender — included)
RUN_TYPES = (
    Simulator, Network, Host, Switch, EgressPort, FlowDriver, Sender, Receiver,
)

#: the scenarios whose result used to pin the network alive through an
#: ``ideal_fn`` closure
FCT_SCENARIOS = ("websearch", "lb_matrix")

#: the scenarios whose tiny cell reaches its horizon with flows still
#: running, so the census at ``collect()`` must see their endpoints
STILL_SENDING = ("fairness", "incast", "multi_bottleneck", "rdcn")


@pytest.fixture
def no_collector():
    """Collect what earlier tests left behind, then switch the collector off."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _live_run_objects():
    return [o for o in gc.get_objects() if isinstance(o, RUN_TYPES)]


def _reachable(root):
    """Every object reachable from ``root`` (classes and modules not entered)."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        if not isinstance(obj, type) and type(obj).__name__ != "module":
            stack.extend(gc.get_referents(obj))
    return found


def _run_tiny(name, **overrides):
    """Run one tiny cell; also return what was alive while collect() ran."""
    scenario = get_scenario(name)
    during = []
    collect = scenario.collect

    def spying_collect(config, raw):
        during.extend(type(o).__name__ for o in _live_run_objects())
        return collect(config, raw)

    scenario.collect = spying_collect
    try:
        result = scenario.run(**{**scenario.tiny_overrides(), **overrides})
    finally:
        del scenario.collect
    return result, during


@pytest.mark.parametrize("name", scenario_names())
def test_finished_cell_is_freed_without_a_collector_pass(name, no_collector):
    before = {id(o) for o in _live_run_objects()}
    result, during = _run_tiny(name)
    if name != "faulty":  # the only scenario that simulates nothing
        assert {"Simulator", "EgressPort", "FlowDriver"} <= set(during)
    if name in STILL_SENDING:  # elsewhere every flow retired before collect()
        assert {"Sender", "Receiver"} <= set(during)

    leaked = [o for o in _live_run_objects() if id(o) not in before]
    assert leaked == []

    # ... and a collector pass afterwards has nothing of ours to find
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        ours = [
            o for o in gc.garbage if type(o).__module__.startswith("repro.")
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert ours == []

    pinned = [o for o in _reachable(result.raw) if isinstance(o, RUN_TYPES)]
    assert pinned == []


@pytest.mark.parametrize(
    "overrides",
    [
        dict(algorithm="dcqcn"),  # CC law holds its sender and two timers
        dict(algorithm="homa", fanout=6),  # receivers <-> grant scheduler
        dict(algorithm="timely", fanout=40, buffer_bytes=60_000),  # drops, RTOs
    ],
    ids=lambda o: o["algorithm"],
)
def test_every_transport_style_is_freed(overrides, no_collector):
    before = {id(o) for o in _live_run_objects()}
    _run_tiny("incast", **overrides)
    assert [o for o in _live_run_objects() if id(o) not in before] == []


def test_cell_that_raises_mid_run_is_freed_too(no_collector):
    before = {id(o) for o in _live_run_objects()}
    # reTCP needs the RDCN's circuit schedule: on_start raises inside run()
    with pytest.raises(KeyError):
        _run_tiny("incast", algorithm="retcp")
    assert [o for o in _live_run_objects() if id(o) not in before] == []


def test_inline_sweep_does_not_accumulate_simulators(no_collector):
    scenario = get_scenario("incast")
    tracked = []
    run = scenario.run

    def counting_run(**overrides):
        result = run(**overrides)
        tracked.append(len(gc.get_objects()))
        return result

    scenario.run = counting_run
    try:
        spec = SweepSpec(
            scenario="incast",
            grid={"algorithm": ["powertcp", "hpcc"], "fanout": [2, 3, 4]},
            base=scenario.tiny_overrides(),
        )
        result = SweepRunner(spec, jobs=1).run()
    finally:
        del scenario.run
    assert len(result.cells) == len(tracked) == 6
    # The runner keeps every cell's result (measured: 11 tracked
    # containers each); one kept simulator would be >= 400 objects.
    growth = tracked[5] - tracked[1]
    assert 0 <= growth <= 4 * 25, tracked


@pytest.mark.parametrize("name", FCT_SCENARIOS)
def test_raw_fct_summary_works_after_teardown(name, no_collector):
    result, _during = _run_tiny(name)
    raw = result.raw
    assert raw.ideal_fcts_ns.keys() == {f.flow_id for f in raw.flows}
    summary = raw.fct_summary(pct=99.0)
    assert summary.completed == result.metrics["completed"] > 0
    assert summary.overall == result.metrics["fct_p99_overall"]
    assert summary.overall >= 1.0  # exact per-path ideal: never beaten


def test_close_takes_the_graph_apart_and_leaves_the_numbers():
    sim = Simulator()
    net = build_topology(sim, "dumbbell", left_hosts=2, right_hosts=1)
    driver = FlowDriver(net, "dcqcn")
    flow = driver.start_flow(0, 2, 50_000)
    host, switch, bottleneck = net.host(0), net.switches[0], net.port("bottleneck")
    nic = host.nic
    driver.run(until_ns=2_000_000)
    sender = driver.senders[flow.flow_id]
    sender_cc = sender.cc

    sim.close()

    assert flow.completed and driver.flows == [flow] and driver.completed == [flow]
    assert bottleneck.tx_bytes > 50_000 and net.base_rtt_ns > 0
    assert sim.events_processed > 0
    assert net.hosts == [] and net.switches == [] and net.labeled_ports == {}
    assert host.endpoints == {}
    assert switch.ports == [] and switch.routes == {}
    for port in (nic, bottleneck):
        assert port.peer is None and port._deliver is None and port._finish_cb is None
    assert driver.senders == {} and driver.receivers == {}
    assert sender.cc is None and sender_cc._sender is sender  # the cut edge
    with pytest.raises(RuntimeError, match=r"close\(\)"):
        driver.start_flow(1, 2, 1000)
    net.close()  # each share is idempotent on its own, too
    driver.close()
