"""Parametrized conformance suite over every registered CC algorithm.

Four contracts every scheme must honour:

* under a synthetic ACK stream (varying RTT, ECN marks, INT telemetry,
  CNPs), the installed window stays within the scheme's own
  ``window_bounds`` and pacing never exceeds the host line rate;
* the declared :class:`~repro.cc.registry.Requirements` match behaviour —
  INT-requiring schemes fail loudly (``MissingFeedbackError``) when
  acknowledgments carry no telemetry, and schemes that do not declare
  INT run on plain ACKs without raising;
* every registered alias resolves to the same entry as the canonical
  name;
* retiring a finished flow's endpoints (``FlowDriver._retire``) leaves
  the event count, every flow record and every port counter as they are
  with the endpoints kept until ``close()``.

Schemes without a standalone per-flow CC object are exercised where the
contract applies: HOMA has no CC class (receiver-driven) and reTCP needs
a built RDCN (``requires_network``), so neither joins the synthetic-ACK
stream test.
"""

import dataclasses

import pytest

from compiled_support import require_compiled
from repro.cc.base import AckFeedback, MissingFeedbackError
from repro.cc.registry import (
    ALGORITHMS,
    get_algorithm,
    load_builtin_algorithms,
    make_algorithm,
)
from repro.experiments.driver import FlowDriver
from repro.experiments.rdcn import scaled_rdcn
from repro.sim.engine import Simulator, engine_defaults
from repro.sim.packet import HopRecord, PacketPool
from repro.topology.registry import build_topology, make_topology_params
from repro.units import GBPS, USEC


@pytest.fixture(autouse=True, params=["heap", "compiled"])
def _engine(request):
    # The contracts must hold regardless of which event core hosts the
    # sender's simulator; compiled cells skip visibly when unbuilt.
    require_compiled(request.param)
    with engine_defaults(scheduler=request.param):
        yield

MTU = 1000
BASE_RTT_NS = 20 * USEC
HOST_BW = 10 * GBPS


class StubSender:
    """The minimal sender surface the CC contract allows touching."""

    def __init__(self):
        self.sim = Simulator()
        self.base_rtt_ns = BASE_RTT_NS
        self.host_bw_bps = HOST_BW
        self.mtu_payload = MTU
        self.cwnd = 0.0
        self.pacing_rate_bps = 0.0
        self.done = False

    def _try_send(self):
        pass


def all_entries():
    load_builtin_algorithms()
    return sorted(ALGORITHMS.items())


def drivable_names():
    """Schemes with a standalone per-flow CC object."""
    return [
        name
        for name, entry in all_entries()
        if entry.cls is not None and not entry.requires_network
    ]


def _hops(i: int) -> list:
    """Two-hop INT telemetry: a loaded bottleneck and an idle hop."""
    dt = 2 * USEC
    qlen = max(0, 30_000 - 500 * i) if i % 3 else 45_000
    return [
        HopRecord(
            qlen=qlen,
            ts_ns=1000 + i * dt,
            tx_bytes=i * 2_500,
            bandwidth_bps=HOST_BW,
            port_id=1,
        ),
        HopRecord(
            qlen=0,
            ts_ns=1000 + i * dt,
            tx_bytes=i * 1_000,
            bandwidth_bps=HOST_BW,
            port_id=2,
        ),
    ]


def synthetic_stream(needs_int: bool, count: int = 60):
    """ACK feedback covering growth, congestion, ECN, and dup phases."""
    stream = []
    for i in range(1, count + 1):
        congested = (i // 10) % 2 == 1
        rtt = BASE_RTT_NS + (3 * BASE_RTT_NS if congested else i * 100)
        stream.append(
            AckFeedback(
                ack_seq=i * MTU,
                acked_seq=(i - 1) * MTU,
                newly_acked_bytes=MTU,
                is_dup=False,
                rtt_ns=rtt,
                now_ns=1_000 + i * 2 * USEC,
                ecn_marked=congested,
                int_hops=_hops(i) if needs_int else None,
                sent_high=(i + 10) * MTU,
            )
        )
    return stream


@pytest.mark.parametrize("name", drivable_names())
def test_window_stays_within_bounds(name):
    spec = make_algorithm(name)
    cc = spec.make_cc(None, None)
    sender = StubSender()
    cc.on_start(sender)
    low, high = cc.window_bounds(sender)
    assert low <= sender.cwnd <= high + 1e-6
    for i, feedback in enumerate(synthetic_stream(spec.needs_int)):
        cc.on_ack(sender, feedback)
        if i % 17 == 0:
            cc.on_cnp(sender)
        if i == 40:
            cc.on_loss(sender)
        low, high = cc.window_bounds(sender)
        assert low - 1e-9 <= sender.cwnd <= high + 1e-6, (
            f"{name}: cwnd {sender.cwnd} escaped [{low}, {high}] "
            f"at ack {i}"
        )
        assert 0.0 <= sender.pacing_rate_bps <= sender.host_bw_bps + 1e-6


@pytest.mark.parametrize("name", drivable_names())
def test_timeout_collapses_within_bounds(name):
    spec = make_algorithm(name)
    cc = spec.make_cc(None, None)
    sender = StubSender()
    cc.on_start(sender)
    cc.on_timeout(sender)
    low, high = cc.window_bounds(sender)
    assert low - 1e-9 <= sender.cwnd <= high + 1e-6


@pytest.mark.parametrize(
    "name", [n for n, e in all_entries() if e.requirements.int_stamping]
)
def test_needs_int_schemes_fail_loudly_without_int(name):
    spec = make_algorithm(name)
    cc = spec.make_cc(None, None)
    sender = StubSender()
    cc.on_start(sender)
    (feedback,) = synthetic_stream(needs_int=False, count=1)
    # The error names the concrete CC class (subclass-accurate).
    with pytest.raises(MissingFeedbackError, match="(?i)" + name):
        cc.on_ack(sender, feedback)


@pytest.mark.parametrize(
    "name", [n for n, e in all_entries() if not e.requirements.int_stamping
             and e.cls is not None and not e.requires_network]
)
def test_non_int_schemes_run_without_telemetry(name):
    """Schemes that do not declare INT must work on plain ACKs — a scheme
    that needs telemetry but forgot to declare it fails here."""
    spec = make_algorithm(name)
    cc = spec.make_cc(None, None)
    sender = StubSender()
    cc.on_start(sender)
    for feedback in synthetic_stream(needs_int=False, count=5):
        cc.on_ack(sender, feedback)  # must not raise MissingFeedbackError


@pytest.mark.parametrize("name", [n for n, _ in all_entries()])
def test_aliases_resolve_to_the_canonical_entry(name):
    entry = get_algorithm(name)
    for alias in entry.aliases:
        assert get_algorithm(alias) is entry
    assert get_algorithm(name.upper()) is entry


@pytest.mark.parametrize("name", [n for n, _ in all_entries()])
def test_make_algorithm_rejects_a_bogus_parameter(name):
    with pytest.raises(TypeError, match=name):
        make_algorithm(name, definitely_not_a_parameter=1)


# ----------------------------------------------------------------------
# Retiring a finished flow's endpoints changes nothing observable
# (docs/INVARIANTS.md, "Flow lifetime")
# ----------------------------------------------------------------------
def _lossy_network(sim, law: str, routing: str):
    """A fat-tree whose buffers drop a 32:1 incast; reTCP, which reads a
    circuit schedule off its network, gets the small RDCN instead."""
    if get_algorithm(law).requires_network:
        params = dataclasses.replace(scaled_rdcn(), routing=routing)
        return build_topology(sim, "rdcn", params), params.hosts_per_tor
    params = make_topology_params(
        "fattree", num_pods=2, hosts_per_tor=11, host_bw_bps=10 * GBPS,
        fabric_bw_bps=10 * GBPS, buffer_bytes_per_gbps=400, routing=routing,
    )
    return build_topology(sim, "fattree", params), params.hosts_per_tor


def _run_churn(law: str, routing: str, pool_guard) -> dict:
    """Everything observable about an incast plus a staggered batch of
    short inter-rack flows, run to a horizon well past the last RTO."""
    sim = Simulator()
    net, per_rack = _lossy_network(sim, law, routing)
    driver = FlowDriver(net, law)
    hosts = len(net.hosts)
    for src in range(per_rack, min(hosts, per_rack + 32)):
        driver.start_flow(src, 0, 30_000, at_ns=0)
    for i in range(40):
        src = (7 * i) % hosts
        dst = (src + per_rack + (3 * i) % (hosts - 2 * per_rack + 1)) % hosts
        driver.start_flow(
            src, dst, 2_000 + 500 * (i % 9), at_ns=20_000 + 5_000 * i
        )
    driver.run(until_ns=40_000_000)
    pool_guard(sim.pool)
    ports = [p for s in net.switches for p in s.ports]
    ports += [h.nic for h in net.hosts]
    observed = {
        "events": sim.events_processed,
        "all_completed": all(f.completed for f in driver.flows),
        "flows": [dataclasses.astuple(f) for f in driver.flows],
        "ports": [
            (p.name, p.tx_bytes, p.drops, p.marks, p.max_qlen_bytes)
            for p in ports
        ],
        "endpoints": sum(len(h.endpoints) for h in net.hosts),
        "late_packets": sum(h.late_packets for h in net.hosts),
    }
    sim.close()
    return observed


@pytest.fixture
def pool_guard(monkeypatch):
    """Fail the moment a packet shell is released while already free."""
    free = set()
    blank = PacketPool._blank

    def checked_blank(self, *args):
        pkt = blank(self, *args)
        free.discard(id(pkt))
        return pkt

    def checked(release):
        def method(self, pkt):
            assert id(pkt) not in free, f"{pkt!r} released twice"
            free.add(id(pkt))
            release(self, pkt)
        return method

    monkeypatch.setattr(PacketPool, "_blank", checked_blank)
    monkeypatch.setattr(PacketPool, "release", checked(PacketPool.release))
    monkeypatch.setattr(
        PacketPool, "release_with_hops", checked(PacketPool.release_with_hops)
    )

    def at_end(pool):
        assert {id(p) for p in pool._packets} == free
        free.clear()

    return at_end


@pytest.mark.parametrize("routing", ["ecmp", "spray"])
@pytest.mark.parametrize("law", [n for n, _ in all_entries()])
def test_retiring_finished_flows_changes_nothing_observable(
    law, routing, pool_guard, monkeypatch
):
    if law == "homa" and routing == "spray":
        pytest.skip("the driver rejects HOMA on a packet-spraying fabric")
    retired = _run_churn(law, routing, pool_guard)
    monkeypatch.setattr(FlowDriver, "_retire", lambda self, flow: None)
    kept = _run_churn(law, routing, pool_guard)

    assert kept["all_completed"]
    assert kept["late_packets"] == 0 and kept["endpoints"] == 2 * len(kept["flows"])
    if law not in ("homa", "dcqcn"):  # those two wait for close()
        assert retired["endpoints"] < kept["endpoints"]
    for key in ("events", "flows", "ports"):
        assert retired[key] == kept[key], key
