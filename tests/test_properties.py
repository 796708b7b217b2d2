"""Property-based tests (hypothesis) on core data structures and invariants."""

import enum
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compiled_support import require_compiled
from repro.analysis.stats import Distribution, percentile
from repro.cc.homa import HomaGrantScheduler, HomaReceiver, srpt_first
from repro.core.power import normalized_power_from_hop
from repro.fluid.laws import GRADIENT_LAW, POWER_LAW, QUEUE_LAW
from repro.persist import CellDocumentWriter, dumps_document, encode_cell
from repro.sim.buffer import SharedBuffer
from repro.sim.engine import Simulator
from repro.sim.packet import HopRecord, Packet
from repro.sim.port import EgressPort
from repro.transport.flow import Flow
from repro.units import GBPS, USEC, tx_time_ns
from repro.workloads.distributions import WEB_SEARCH


# ----------------------------------------------------------------------
# Engine: event ordering is a total order, identical under every scheduler
# ----------------------------------------------------------------------
#: one scheduled callback: (time, cancellable?, cancel before the run?,
#: delay of a child it schedules when it fires, index of a handle it
#: cancels when it fires).  Small time range => plenty of same-ns ties.
_OPS = st.lists(
    st.tuples(
        st.integers(0, 2000),
        st.booleans(),
        st.booleans(),
        st.none() | st.integers(0, 500),
        st.none() | st.integers(0, 60),
    ),
    min_size=1,
    max_size=60,
)
#: one partial ``run``: (until, max_events, handle cancelled afterwards)
_SEGMENTS = st.lists(
    st.tuples(
        st.none() | st.integers(0, 2500),
        st.none() | st.integers(0, 40),
        st.none() | st.integers(0, 60),
    ),
    max_size=6,
)


def _run_schedule(scheduler, ops, segments):
    """Drive one random schedule; return everything an engine may differ in.

    ``fired`` is the (time, id) fire order (children get negative ids);
    ``checkpoints`` holds (run's return value, now, pending,
    events_processed) after every partial run and after the final drain.
    """
    sim = Simulator(scheduler=scheduler)
    fired = []
    handles = {}

    def cancel(index):
        if index in handles:
            handles[index].cancel()

    def fire(i):
        fired.append((sim.now, i))
        _, _, _, child_delay, victim = ops[i]
        if child_delay is not None:
            sim.after(child_delay, lambda: fired.append((sim.now, -1 - i)))
        if victim is not None:
            cancel(victim)

    for i, (t, cancellable, _, _, _) in enumerate(ops):
        if cancellable:
            handles[i] = sim.at_cancellable(t, fire, i)
        else:
            sim.at(t, fire, i)
    for i, op in enumerate(ops):
        if op[2]:
            cancel(i)
    checkpoints = []
    for until, max_events, victim in list(segments) + [(None, None, None)]:
        processed = sim.run(until=until, max_events=max_events)
        checkpoints.append((processed, sim.now, sim.pending, sim.events_processed))
        if victim is not None:
            cancel(victim)
    return fired, checkpoints


@given(_OPS, _SEGMENTS)
@settings(max_examples=50, deadline=None)
def test_engine_processes_any_schedule_in_order(ops, segments):
    # The heap loop is the reference; check it against the contract.
    fired, checkpoints = _run_schedule("heap", ops, segments)
    assert [t for t, _ in fired] == sorted(t for t, _ in fired)
    top = [(t, i) for t, i in fired if i >= 0]
    assert top == sorted(top)  # by time, then insertion order
    assert all(t == ops[i][0] for t, i in top)
    assert len(set(top)) == len(top)  # nothing fires twice
    fired_ids = {i for _, i in top}
    for i, (_, cancellable, cancelled, _, _) in enumerate(ops):
        if not cancellable:
            assert i in fired_ids  # plain events cannot be cancelled
        elif cancelled:
            assert i not in fired_ids
    _, _, pending, events_processed = checkpoints[-1]
    assert pending == 0
    assert events_processed == len(fired)
    assert sum(processed for processed, _, _, _ in checkpoints) == len(fired)


def test_compiled_engine_matches_heap_on_any_schedule():
    # Differential parity (docs/INVARIANTS.md#compiled-parity): same fire
    # order, and same now / pending / events_processed at every split.
    require_compiled("compiled")

    @given(_OPS, _SEGMENTS)
    @settings(max_examples=100, deadline=None)
    def parity(ops, segments):
        assert _run_schedule("compiled", ops, segments) == _run_schedule(
            "heap", ops, segments
        )

    parity()


@given(
    st.lists(
        st.tuples(st.integers(0, 10**6), st.booleans()), min_size=1, max_size=100
    )
)
@settings(max_examples=50, deadline=None)
def test_engine_cancellation_is_exact(events):
    sim = Simulator()
    fired = []
    handles = []
    for t, cancel in events:
        handles.append((sim.at_cancellable(t, fired.append, t), cancel))
    for handle, cancel in handles:
        if cancel:
            handle.cancel()
    sim.run()
    expected = sorted(t for (t, cancel) in events if not cancel)
    assert sorted(fired) == expected


# ----------------------------------------------------------------------
# Dynamic Thresholds: accounting never goes negative or over capacity
# ----------------------------------------------------------------------
@given(
    st.integers(1_000, 100_000),
    st.floats(0.1, 8.0),
    st.lists(st.integers(1, 2_000), min_size=1, max_size=300),
)
@settings(max_examples=50, deadline=None)
def test_buffer_accounting_invariants(capacity, alpha, sizes):
    buf = SharedBuffer(capacity, alpha)
    queued = []
    for size in sizes:
        if buf.admits(0, size):
            buf.on_enqueue(size)
            queued.append(size)
        else:
            buf.on_drop()
        assert 0 <= buf.used <= buf.capacity
    for size in queued:
        buf.on_dequeue(size)
    assert buf.used == 0


# ----------------------------------------------------------------------
# Egress port: the one transmit path is exact for every observer
# ----------------------------------------------------------------------
_PORT_RATE = 8 * GBPS  # one byte per nanosecond
_PORT_DELAY_NS = 700

#: one scheduled action on port ``index``: (time, index, what) where
#: ``what`` is "pause", "resume" or an arrival's (payload, priority).
#: Small time range against ~1 us packets => deep queues and DT drops.
_PORT_OPS = st.lists(
    st.tuples(
        st.integers(0, 30_000),
        st.integers(0, 2),
        st.sampled_from(["pause", "resume"])
        | st.tuples(st.integers(1, 1_452), st.integers(0, 3)),
    ),
    min_size=1,
    max_size=60,
)


@pytest.mark.parametrize("scheduler", ["heap", "compiled"])
def test_port_is_exact_for_every_observer(scheduler):
    require_compiled(scheduler)

    @given(_PORT_OPS, st.integers(3_000, 40_000), st.sampled_from([0.5, 1.0, 4.0]))
    @settings(max_examples=100, deadline=None)
    def check(ops, capacity, alpha):
        sim = Simulator(scheduler=scheduler)
        buffer = SharedBuffer(capacity, alpha)
        arrived = []  # arrival time by Packet.seq, admitted packets only
        delivered = [[] for _ in range(3)]  # per port: (start_ns, pkt)

        def observe():
            in_buffer = 0
            for port in ports:
                # the packet on the wire rides in the pending finish event
                wire = [e[3][0].size for e in sim._heap if e[2] is port._finish_cb]
                assert len(wire) == port.busy
                assert port.busy or port.paused or port.qlen_bytes == 0
                in_buffer += port.qlen_bytes + sum(wire)
            assert buffer.used == in_buffer

        class Sink:
            def __init__(self, index):
                self.index = index

            def receive(self, pkt):
                start = sim.now - _PORT_DELAY_NS - tx_time_ns(pkt.size, _PORT_RATE)
                delivered[self.index].append((start, pkt))
                observe()

        ports = [
            EgressPort(sim, _PORT_RATE, _PORT_DELAY_NS, peer=Sink(i),
                       buffer=buffer, int_stamping=True, name=f"p{i}")
            for i in range(3)
        ]

        def act(index, what):
            port = ports[index]
            if what == "pause":
                port.pause()
            elif what == "resume":
                port.resume()
            else:
                payload, priority = what
                pkt = Packet.data(
                    index, 0, 1, len(arrived), payload,
                    priority=priority, int_enabled=True,
                )
                if port.enqueue(pkt):
                    arrived.append(sim.now)
            observe()

        for t, index, what in ops:
            sim.at(t, act, index, what)
        sim.run()
        sent = sum(pkt.size for log in delivered for _, pkt in log)
        # admitted = delivered + still queued behind a pause
        assert buffer.total_admitted == sent + buffer.used
        for port in ports:
            port.resume()
        sim.run()
        observe()
        assert buffer.used == 0
        assert sum(len(log) for log in delivered) == len(arrived)

        for port, log in zip(ports, delivered):
            tx_bytes = 0
            for i, (start, pkt) in enumerate(log):
                # INT is stamped when the packet is scheduled for transmission
                tx_bytes += pkt.size
                (hop,) = pkt.int_hops
                assert (hop.ts_ns, hop.tx_bytes) == (start, tx_bytes)
                for later_start, later in log[i + 1:]:
                    assert later_start > start  # one packet at a time
                    if later.priority == pkt.priority:
                        assert later.seq > pkt.seq  # FIFO within a priority
                    elif later.priority < pkt.priority:
                        # strict across: it was not waiting when pkt started
                        assert arrived[later.seq] >= start
            assert port.tx_bytes == tx_bytes

    check()


# ----------------------------------------------------------------------
# Power (Property 1 algebra): positivity and monotonicity
# ----------------------------------------------------------------------
@given(
    st.integers(0, 10**6),  # prev qlen
    st.integers(0, 10**6),  # cur qlen
    st.integers(1_000, 10**7),  # dt ns
    st.integers(0, 10**7),  # tx bytes in dt
)
@settings(max_examples=100, deadline=None)
def test_power_sign_follows_current(q0, q1, dt, tx):
    prev = HopRecord(q0, 0, 0, 100 * GBPS, 1)
    cur = HopRecord(q1, dt, tx, 100 * GBPS, 1)
    sample = normalized_power_from_hop(cur, prev, 20 * USEC)
    # current = q̇ + µ; with tx >= 0, power is negative only if the queue
    # drains faster than the link transmits (impossible physically, but
    # the estimator must stay finite either way).
    assert sample is not None
    if q1 >= q0:
        assert sample.norm >= 0.0


@given(st.integers(0, 10**6), st.integers(1_000, 10**6))
@settings(max_examples=100, deadline=None)
def test_power_monotone_in_queue_length(qlen, dt):
    tau = 20 * USEC
    rate_bytes = int(12.5e9 * dt / 1e9)
    base = normalized_power_from_hop(
        HopRecord(qlen, dt, rate_bytes, 100 * GBPS, 1),
        HopRecord(qlen, 0, 0, 100 * GBPS, 1),
        tau,
    )
    higher = normalized_power_from_hop(
        HopRecord(qlen + 10_000, dt, rate_bytes, 100 * GBPS, 1),
        HopRecord(qlen + 10_000, 0, 0, 100 * GBPS, 1),
        tau,
    )
    assert higher.norm >= base.norm


# ----------------------------------------------------------------------
# Control laws: multiplicative factor is 1 exactly at equilibrium
# ----------------------------------------------------------------------
@given(st.floats(1e8, 1e10), st.floats(1e-6, 1e-3))
@settings(max_examples=100, deadline=None)
def test_laws_neutral_at_equilibrium(b, tau):
    for law in (QUEUE_LAW, GRADIENT_LAW, POWER_LAW):
        factor = law.multiplicative_factor(0.0, 0.0, b, b, tau)
        assert abs(factor - 1.0) < 1e-9


# ----------------------------------------------------------------------
# Percentile: bounds and monotonicity
# ----------------------------------------------------------------------
@given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=500))
@settings(max_examples=100, deadline=None)
def test_percentile_within_bounds(values):
    for pct in (0, 25, 50, 75, 99.9, 100):
        v = percentile(values, pct)
        assert min(values) <= v <= max(values)


@given(st.lists(st.floats(0, 1e9), min_size=2, max_size=200))
@settings(max_examples=50, deadline=None)
def test_percentile_monotone_in_pct(values):
    results = [percentile(values, p) for p in (0, 10, 50, 90, 100)]
    assert results == sorted(results)


# ----------------------------------------------------------------------
# Workload distribution: samples within support, quantile monotone
# ----------------------------------------------------------------------
@given(st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_websearch_sample_in_support(seed):
    rng = random.Random(seed)
    size = WEB_SEARCH.sample(rng)
    assert 1 <= size <= 30_000_000


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_websearch_quantile_monotone(u1, u2):
    lo, hi = sorted((u1, u2))
    assert WEB_SEARCH.quantile(lo) <= WEB_SEARCH.quantile(hi)


# ----------------------------------------------------------------------
# tx_time: additivity (serializing a+b takes within 1ns of a then b)
# ----------------------------------------------------------------------
@given(st.integers(1, 10**6), st.integers(1, 10**6), st.floats(1e9, 4e11))
@settings(max_examples=100, deadline=None)
def test_tx_time_superadditive_within_rounding(a, b, rate):
    together = tx_time_ns(a + b, rate)
    apart = tx_time_ns(a, rate) + tx_time_ns(b, rate)
    assert together <= apart <= together + 2  # ceil rounding at most 1ns each


# ----------------------------------------------------------------------
# HOMA: the grant pacer's top-k selection is the prefix of the full sort
# ----------------------------------------------------------------------
class _Message:
    """What the selection reads of a HomaReceiver, without a network."""

    remaining_bytes = HomaReceiver.remaining_bytes  # the real property

    def __init__(self, flow_id, size_bytes, rcv_nxt):
        self.flow = Flow(flow_id, 0, 1, size_bytes)
        self.rcv_nxt = rcv_nxt


@given(
    # few distinct sizes and offsets => plenty of equal-remaining ties
    st.lists(
        st.tuples(st.integers(1, 4), st.integers(0, 3)), max_size=40
    ),
    st.randoms(use_true_random=False),
    st.data(),
)
def test_homa_srpt_first_is_the_prefix_of_the_full_sort(sizes, rng, data):
    flow_ids = rng.sample(range(1000), len(sizes))
    messages = [
        _Message(flow_id, 1000 * size, 1000 * min(rcv, size))
        for flow_id, (size, rcv) in zip(flow_ids, sizes)
    ]
    k = data.draw(st.integers(1, len(messages) + 1))
    ranked = sorted(  # what the pacer did before: order all, use the first k
        messages, key=lambda r: (r.remaining_bytes, r.flow.flow_id)
    )
    assert srpt_first(iter(messages), k) == ranked[:k]


class _Downlink:
    """The one thing the grant scheduler reads off its host before a tick."""

    class nic:
        rate_bps = 10 * GBPS


@given(
    st.integers(1, 4),
    # (message slot, what happens to it): it arrives, receives 1-3 KB, or
    # completes.  Few slots and sizes => ties and plenty of stale keys
    # (the sweep that bounds them is tests/test_homa.py's).
    st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from("+123x")),
        max_size=300,
    ),
)
def test_homa_incremental_srpt_order_is_srpt_first(overcommitment, steps):
    scheduler = HomaGrantScheduler(
        Simulator(), _Downlink, overcommitment=overcommitment
    )
    messages = {}
    for flow_id, step in steps:
        message = messages.get(flow_id)
        if step == "+":
            if message is None:
                message = messages[flow_id] = _Message(
                    flow_id, 1000 * (40 + flow_id % 3), 0
                )
                scheduler.add(message)
        elif message is not None and flow_id in scheduler.active:
            if step == "x":
                scheduler.remove(message)
            elif message.remaining_bytes > 3000:
                message.rcv_nxt += 1000 * int(step)
                scheduler.reranked(message)
        assert scheduler._candidates() == srpt_first(
            scheduler.active.values(), overcommitment
        )


# ----------------------------------------------------------------------
# Distribution: percentiles of a counted multiset are percentile()'s
# ----------------------------------------------------------------------
_SAMPLES = st.lists(
    # small values (cached int objects), values past 256 (not cached),
    # negatives, and a narrow band so that equal samples are common
    st.integers(-5, 5) | st.integers(-10**12, 10**12) | st.integers(300, 310),
    min_size=1,
    max_size=60,
)
_PCT = st.sampled_from([0, 50, 99, 99.9, 100]) | st.floats(0.0, 100.0)


@given(_SAMPLES, _PCT)
def test_distribution_percentile_is_bit_identical_to_percentile(values, pct):
    counted = Distribution(values)
    assert len(counted) == len(values)
    got, want = counted.percentile(pct), percentile(values, pct)
    assert got == want and type(got) is type(want)


@given(_SAMPLES, _SAMPLES, _PCT)
def test_distribution_merge_is_concatenation(left, right, pct):
    merged = Distribution(left)
    merged.merge(Distribution(right).counts)
    merged.merge({})  # a port that recorded nothing
    assert merged.counts == Distribution(left + right).counts
    assert merged.percentile(pct) == percentile(left + right, pct)


def test_distribution_rejects_what_percentile_rejects():
    for bad in (lambda: Distribution().percentile(50.0),
                lambda: percentile([], 50.0)):
        with pytest.raises(ValueError, match="empty"):
            bad()
    for bad in (lambda: Distribution([1, 2]).percentile(100.5),
                lambda: percentile([1, 2], 100.5)):
        with pytest.raises(ValueError, match="pct"):
            bad()
    assert not Distribution() and Distribution([7])


# ----------------------------------------------------------------------
# Persistence: the streamed cell document is the whole-document encoding
# ----------------------------------------------------------------------
#: text that looks like the document's own structure, next to arbitrary
#: (non-ASCII, multi-line) strings
_TEXT = st.text(max_size=12) | st.sampled_from(
    ['"cells": []', '\n "cells": []', ' "cells": [\n', "cells", "é\n ]", "\\n"]
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=12,
)
_HEADERS = st.dictionaries(
    _TEXT.filter(lambda key: key != "cells"), _JSON, max_size=5
)


@given(_HEADERS, st.lists(_JSON, max_size=5))
@settings(max_examples=200, deadline=None)
def test_streamed_cell_document_equals_the_whole_document_dump(
    tmp_path_factory, header, cells
):
    path = str(tmp_path_factory.mktemp("doc") / "doc.json")
    with CellDocumentWriter(path, header) as out:
        for cell in cells:
            out.add(cell)
        out.commit()
    with open(path) as handle:
        text = handle.read()
    assert text == json.dumps(
        {**header, "cells": cells}, indent=1, sort_keys=True
    ) + "\n"


def test_streamed_cell_document_nested_cells_key_and_empty_containers(tmp_path):
    header = {
        "campaign": {"cells": [], "shard": [1, 2]},
        "grid": {},
        "note": 'a line\n "cells": []',
    }
    cells = [{"cells": [], "series": {}, "m": [[], {}]}, {}, []]
    for count in range(len(cells) + 1):
        path = str(tmp_path / f"doc{count}.json")
        with CellDocumentWriter(path, header) as out:
            for cell in cells[:count]:
                out.add(cell)
            out.commit()
        with open(path) as handle:
            assert handle.read() == json.dumps(
                {**header, "cells": cells[:count]}, indent=1, sort_keys=True
            ) + "\n"


def test_streamed_cell_document_rejects_a_header_with_cells(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError, match="cells"):
        CellDocumentWriter(str(path), {"seed": 1, "cells": [1]})
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# The document encoder: json.dumps(indent=1, sort_keys=True), exactly
# ----------------------------------------------------------------------
class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


#: everything the C encoder writes without a comma, a quote or a bracket
_NUMBER = (
    st.integers() | st.floats() | st.booleans() | st.none()
    | st.sampled_from([_Level.LOW, _Level.HIGH, float("nan"), float("inf"),
                       float("-inf")])
)
_TRICKY_TEXT = st.text(max_size=8) | st.sampled_from(
    [",", "[", '"', "\n", "a,b", "[1,2]", '{"k": 1}', "1,\n 2"]
)
#: flat lists longer than 100 (a cell's series), repeating a short draw
_LONG_FLAT = st.lists(_NUMBER, min_size=1, max_size=3).map(lambda xs: xs * 101)
_DOC = st.recursive(
    _NUMBER | _TRICKY_TEXT | _LONG_FLAT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TRICKY_TEXT, inner, max_size=4)
    | st.dictionaries(
        st.integers() | st.floats(allow_nan=False) | st.booleans() | st.none(),
        inner,
        max_size=3,
    ),
    max_leaves=16,
)


def _assert_encodes_like_json(doc):
    """Same text as json's indented, key-sorted dump, at the top and at
    a cell's depth -- or the same TypeError where json raises one."""
    try:
        expected = json.dumps(doc, indent=1, sort_keys=True)
    except TypeError:
        with pytest.raises(TypeError):
            dumps_document(doc)
        with pytest.raises(TypeError):
            encode_cell(doc)
        return
    assert dumps_document(doc) == expected
    assert encode_cell(doc) == "  " + expected.replace("\n", "\n  ")


@given(_DOC)
@settings(max_examples=200, deadline=None)
def test_dumps_document_is_json_dumps_indent_1_sort_keys(doc):
    _assert_encodes_like_json(doc)


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param([], id="empty-list"),
        pytest.param({}, id="empty-dict"),
        pytest.param((), id="empty-tuple"),
        pytest.param([[], {}, ()], id="empties-in-a-list"),
        pytest.param(
            {"series": {"t": list(range(150)), "q": [i / 7 for i in range(150)]}},
            id="long-flat-series",
        ),
        pytest.param(
            [True, False, None, _Level.HIGH, 1, 2.5, float("nan"), float("-inf")],
            id="bool-enum-nan-in-numbers",
        ),
        pytest.param([[1, 2], [3.5, [float("inf")]], (4,)], id="nested-numbers"),
        pytest.param(["a,b", "[", '"', "x\ny"], id="tricky-strings"),
        pytest.param({1: "int", 2: [1, 2]}, id="int-keys"),
        pytest.param({1.5: 0, -2.0: {"k": [1]}}, id="float-keys"),
        pytest.param({True: 1, False: 0}, id="bool-keys"),
        pytest.param({None: [1, 2]}, id="none-key"),
        pytest.param({"outer": {3: [1, 2], 1: {"x": ()}}}, id="nested-int-keys"),
    ],
)
def test_dumps_document_named_cases(doc):
    _assert_encodes_like_json(doc)


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param(object(), id="object"),
        pytest.param({"a": object()}, id="object-value"),
        pytest.param([1, 2, object()], id="object-in-numbers"),
        pytest.param([1, "a", {b"bytes"}], id="set-in-a-list"),
        pytest.param({"m": [[1, 2], {"x": 1j}]}, id="complex-deep"),
        pytest.param({1: "a", "b": 2}, id="int-and-str-keys"),
        pytest.param({"outer": {None: 1, 2: 3}}, id="none-and-int-keys"),
        pytest.param([{2.5: 1, "k": 2}], id="float-and-str-keys"),
    ],
)
def test_dumps_document_raises_typeerror_where_json_does(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=1, sort_keys=True)
    _assert_encodes_like_json(doc)
