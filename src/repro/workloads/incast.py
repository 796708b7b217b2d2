"""The paper's synthetic incast workload (§4.1).

"The synthetic workload represents a distributed file system where each
server requests a file from a set of servers chosen uniformly at random
from a different rack.  All the servers which receive the request respond
at the same time by transmitting the requested part of the file.  As a
result, each file request creates an incast scenario."

An :class:`IncastEvent` is one such query: ``fanout`` responders each send
``request_size / fanout`` bytes to the requester simultaneously.  The
paper sweeps the request *rate* (Fig. 7c/d — incast frequency) and the
request *size* (Fig. 7e/f — congestion duration).  A simulated horizon is
milliseconds, not the paper's seconds, so :func:`incast_queries` takes a
query *count* per horizon and spreads it evenly; the ``websearch``
scenario layers these queries on its web-search flows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence


@dataclass
class IncastEvent:
    """One file request: ``responders`` all answer ``requester`` at once."""

    start_ns: int
    requester: int
    responders: Sequence[int]
    bytes_per_responder: int


def incast_queries(
    rng: random.Random,
    *,
    num_hosts: int,
    hosts_per_tor: int,
    count: int,
    request_size_bytes: int,
    fanout: int,
    duration_ns: int,
) -> List[IncastEvent]:
    """``count`` queries, evenly spaced inside ``duration_ns``.

    Query ``i`` starts at ``(i + 1) * duration_ns // (count + 1)``.  Its
    requester is drawn uniformly, then its responders uniformly from the
    racks other than the requester's, so every response crosses the
    oversubscribed fabric; each sends an equal share of the request.
    """
    if fanout < 1:
        raise ValueError(f"fanout must be >= 1, got {fanout}")
    gap = duration_ns // (count + 1)
    events: List[IncastEvent] = []
    for i in range(count):
        requester = rng.randrange(num_hosts)
        rack = requester // hosts_per_tor
        candidates = [
            h for h in range(num_hosts) if h // hosts_per_tor != rack
        ]
        responders = rng.sample(candidates, min(fanout, len(candidates)))
        events.append(IncastEvent(
            (i + 1) * gap, requester, responders,
            max(1, request_size_bytes // len(responders)),
        ))
    return events
