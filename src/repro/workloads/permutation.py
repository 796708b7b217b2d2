"""Permutation traffic: ToR-pair demand (§5) and host-level permutations.

Two flavours:

* :func:`pair_flows` / :func:`all_pairs_flows` — the RDCN case-study
  demand (Fig. 8): hosts under one ToR run long flows to distinct hosts
  under another, filling the 100 Gbps circuit during its day;
* :func:`permutation_pairs` — the classic host-level permutation
  stress: every host sends to exactly one other host and receives from
  exactly one other host (a seeded derangement), so no receiver is
  oversubscribed and any unfairness is the CC scheme's own doing.  The
  fat-tree's pairing policy (``Network.flow_pairs``) draws these, and
  ``lb_matrix`` starts one flow per pair.
"""

from __future__ import annotations

import random
from typing import List, Tuple


def permutation_pairs(
    rng: random.Random, num_hosts: int
) -> List[Tuple[int, int]]:
    """A seeded random derangement: ``(src, dst)`` with ``dst != src``.

    Every host appears exactly once as a source and once as a
    destination.  Deterministic for a given RNG state.
    """
    if num_hosts < 2:
        raise ValueError(f"need at least 2 hosts, got {num_hosts}")
    targets = list(range(num_hosts))
    rng.shuffle(targets)
    for i in range(num_hosts):
        if targets[i] == i:
            j = (i + 1) % num_hosts
            targets[i], targets[j] = targets[j], targets[i]
    return [(src, dst) for src, dst in enumerate(targets)]


def pair_flows(
    src_tor: int,
    dst_tor: int,
    hosts_per_tor: int,
    *,
    flows_per_pair: int,
    size_bytes: int,
) -> List[Tuple[int, int, int]]:
    """(src_host, dst_host, size) tuples for one ToR pair.

    Flows are spread over distinct host pairs round-robin so no host NIC
    is double-booked until ``flows_per_pair > hosts_per_tor``.
    """
    if src_tor == dst_tor:
        raise ValueError("source and destination ToR must differ")
    if flows_per_pair < 1:
        raise ValueError("need at least one flow")
    flows = []
    for i in range(flows_per_pair):
        src = src_tor * hosts_per_tor + (i % hosts_per_tor)
        dst = dst_tor * hosts_per_tor + (i % hosts_per_tor)
        flows.append((src, dst, size_bytes))
    return flows


def all_pairs_flows(
    num_tors: int,
    hosts_per_tor: int,
    *,
    flows_per_pair: int,
    size_bytes: int,
) -> List[Tuple[int, int, int]]:
    """Pair flows for every ordered ToR pair (uniform RDCN demand)."""
    flows = []
    for src_tor in range(num_tors):
        for dst_tor in range(num_tors):
            if src_tor != dst_tor:
                flows.extend(
                    pair_flows(
                        src_tor,
                        dst_tor,
                        hosts_per_tor,
                        flows_per_pair=flows_per_pair,
                        size_bytes=size_bytes,
                    )
                )
    return flows
