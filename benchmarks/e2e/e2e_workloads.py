"""The six benchmark workloads: command lines, input shaping, checks.

Every workload is one ``python -m repro ...`` command line built from the
benchmark seed.  Sizes are for the 2-core reference box (~500 k
events/s): each simulation body takes a little over 3 s (~1.55 M events),
each grid 3.3-4 s.

Input shaping.  The fat-tree workloads draw their flows from the seed,
and the raw draw varies the amount of simulated work by +-15 % (heavy-
tailed web-search sizes; 2-, 4- or 6-link paths).  A benchmark whose
work depends on the seed cannot tell a regression from an unlucky seed,
so the harness fixes the *offered link-packets* (packets x links
crossed, which tracks the event count to ~1 %) and lets the seed choose
the content: ``websearch_fattree`` keeps the first ``n(seed)`` flows of
the seed's Poisson draw whose link-packets reach the budget;
``permutation_spray`` sizes its 32 equal flows so the seed's
permutation crosses the budget.  Both use the repo's own generators, so
the program receives exactly the inputs computed here.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

ALGORITHMS = ["powertcp", "theta-powertcp", "hpcc", "timely", "dcqcn", "homa"]

#: simulated payload bytes per packet (every scenario's mtu_payload default)
MTU_PAYLOAD = 1000


@dataclass(frozen=True)
class Plan:
    """One concrete invocation of a workload."""

    argv: List[str]  #: arguments after ``python -m repro``
    out_path: Optional[str]  #: persisted grid document (None: JSON on stdout)
    cells: int  #: scenario cells (= operations) the run must produce
    workers: int  #: processes that execute cells concurrently


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    plan: Callable[[int, bool, str, bool], Plan]  #: (seed, tiny, run_dir, traced)
    check: Callable[[List[Dict[str, Any]]], List[str]]
    probes: Tuple[str, ...] = ()  #: e2e_tracer probes that belong to it


def _sets(**overrides) -> List[str]:
    argv = []
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    return argv


# ----------------------------------------------------------------------
# Input shaping on the scaled fat-tree
# ----------------------------------------------------------------------
def _links(params, src: int, dst: int) -> int:
    """Links a packet crosses between two hosts of the 2-tier fat-tree."""
    src_tor, dst_tor = src // params.hosts_per_tor, dst // params.hosts_per_tor
    if src_tor == dst_tor:
        return 2
    if src_tor // params.tors_per_pod == dst_tor // params.tors_per_pod:
        return 4
    return 6


WEBSEARCH = dict(load=0.6, duration_ns=60_000_000, drain_ns=60_000_000,
                 size_scale=0.0625)


def websearch_max_flows(seed: int, link_packets: int) -> int:
    """How many flows of the seed's Poisson draw offer ``link_packets``."""
    from repro.experiments.websearch import scaled_fattree
    from repro.workloads.arrivals import poisson_flows
    from repro.workloads.distributions import WEB_SEARCH

    params = scaled_fattree()
    requests = poisson_flows(
        random.Random(seed),
        params,
        WEB_SEARCH.scaled(WEBSEARCH["size_scale"]),
        WEBSEARCH["load"],
        WEBSEARCH["duration_ns"],
    )
    best, best_error, offered = 1, None, 0
    for count, request in enumerate(requests, start=1):
        packets = -(-request.size_bytes // MTU_PAYLOAD)
        offered += packets * _links(params, request.src, request.dst)
        error = abs(offered - link_packets)
        if best_error is None or error < best_error:
            best, best_error = count, error
        if offered >= link_packets:
            break
    return best


def permutation_flow_bytes(seed: int, flows: int, link_packets: int) -> int:
    """Per-flow size at which the seed's permutation offers ``link_packets``."""
    from repro.experiments.websearch import scaled_fattree
    from repro.sim.engine import Simulator
    from repro.topology.registry import build_topology

    params = scaled_fattree()
    net = build_topology(Simulator(), "fattree", params)
    pairs = net.flow_pairs(flows, random.Random(seed))
    links = sum(_links(params, src, dst) for src, dst in pairs)
    return link_packets * MTU_PAYLOAD // links


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
def _plan_websearch(seed: int, tiny: bool, run_dir: str, traced: bool) -> Plan:
    flows = websearch_max_flows(seed, 6_000 if tiny else 380_000)
    argv = ["run", "websearch", "--algorithm", "powertcp"]
    argv += _sets(**WEBSEARCH, max_flows=flows, seed=seed) + ["--json"]
    return Plan(argv, None, 1, 1)


def _plan_incast_cc(seed: int, tiny: bool, run_dir: str, traced: bool) -> Plan:
    out = os.path.join(run_dir, "incast_cc_grid.json")
    argv = ["sweep", "incast", "--algorithms", ",".join(ALGORITHMS),
            "--fanouts", "64,255"]
    argv += _sets(burst_bytes=60_000 + 500 * (seed % 16),
                  duration_ns=400_000 if tiny else 9_000_000)
    argv += ["--jobs", "1", "--force", "--out", out]
    return Plan(argv, out, 12, 1)


def _plan_spray(seed: int, tiny: bool, run_dir: str, traced: bool) -> Plan:
    flow_bytes = permutation_flow_bytes(seed, 32, 6_000 if tiny else 375_000)
    argv = ["run", "lb_matrix", "--algorithm", "powertcp"]
    argv += _sets(routing="spray", load=2.0, flow_bytes=flow_bytes,
                  duration_ns=4_000_000, drain_ns=100_000_000, seed=seed)
    return Plan(argv + ["--json"], None, 1, 1)


def _plan_rdcn(seed: int, tiny: bool, run_dir: str, traced: bool) -> Plan:
    argv = ["run", "rdcn", "--algorithm", "powertcp"]
    argv += _sets(duration_ns=400_000 if tiny else 19_000_000,
                  dst_tor=1 + seed % 3)
    return Plan(argv + ["--json"], None, 1, 1)


def _grid(tiny: bool) -> Dict[str, List]:
    """The orchestration grid shared by ``sweep_grid`` and ``campaign_grid``."""
    if tiny:
        return {"algorithm": ALGORITHMS[:2], "fanout": [4, 8],
                "burst_bytes": [10_000, 20_000]}
    return {"algorithm": ALGORITHMS, "fanout": list(range(4, 33, 4)),
            "burst_bytes": [10_000, 20_000, 30_000]}


def _grid_cells(grid: Dict[str, List]) -> int:
    cells = 1
    for values in grid.values():
        cells *= len(values)
    return cells


GRID_BASE = dict(duration_ns=2_000_000)


def _plan_sweep_grid(seed: int, tiny: bool, run_dir: str, traced: bool) -> Plan:
    grid = _grid(tiny)
    out = os.path.join(run_dir, "sweep_grid.json")
    argv = ["sweep", "incast",
            "--algorithms", ",".join(grid["algorithm"]),
            "--fanouts", ",".join(str(v) for v in grid["fanout"]),
            "--grid", "burst_bytes=" + ",".join(str(v) for v in grid["burst_bytes"])]
    argv += _sets(**GRID_BASE)
    argv += ["--seed", str(seed), "--jobs", "2", "--force", "--out", out]
    return Plan(argv, out, _grid_cells(grid), 2)


def _plan_campaign_grid(seed: int, tiny: bool, run_dir: str, traced: bool) -> Plan:
    grid = _grid(tiny)
    out = os.path.join(run_dir, "campaign_grid.json")
    manifest = {
        "scenario": "incast", "grid": grid, "base": GRID_BASE, "seed": seed,
        "workers": 2, "shards": 2, "journal_fsync": True, "out": out,
    }
    if traced:
        # how the tracer reaches the spawned workers (see e2e_worker_hook)
        manifest["modules"] = ["e2e_worker_hook"]
    path = os.path.join(run_dir, "campaign_grid.manifest.json")
    with open(path, "w") as handle:
        json.dump(manifest, handle)
    return Plan(["campaign", path, "--quiet"], out, _grid_cells(grid), 2)


# ----------------------------------------------------------------------
# Workload invariants (over the cells a run produced)
# ----------------------------------------------------------------------
def _check_all_complete(cells) -> List[str]:
    metrics = cells[0]["metrics"]
    if metrics["completed"] != metrics["total_flows"]:
        return [f"{metrics['completed']}/{metrics['total_flows']} flows completed"]
    return []


def _check_lossless(cells) -> List[str]:
    drops = cells[0]["metrics"]["drops"]
    return [f"{drops} drops on a lossless workload"] if drops else []


def _check_incast_drops(cells) -> List[str]:
    """The 255:1 cells must overflow the shallow buffer, so the
    retransmit/RTO path is inside the measured traffic."""
    return [
        f"no drops at 255:1 under {cell['params']['algorithm']}"
        for cell in cells
        if cell["params"]["fanout"] == 255 and not cell["metrics"]["drops"]
    ]


def _check_nothing(cells) -> List[str]:
    return []


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "websearch_fattree",
            "paper's headline (fig. 6/7): ~800-flow web-search churn over 4-6 "
            "link ECMP paths, INT stamping and PowerTCP on_ack; the default "
            "inlined fast path",
            _plan_websearch, _check_all_complete, ("hold",),
        ),
        Workload(
            "incast_cc_grid",
            "fig. 4 grid on the dumbbell: one deep queue, six CC laws, 255:1 "
            "cells that drop so retransmit/RTO run; routing idle; inline "
            "SweepRunner and JSON persist",
            _plan_incast_cc, _check_incast_drops, ("hold",),
        ),
        Workload(
            "permutation_spray",
            "same fabric as websearch_fattree through the generic Switch and "
            "RoutingPolicy.select with reorder-tolerant receivers; 32 "
            "long flows, so flow set-up is nil",
            _plan_spray, _check_all_complete, ("hold",),
        ),
        Workload(
            "rdcn_circuit",
            "paper section 5: CircuitPort/VOQ on the general port body, "
            "circuit day/night timers, per-packet queuing-delay recording "
            "and an 88 KB result",
            _plan_rdcn, _check_lossless, ("hold",),
        ),
        Workload(
            "sweep_grid",
            "orchestration-bound: 144 cells of ~40 ms through the process "
            "pool, result pickling and a 1.35 MB persist; sim layers do "
            "little per cell",
            _plan_sweep_grid, _check_nothing,
        ),
        Workload(
            "campaign_grid",
            "the same 144 cells through the campaign executor: worker "
            "spawn, line-JSON round trips, fsynced journal, shard merge",
            _plan_campaign_grid, _check_nothing,
            ("spawn", "journal", "atomic_write"),
        ),
    ]
}


# ----------------------------------------------------------------------
# Reading a run's outputs
# ----------------------------------------------------------------------
def load_cells(plan: Plan, stdout_path: str) -> List[Dict[str, Any]]:
    """The cell documents a finished run produced (raises on bad JSON)."""
    if plan.out_path is None:
        with open(stdout_path) as handle:
            doc = json.load(handle)
        return [dict(doc, params={})]
    with open(plan.out_path) as handle:
        return json.load(handle)["cells"]


def fingerprint(cells: List[Dict[str, Any]]) -> str:
    """sha256 over every cell's parameters, event count and scalar
    metrics — the simulated statistics a host-side change must not move."""
    rows = sorted(
        json.dumps(
            [cell["params"], cell["provenance"]["events_processed"],
             cell["metrics"]],
            sort_keys=True,
        )
        for cell in cells
    )
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def body_seconds(cells: List[Dict[str, Any]]) -> float:
    """Seconds inside simulation bodies, as the program itself timed them."""
    return sum(cell["provenance"]["wall_time_s"] for cell in cells)


def output_bytes(plan: Plan, stdout_path: str) -> int:
    return os.path.getsize(plan.out_path or stdout_path)
