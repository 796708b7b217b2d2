#!/usr/bin/env python3
"""ECMP hash collisions vs. per-packet spraying on a fat-tree.

ECMP hashes (flow, switch) to pick an uplink, so it is blind to load:
with 3 ToR uplinks, the five flows below happen to hash onto only two of
them — one uplink sits idle while another carries three flows.  The
``spray`` policy (repro.routing) instead rotates every packet over the
candidates, so the same workload loads all three uplinks evenly (its
receivers tolerate the reordering this causes).

The script runs the identical five-flow workload under both policies and
prints per-uplink transmitted bytes, the hotspot's peak queue, and flow
completion times.

Run:  python examples/ecmp_collisions.py      (HORIZON_NS tunes run length)
"""

import os

from repro.experiments.driver import FlowDriver
from repro.sim.engine import Simulator
from repro.topology.registry import build_topology, make_topology_params
from repro.units import GBPS, MSEC

HORIZON_NS = int(os.environ.get("HORIZON_NS", 20 * MSEC))

FLOW_BYTES = 200_000
NUM_FLOWS = 5


def run(routing: str) -> None:
    sim = Simulator()
    params = make_topology_params(
        "fattree",
        num_pods=2,
        tors_per_pod=2,
        aggs_per_pod=3,  # 3 uplinks per ToR: room for collisions to show
        num_cores=3,
        hosts_per_tor=NUM_FLOWS,
        host_bw_bps=10 * GBPS,
        fabric_bw_bps=10 * GBPS,
        routing=routing,
    )
    net = build_topology(sim, "fattree", params)
    driver = FlowDriver(net, "powertcp")

    # Five flows out of tor0 (hosts 0..4) into distinct pod-1 hosts: the
    # only shared links are tor0's three uplinks.
    pod1_first = 2 * NUM_FLOWS
    flows = [
        driver.start_flow(src, pod1_first + src, FLOW_BYTES, at_ns=0)
        for src in range(NUM_FLOWS)
    ]
    driver.run(until_ns=HORIZON_NS)

    uplinks = net.extras["tor_uplinks"][0]
    print(f"routing={routing}")
    for a, port in enumerate(uplinks):
        print(
            f"  tor0-up{a}: {port.tx_bytes:>9d} B tx, "
            f"peak queue {port.max_qlen_bytes:>7d} B"
        )
    done = [f for f in flows if f.completed]
    if done:
        worst = max(f.fct_ns for f in done)
        print(f"  {len(done)}/{len(flows)} flows done, "
              f"worst FCT {worst / 1e6:.3f} ms")
    print()


def main() -> None:
    run("ecmp")
    run("spray")
    print("ECMP leaves an uplink idle while three flows share another;")
    print("spray splits the same five flows' bytes evenly over all three.")


if __name__ == "__main__":
    main()
