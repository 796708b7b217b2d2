#!/usr/bin/env python3
"""A custom fabric in a dozen lines: a leaf-spine registered by name.

A fabric is nodes plus links.  The builder below creates its switches,
hangs hosts off the leaves with ``attach_host``, joins every leaf to
every spine with ``link`` and calls ``install_routes()``; the ECMP rows
(every shortest path, in wiring order), the per-pair base RTTs and the
ideal-FCT hop profiles are derived from that wiring — nothing about
routing or RTTs is written out by hand.

The script registers the builder with ``@register_topology``, runs a
handful of PowerTCP long flows across the spines, and prints per-pair
base RTTs and the route rows of one leaf.

Run:  python examples/custom_topology.py     (HORIZON_NS tunes run length)
"""

import os
from dataclasses import dataclass

from repro.experiments.driver import FlowDriver
from repro.sim.buffer import SharedBuffer
from repro.sim.engine import Simulator
from repro.sim.switch import Switch
from repro.topology import Network, build_topology, register_topology
from repro.units import GBPS, MSEC, USEC

HORIZON_NS = int(os.environ.get("HORIZON_NS", 4 * MSEC))

FLOW_BYTES = 2_000_000


@dataclass
class LeafSpineParams:
    leaves: int = 3
    spines: int = 2
    hosts_per_leaf: int = 2
    host_bw_bps: float = 25 * GBPS
    fabric_bw_bps: float = 100 * GBPS
    link_delay_ns: int = 1 * USEC
    buffer_bytes: int = 2_000_000


@register_topology("leaf-spine", params_cls=LeafSpineParams)
def build_leaf_spine(sim, params=None):
    """Two-tier Clos: every leaf links to every spine."""
    p = params or LeafSpineParams()
    net = Network(sim, name="leaf-spine")
    net.host_bw_bps = p.host_bw_bps

    def switch(name):
        buffer = SharedBuffer(p.buffer_bytes, alpha=1.0)
        return net.add_switch(Switch(sim, len(net.switches), name, buffer=buffer))

    leaves = [switch(f"leaf{i}") for i in range(p.leaves)]
    spines = [switch(f"spine{j}") for j in range(p.spines)]
    for leaf in leaves:
        for _ in range(p.hosts_per_leaf):
            net.attach_host(leaf, p.host_bw_bps, p.link_delay_ns, int_stamping=True)
    for i, leaf in enumerate(leaves):
        for j, spine in enumerate(spines):
            net.link(leaf, spine, p.fabric_bw_bps, p.link_delay_ns,
                     names=(f"leaf{i}-up{j}", f"spine{j}-down{i}"), int_stamping=True)
    net.install_routes()
    net.base_rtt_ns = net.path_rtt_ns(0, net.num_hosts - 1)  # first to last leaf
    return net


def main() -> None:
    p = LeafSpineParams()
    net = build_topology(Simulator(), "leaf-spine", p)
    print(f"{net.name}: {net.num_hosts} hosts, {len(net.switches)} switches, "
          f"base RTT {net.base_rtt_ns} ns")

    print("per-pair base RTT (ns) from host 0:")
    for dst in range(1, net.num_hosts):
        rates, _delays = net.path_profile(0, dst)
        print(f"  0 -> {dst}: {net.path_rtt_ns(0, dst):>6d}  "
              f"({len(rates)} links: {', '.join(f'{r / GBPS:g}G' for r in rates)})")

    leaf0 = net.switches[0]
    print(f"route rows of {leaf0.name} (candidates in wiring order):")
    for dst, row in sorted(leaf0.routes.items()):
        print(f"  dst {dst}: {', '.join(port.name for port in row)}")

    # One long flow from every host to the host one leaf over: all of
    # them cross the spines, spread by the flow hash over the derived rows.
    driver = FlowDriver(net, "powertcp")
    flows = [
        driver.start_flow(
            src, (src + p.hosts_per_leaf) % net.num_hosts, FLOW_BYTES, at_ns=0
        )
        for src in range(net.num_hosts)
    ]
    driver.run(until_ns=HORIZON_NS)
    done = [f for f in flows if f.completed]
    print(f"{len(done)}/{len(flows)} PowerTCP flows done in {HORIZON_NS / 1e6:g} ms")
    for flow in done:
        ideal = net.ideal_fct_ns(flow.src, flow.dst, flow.size_bytes)
        print(f"  {flow.src} -> {flow.dst}: FCT {flow.fct_ns / 1e3:8.1f} us "
              f"(slowdown {flow.fct_ns / ideal:.2f})")
    for up in leaf0.routes[net.num_hosts - 1]:
        print(f"  {up.name}: {up.tx_bytes} B transmitted")


if __name__ == "__main__":
    main()
