#!/usr/bin/env python3
"""Fig. 8 scenario: congestion control on a reconfigurable datacenter.

One ToR pair runs persistent flows; a rotating optical circuit gives them
100 Gbps for 225 us days between 20 us reconfiguration nights, with a
25 Gbps packet network always available.  Prints circuit utilization,
VOQ occupancy and tail queuing latency for PowerTCP, HPCC, and reTCP
with both paper prebuffer settings.

Run:  python examples/rdcn_circuit.py        (HORIZON_NS tunes run length)
"""

import os

from repro.experiments.rdcn import (
    RdcnConfig,
    run_rdcn,
    scaled_prebuffer_ns,
    scaled_rdcn,
)
from repro.units import GBPS, MSEC, USEC

HORIZON_NS = int(os.environ.get("HORIZON_NS", 4 * MSEC))

VARIANTS = [
    ("powertcp", 0),
    ("hpcc", 0),
    ("retcp", 600 * USEC),
    ("retcp", 1800 * USEC),
]


def main() -> None:
    print("RDCN ToR pair: 25G packet network + rotating 100G circuit")
    print()
    for algorithm, paper_prebuffer in VARIANTS:
        prebuffer = (
            scaled_prebuffer_ns(scaled_rdcn(), paper_prebuffer)
            if paper_prebuffer
            else 0
        )
        result = run_rdcn(
            RdcnConfig(
                algorithm=algorithm,
                # fields laid over scaled_rdcn(), as `--set` or a
                # campaign manifest would give them
                topology_params={"packet_bw_bps": 25 * GBPS},
                prebuffer_ns=prebuffer,
                duration_ns=HORIZON_NS,
            )
        )
        name = (
            f"{algorithm}-{paper_prebuffer // 1000}us"
            if paper_prebuffer
            else algorithm
        )
        print(f"--- {name} ---")
        print(f"  circuit utilization: {result.circuit_utilization:.0%}")
        print(f"  peak circuit VOQ:    {result.peak_voq_bytes() / 1000:.0f} KB")
        print(
            f"  p99 queuing latency: "
            f"{result.tail_queuing_latency_ns / 1000:.1f} us"
        )
        print(f"  pair goodput:        {result.mean_goodput_bps / 1e9:.1f} Gbps")
        print()
    print("paper: reTCP fills instantly but pays latency; HPCC keeps the")
    print("VOQ empty but underfills; PowerTCP achieves both (80-85% util).")


if __name__ == "__main__":
    main()
