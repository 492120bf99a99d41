#!/usr/bin/env python
"""Partitioned key-value store GETs over one-sided remote reads.

The paper's introduction motivates rack-scale remote memory with distributed
key-value stores whose objects are a few hundred bytes (§2.1).  This example
runs the GET workload of :mod:`repro.workloads.kvstore` for two object sizes
under the NIedge and NIsplit designs and reports throughput, mean latency and
the fraction of GETs that had to cross the rack.

Run with::

    python examples/key_value_store.py
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.config import SystemConfig
from repro.node.soc import ManycoreSoc
from repro.workloads.kvstore import KeyValueStoreWorkload

VALUE_SIZES = (128, 512)
DESIGNS = ("edge", "split")


def main() -> None:
    config = SystemConfig.paper_defaults()
    rows = []
    for value_bytes in VALUE_SIZES:
        for design in DESIGNS:
            design_config = config.with_design(design)
            workload = KeyValueStoreWorkload(
                design_config,
                value_bytes=value_bytes,
                active_cores=8,
                gets_per_core=16,
                rack_nodes=64,
            )
            metrics = workload.run_on(ManycoreSoc(design_config))
            rows.append([
                value_bytes,
                design,
                metrics["remote_gets"],
                100.0 * metrics["remote_fraction"],
                metrics["mean_latency_ns"],
                metrics["throughput_mops"],
            ])
    print("Key-value store GETs from the simulated node (8 cores active)")
    print(format_table(
        ["value (B)", "NI design", "remote GETs", "remote (%)", "mean latency (ns)", "MOPS"],
        rows,
    ))
    print()
    print("Fine-grained GETs are dominated by the QP interactions, so the split")
    print("design's local WQ/CQ handling shows up directly in the GET latency.")


if __name__ == "__main__":
    main()
