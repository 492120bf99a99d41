#!/usr/bin/env python
"""Quickstart: analytical breakdowns plus one simulated remote read.

Reproduces in a few seconds the headline comparison of the paper: the
zero-load latency of a single-cache-block remote read under the three
manycore NI designs and the idealized NUMA baseline (Table 3), and then
cross-checks the NIsplit number with the discrete-event simulator.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.analysis.breakdown import LatencyBreakdownModel
from repro.analysis.report import format_table
from repro.config import SystemConfig
from repro.workloads.microbench import RemoteReadLatencyBenchmark


def main() -> None:
    config = SystemConfig.paper_defaults()
    print("Modelled system (Table 2)")
    print("-" * 60)
    print(config.describe())
    print()

    # ------------------------------------------------------------------
    # Analytical zero-load breakdown (Table 3).
    # ------------------------------------------------------------------
    model = LatencyBreakdownModel(config)
    numa = model.breakdown("numa")
    rows = []
    for design in ("edge", "per_tile", "split", "numa"):
        breakdown = model.breakdown(design, hops=1)
        overhead = 0.0 if design == "numa" else 100 * breakdown.overhead_over(numa)
        rows.append([design, breakdown.total_cycles,
                     breakdown.total_ns(config.cores.frequency_ghz), overhead])
    print("Zero-load single-block remote read, one rack hop (Table 3)")
    print(format_table(["design", "cycles", "ns", "overhead over NUMA (%)"], rows))
    print()

    # ------------------------------------------------------------------
    # Simulated cross-check for the paper's proposed design (NIsplit).
    # ------------------------------------------------------------------
    bench = RemoteReadLatencyBenchmark(config.with_design("split"), iterations=5, warmup=2)
    result = bench.run(transfer_bytes=64)
    print("Simulated NIsplit 64-byte remote read: %.0f cycles (%.1f ns)"
          % (result.mean_cycles, result.mean_ns))
    print("Analytical NIsplit total           : %d cycles"
          % model.breakdown("split").total_cycles)


if __name__ == "__main__":
    main()
