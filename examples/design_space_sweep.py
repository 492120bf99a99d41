#!/usr/bin/env python
"""Design-space sweep: latency and bandwidth of the three NI designs.

A scaled-down version of the paper's Figures 6 and 7: synchronous
remote-read latency and asynchronous application bandwidth for NIedge,
NIper-tile and NIsplit over a few transfer sizes on the mesh NOC.  Takes a
couple of minutes; shrink the size lists or the measurement window to make
it faster.

Run with::

    python examples/design_space_sweep.py
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.config import SystemConfig
from repro.workloads.microbench import (
    RemoteReadBandwidthBenchmark,
    RemoteReadLatencyBenchmark,
)

LATENCY_SIZES = (64, 1024, 8192)
BANDWIDTH_SIZES = (64, 1024, 4096)
DESIGNS = ("edge", "split", "per_tile")


def latency_sweep(config: SystemConfig) -> None:
    rows = []
    results = {}
    for design in DESIGNS:
        bench = RemoteReadLatencyBenchmark(config.with_design(design), iterations=4, warmup=1)
        for size in LATENCY_SIZES:
            results[(design, size)] = bench.run(size).mean_ns
    for size in LATENCY_SIZES:
        rows.append([size] + [results[(design, size)] for design in DESIGNS])
    print("Synchronous remote-read latency (ns), one rack hop  [cf. Fig. 6]")
    print(format_table(["transfer (B)", "NIedge", "NIsplit", "NIper-tile"], rows))
    print()


def bandwidth_sweep(config: SystemConfig) -> None:
    rows = []
    results = {}
    for design in DESIGNS:
        bench = RemoteReadBandwidthBenchmark(
            config.with_design(design), warmup_cycles=3_000, measure_cycles=8_000
        )
        for size in BANDWIDTH_SIZES:
            results[(design, size)] = bench.run(size).application_gbps
    for size in BANDWIDTH_SIZES:
        rows.append([size] + [results[(design, size)] for design in DESIGNS])
    print("Aggregate application bandwidth (GBps), 64 cores  [cf. Fig. 7]")
    print(format_table(["transfer (B)", "NIedge", "NIsplit", "NIper-tile"], rows))
    print()


def main() -> None:
    config = SystemConfig.paper_defaults()
    latency_sweep(config)
    bandwidth_sweep(config)
    print("Expected shape (paper §6): NIedge pays a large constant latency penalty;")
    print("NIsplit matches NIper-tile latency and NIedge bandwidth; NIper-tile loses")
    print("bandwidth for bulk transfers because it unrolls at the source tile.")


if __name__ == "__main__":
    main()
