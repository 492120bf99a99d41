#!/usr/bin/env python
"""Distributed graph traversal over one-sided remote reads.

Graph analytics is the paper's second motivating application class (§1):
vertices are hash-partitioned across the rack and visiting a remote vertex
pulls its whole adjacency list with a single one-sided read, which the RGP
unrolls into cache-block requests in hardware.  This example traverses a
synthetic power-law graph under the NIsplit and NIper-tile designs and
reports edge throughput and fetch bandwidth — the regime where backend
placement (edge vs per-tile) matters most.

Run with::

    python examples/graph_traversal.py
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.config import SystemConfig
from repro.workloads.graphproc import GraphTraversalWorkload, SyntheticPowerLawGraph

DESIGNS = ("split", "per_tile")


def main() -> None:
    config = SystemConfig.paper_defaults()
    graph = SyntheticPowerLawGraph(vertices=4096, edges_per_vertex=12, seed=3)
    rows = []
    for design in DESIGNS:
        workload = GraphTraversalWorkload(
            config.with_design(design),
            graph=graph,
            rack_nodes=64,
            active_cores=4,
            max_vertices=120,
        )
        result = workload.run()
        rows.append([
            design,
            result.vertices_visited,
            result.remote_vertex_fetches,
            result.edges_traversed,
            result.bytes_fetched // 1024,
            result.edges_per_microsecond,
            result.fetch_bandwidth_gbps,
        ])
    print("Bounded BFS over a hash-partitioned power-law graph (4 cores active)")
    print(format_table(
        ["NI design", "vertices", "remote fetches", "edges", "KiB fetched",
         "edges/us", "fetch GBps"],
        rows,
    ))
    print()
    print("Adjacency lists span multiple cache blocks, so the per-tile design's")
    print("source-tile unrolling costs it bandwidth relative to the split design.")


if __name__ == "__main__":
    main()
