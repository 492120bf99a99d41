"""Benchmarks for the application-level workloads (key-value store, graph traversal).

These are not paper figures; they exercise the public API end to end on the
two application classes the paper's introduction motivates and track their
throughput over time.
"""

from repro.config import SystemConfig
from repro.workloads.graphproc import GraphTraversalWorkload, SyntheticPowerLawGraph
from repro.workloads.kvstore import KeyValueStoreWorkload


def test_bench_kvstore_gets(benchmark):
    workload = KeyValueStoreWorkload(
        SystemConfig.paper_defaults().with_design("split"),
        value_bytes=512,
        active_cores=8,
        gets_per_core=12,
        rack_nodes=64,
    )
    result = benchmark.pedantic(workload.run, rounds=1, iterations=1)
    assert result.remote_gets > 0
    assert result.throughput_mops > 0
    assert result.mean_latency_ns > 0


def test_bench_graph_traversal(benchmark):
    graph = SyntheticPowerLawGraph(vertices=2048, edges_per_vertex=8, seed=2)
    workload = GraphTraversalWorkload(
        SystemConfig.paper_defaults().with_design("split"),
        graph=graph,
        rack_nodes=64,
        active_cores=4,
        max_vertices=80,
    )
    result = benchmark.pedantic(workload.run, rounds=1, iterations=1)
    assert result.remote_vertex_fetches > 0
    assert result.edges_per_microsecond > 0
