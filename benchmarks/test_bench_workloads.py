"""Benchmarks for the application-level workloads (key-value store, graph traversal).

These are not paper figures; they exercise the public API end to end on the
two application classes the paper's introduction motivates and track their
throughput over time.
"""

from repro.config import SystemConfig
from repro.node.soc import ManycoreSoc
from repro.workloads.graphproc import GraphTraversalWorkload, SyntheticPowerLawGraph
from repro.workloads.kvstore import KeyValueStoreWorkload


def test_bench_kvstore_gets(benchmark):
    config = SystemConfig.paper_defaults().with_design("split")
    workload = KeyValueStoreWorkload(
        config,
        value_bytes=512,
        active_cores=8,
        gets_per_core=12,
        rack_nodes=64,
    )
    metrics = benchmark.pedantic(workload.run_on, args=(ManycoreSoc(config),),
                                 rounds=1, iterations=1)
    assert metrics["remote_gets"] > 0
    assert metrics["throughput_mops"] > 0
    assert metrics["mean_latency_ns"] > 0


def test_bench_graph_traversal(benchmark):
    graph = SyntheticPowerLawGraph(vertices=2048, edges_per_vertex=8, seed=2)
    config = SystemConfig.paper_defaults().with_design("split")
    workload = GraphTraversalWorkload(
        config,
        graph=graph,
        rack_nodes=64,
        active_cores=4,
        max_vertices=80,
    )
    metrics = benchmark.pedantic(workload.run_on, args=(ManycoreSoc(config),),
                                 rounds=1, iterations=1)
    assert metrics["remote_vertex_fetches"] > 0
    assert metrics["edges_per_microsecond"] > 0
