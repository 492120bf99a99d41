"""Tests for the microbenchmarks and application workloads."""

import pytest

from helpers import small_config

from repro.errors import WorkloadError
from repro.workloads.graphproc import GraphTraversalWorkload, SyntheticPowerLawGraph
from repro.workloads.kvstore import KeyValueStoreWorkload, ZipfKeySampler
from repro.workloads.microbench import (
    RemoteReadBandwidthBenchmark,
    RemoteReadLatencyBenchmark,
    _read_entries,
)


class TestEntryGenerator:
    def test_bounded_generator_yields_exactly_count(self):
        entries = list(_read_entries(5, 128, core_id=0))
        assert len(entries) == 5
        assert all(entry.length == 128 for entry in entries)

    def test_offsets_stay_inside_the_region(self):
        for entry in _read_entries(50, 8192, core_id=3, region_bytes=1 << 20):
            assert 0 <= entry.remote_offset
            assert entry.remote_offset + entry.length <= 1 << 20

    def test_invalid_size_rejected(self):
        with pytest.raises(WorkloadError):
            next(_read_entries(1, 0, core_id=0))


class TestLatencyBenchmark:
    def test_single_size_run(self, split_config):
        bench = RemoteReadLatencyBenchmark(split_config, iterations=3, warmup=1, tile_ids=(5,))
        result = bench.run(64)
        assert result.design == "split"
        assert len(result.samples_cycles) == 3
        assert result.mean_cycles > 300
        assert result.mean_ns == pytest.approx(result.mean_cycles / 2.0)

    def test_latency_grows_with_transfer_size(self, split_config):
        bench = RemoteReadLatencyBenchmark(split_config, iterations=3, warmup=1, tile_ids=(5,))
        assert bench.run(2048).mean_cycles > bench.run(64).mean_cycles

    def test_sweep_returns_one_result_per_size(self, split_config):
        bench = RemoteReadLatencyBenchmark(split_config, iterations=2, warmup=1, tile_ids=(5,))
        results = bench.sweep([64, 256])
        assert [r.transfer_bytes for r in results] == [64, 256]

    def test_invalid_parameters_rejected(self, split_config):
        with pytest.raises(WorkloadError):
            RemoteReadLatencyBenchmark(split_config, iterations=0)
        with pytest.raises(WorkloadError):
            RemoteReadLatencyBenchmark(split_config, warmup=-1)


class TestBandwidthBenchmark:
    def test_short_run_reports_positive_bandwidth(self, split_config):
        bench = RemoteReadBandwidthBenchmark(split_config, warmup_cycles=1000, measure_cycles=3000)
        result = bench.run(512)
        assert result.application_gbps > 0
        assert result.rcp_payload_bytes > 0
        assert result.rrpp_payload_bytes > 0
        assert result.noc_wire_gbps > result.application_gbps
        assert 0 < result.max_link_utilization <= 1.0

    def test_outstanding_limit_scales_with_transfer_size(self, split_config):
        bench = RemoteReadBandwidthBenchmark(split_config)
        assert bench.max_outstanding_for(64) == split_config.ni.wq_entries
        assert bench.max_outstanding_for(8192) == 4

    def test_invalid_windows_rejected(self, split_config):
        with pytest.raises(WorkloadError):
            RemoteReadBandwidthBenchmark(split_config, measure_cycles=0)


class TestZipfSampler:
    def test_samples_are_within_key_space(self):
        sampler = ZipfKeySampler(keys=1000, seed=1)
        assert all(0 <= sampler.sample() < 1000 for _ in range(200))

    def test_distribution_is_skewed(self):
        sampler = ZipfKeySampler(keys=1000, skew=1.2, seed=2)
        counts = {}
        for _ in range(2000):
            key = sampler.sample()
            counts[key] = counts.get(key, 0) + 1
        top = max(counts.values())
        assert top > 2000 / 1000 * 5  # far above uniform expectation

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            ZipfKeySampler(keys=0)


class TestKeyValueStore:
    def test_run_completes_and_reports(self, split_config):
        workload = KeyValueStoreWorkload(
            split_config, value_bytes=256, active_cores=2, gets_per_core=6, rack_nodes=16
        )
        result = workload.run()
        assert result.gets_issued == 12
        assert result.remote_gets + result.local_gets == result.gets_issued
        assert result.remote_gets > 0
        assert result.throughput_mops > 0
        assert result.mean_latency_cycles > 0

    def test_key_partitioning_is_deterministic(self, split_config):
        workload = KeyValueStoreWorkload(split_config, rack_nodes=8)
        assert workload.owner_node(1234) == workload.owner_node(1234)
        assert 0 <= workload.owner_node(999) < 8

    def test_invalid_parameters(self, split_config):
        with pytest.raises(WorkloadError):
            KeyValueStoreWorkload(split_config, value_bytes=0)
        with pytest.raises(WorkloadError):
            KeyValueStoreWorkload(split_config, active_cores=0)


class TestGraphWorkload:
    def test_synthetic_graph_structure(self):
        graph = SyntheticPowerLawGraph(vertices=256, edges_per_vertex=4, seed=1)
        assert graph.degree(0) > 0
        assert graph.adjacency_bytes(0) >= 8
        degrees = sorted((graph.degree(v) for v in range(256)), reverse=True)
        assert degrees[0] > degrees[-1]  # power-law-ish: hubs exist

    def test_traversal_run(self, split_config):
        graph = SyntheticPowerLawGraph(vertices=256, edges_per_vertex=4, seed=1)
        workload = GraphTraversalWorkload(
            split_config, graph=graph, rack_nodes=16, active_cores=2, max_vertices=20
        )
        result = workload.run()
        assert result.vertices_visited == 20
        assert result.remote_vertex_fetches > 0
        assert result.edges_traversed > 0
        assert result.bytes_fetched > 0
        assert result.edges_per_microsecond > 0

    def test_invalid_parameters(self, split_config):
        with pytest.raises(WorkloadError):
            GraphTraversalWorkload(split_config, max_vertices=0)
        with pytest.raises(WorkloadError):
            SyntheticPowerLawGraph(vertices=1)
