"""Tests for repro.config."""

import dataclasses
import math

import pytest

from helpers import cyclic_garbage

from repro.config import (
    CACHE_BLOCK_BYTES,
    LatencyCalibration,
    MemoryConfig,
    NIDesign,
    NocConfig,
    RackConfig,
    RoutingAlgorithm,
    SystemConfig,
)
from repro.errors import ConfigurationError
from repro.scenario.registry import NI_DESIGNS
from repro.scenario.spec import ScenarioSpec


class TestDefaults:
    def test_paper_defaults_match_table2(self):
        cfg = SystemConfig.paper_defaults()
        assert cfg.cores.count == 64
        assert cfg.cores.frequency_ghz == 2.0
        assert cfg.cores.l1_latency_cycles == 3
        assert cfg.llc.total_size_mib == 16
        assert cfg.llc.latency_cycles == 6
        assert cfg.noc.link_bytes == 16
        assert cfg.noc.mesh_hop_cycles == 3
        assert cfg.memory.latency_ns == 50.0
        assert cfg.ni.rrpp_count == 8
        assert cfg.ni.wq_entries == 128
        assert cfg.rack.nodes == 512
        assert cfg.rack.network_hop_ns == 35.0

    def test_derived_cycle_conversions(self):
        cfg = SystemConfig.paper_defaults()
        assert cfg.memory_latency_cycles == 100
        assert cfg.network_hop_cycles == 70
        assert cfg.ns_to_cycles(35.0) == 70
        assert cfg.cycles_to_ns(70) == pytest.approx(35.0)

    def test_mesh_side_and_tile_count(self):
        cfg = SystemConfig.paper_defaults()
        assert cfg.mesh_side == 8
        assert cfg.tile_count == 64

    def test_bisection_bandwidth_matches_paper(self):
        # 8 links x 16 B x 2 GHz x 2 directions = 512 GBps (§6.2).
        cfg = SystemConfig.paper_defaults()
        assert cfg.noc_bisection_bandwidth_gbps == pytest.approx(512.0)

    def test_flits_per_block_packet(self):
        cfg = SystemConfig.paper_defaults()
        assert cfg.blocks_per_noc_packet_flits == 5  # 1 header + 4 data flits

    def test_noc_out_defaults(self):
        cfg = SystemConfig.noc_out_defaults()
        assert cfg.noc.topology == "noc_out"

    def test_describe_mentions_key_parameters(self):
        text = SystemConfig.paper_defaults().describe()
        assert "64" in text and "MESI" in text.upper()


class TestDerivation:
    def test_with_design_returns_new_config(self):
        cfg = SystemConfig.paper_defaults()
        derived = cfg.with_design("edge")
        assert derived.ni.design == "edge"
        assert cfg.ni.design == "split"  # original untouched

    def test_with_routing(self):
        cfg = SystemConfig.paper_defaults().with_routing(RoutingAlgorithm.XY)
        assert cfg.noc.routing is RoutingAlgorithm.XY

    def test_with_topology(self):
        cfg = SystemConfig.paper_defaults().with_topology("noc_out")
        assert cfg.noc.topology == "noc_out"

    def test_messaging_designs_excludes_numa(self):
        designs = NI_DESIGNS.names(messaging=True)
        assert "numa" not in designs
        assert designs == ["edge", "per_tile", "split"]


class TestFingerprintPins:
    """Config and scenario fingerprints key cached results, so these literal
    values must not move."""

    @pytest.mark.parametrize("config, expected", [
        (SystemConfig.paper_defaults(), "ece36d5292d4646c"),
        (SystemConfig.noc_out_defaults(), "3d536f31ac288c08"),
    ])
    def test_default_configs(self, config, expected):
        assert config.fingerprint() == expected

    @pytest.mark.parametrize("design, expected", [
        ("split", "ece36d5292d4646c"),
        ("edge", "8418b8b9e67e07d3"),
        ("per_tile", "3183a3b95d4a0dfa"),
        ("numa", "2eb94191bcb54ac6"),
    ])
    def test_with_design(self, design, expected):
        assert SystemConfig.paper_defaults().with_design(design).fingerprint() == expected

    def test_scenario_spec_and_its_config(self):
        spec = ScenarioSpec(design="edge", topology="noc_out", workload="kvstore")
        assert spec.fingerprint() == "197497bea6fd5553"
        assert spec.resolve_config().fingerprint() == "e95d4561131f04d9"

    def test_fingerprint_leaves_no_cyclic_garbage(self):
        config = SystemConfig.paper_defaults()
        assert cyclic_garbage(config.fingerprint) == 0

    def test_enum_member_and_name_store_the_same_string(self):
        by_member = SystemConfig.paper_defaults().with_design(NIDesign.EDGE)
        by_name = SystemConfig.paper_defaults().with_design("edge")
        assert by_member.fingerprint() == by_name.fingerprint()
        assert type(by_member.ni.design) is str and by_member.ni.design == "edge"
        assert type(by_name.ni.design) is str and by_name.ni.design == "edge"


class TestValidation:
    def test_non_square_core_count_rejected_on_mesh(self):
        base = SystemConfig.paper_defaults()
        with pytest.raises(ConfigurationError):
            base.replace(cores=dataclasses.replace(base.cores, count=60))

    def test_negative_memory_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryConfig(latency_ns=-1).validate()

    def test_zero_link_width_rejected(self):
        with pytest.raises(ConfigurationError):
            NocConfig(link_bytes=0).validate()

    def test_torus_dims_must_match_node_count(self):
        with pytest.raises(ConfigurationError):
            RackConfig(nodes=512, torus_dims=(8, 8, 4)).validate()

    def test_negative_calibration_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyCalibration(rrpp_service_cycles=-1).validate()

    def test_cache_block_constant(self):
        assert CACHE_BLOCK_BYTES == 64


class TestCalibrationTotals:
    def test_table3_component_sums(self):
        """The calibrated constants must add up to the paper's totals."""
        cal = LatencyCalibration()
        network = 2 * 70
        edge = (cal.edge_wq_write_cycles + cal.edge_wq_read_cycles + network
                + cal.rrpp_service_cycles + cal.edge_cq_write_cycles + cal.edge_cq_read_cycles)
        per_tile = (cal.wq_write_instruction_cycles + cal.qp_entry_local_transfer_cycles
                    + cal.rgp_processing_cycles + cal.tile_to_edge_transfer_cycles + network
                    + cal.rrpp_service_cycles + cal.tile_to_edge_transfer_cycles
                    + cal.rcp_processing_cycles + cal.qp_entry_local_transfer_cycles
                    + cal.cq_read_instruction_cycles)
        split = (cal.wq_write_instruction_cycles + cal.qp_entry_local_transfer_cycles
                 + cal.rgp_frontend_cycles + cal.tile_to_edge_transfer_cycles
                 + cal.rgp_backend_cycles + network + cal.rrpp_service_cycles
                 + cal.rcp_backend_cycles + cal.tile_to_edge_transfer_cycles
                 + cal.rcp_frontend_cycles + cal.qp_entry_local_transfer_cycles
                 + cal.cq_read_instruction_cycles)
        numa = (cal.numa_issue_cycles + 2 * cal.tile_to_edge_transfer_cycles
                + network + cal.rrpp_service_cycles)
        assert edge == 710
        assert per_tile == 445
        assert split == 447
        assert numa == 395
