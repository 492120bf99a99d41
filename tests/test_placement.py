"""Tests for NI/MC/LLC placement on both topologies (§4.2, §4.3)."""

import pytest

from repro.config import SystemConfig
from repro.core.placement import build_placement
from repro.errors import PlacementError


class TestMeshPlacement:
    @pytest.fixture
    def placement(self):
        return build_placement(SystemConfig.paper_defaults())

    def test_counts(self, placement):
        assert placement.tile_count == 64
        assert placement.llc_slice_count == 64
        assert len(placement.mc_nodes) == 8
        assert len(placement.rrpp_nodes) == 8
        assert len(placement.backend_nodes) == 8

    def test_nis_and_mcs_on_opposite_edges(self, placement):
        assert all(node[0] == 0 for node in placement.rrpp_nodes)
        assert all(node[0] == 0 for node in placement.backend_nodes)
        assert all(node[0] == 7 for node in placement.mc_nodes)

    def test_llc_slices_collocated_with_tiles(self, placement):
        assert placement.llc_nodes == placement.tile_nodes

    def test_backend_mapping_is_row_local(self, placement):
        for tile_id in range(64):
            row = tile_id // 8
            assert placement.backend_index_for_tile(tile_id) == row
            assert placement.backend_nodes[row][1] == row

    def test_network_port_is_the_row_edge(self, placement):
        assert placement.network_port_node((5, 3)) == (0, 3)
        assert placement.network_port_node((0, 6)) == (0, 6)

    def test_edge_ni_mapping_matches_backend_mapping(self, placement):
        for tile_id in range(0, 64, 7):
            assert placement.edge_ni_index_for_tile(tile_id) == placement.backend_index_for_tile(tile_id)

    def test_out_of_range_tile_rejected(self, placement):
        with pytest.raises(PlacementError):
            placement.backend_index_for_tile(64)

    def test_bad_port_query_rejected(self, placement):
        with pytest.raises(PlacementError):
            placement.network_port_node("not-a-node")


class TestNocOutPlacement:
    @pytest.fixture
    def placement(self):
        return build_placement(SystemConfig.noc_out_defaults())

    def test_counts(self, placement):
        assert placement.tile_count == 64
        assert placement.llc_slice_count == 8
        assert len(placement.backend_nodes) == 8

    def test_rrpps_live_on_llc_tiles(self, placement):
        assert set(placement.rrpp_nodes) <= set(placement.llc_nodes)

    def test_backend_mapping_is_column_local(self, placement):
        for tile_id in range(64):
            assert placement.backend_index_for_tile(tile_id) == tile_id % 8

    def test_network_port_is_the_column_llc_tile(self, placement):
        assert placement.network_port_node(("core", 3, 5)) == ("llc", 3)
        assert placement.network_port_node(("llc", 2)) == ("llc", 2)
        assert placement.network_port_node(("mc", 4)) == ("llc", 4)

    def test_kind_marker(self, placement):
        assert placement.kind == "noc_out"
