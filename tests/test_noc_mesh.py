"""Tests for the mesh topology."""

import pytest

from repro.config import MessageClass, NocConfig, RoutingAlgorithm
from repro.errors import TopologyError
from repro.noc.mesh import MeshTopology


@pytest.fixture
def mesh() -> MeshTopology:
    return MeshTopology(8, NocConfig())


class TestStructure:
    def test_node_count(self, mesh):
        assert len(list(mesh.nodes())) == 64

    def test_tile_coordinate_round_trip(self, mesh):
        for tile_id in range(64):
            assert mesh.tile_id(mesh.tile_coord(tile_id)) == tile_id

    def test_tile_numbering_is_row_major(self, mesh):
        assert mesh.tile_coord(0) == (0, 0)
        assert mesh.tile_coord(7) == (7, 0)
        assert mesh.tile_coord(8) == (0, 1)
        assert mesh.tile_coord(63) == (7, 7)

    def test_out_of_range_tile_rejected(self, mesh):
        with pytest.raises(TopologyError):
            mesh.tile_coord(64)
        with pytest.raises(TopologyError):
            mesh.tile_id((8, 0))

    def test_edge_columns(self, mesh):
        assert mesh.ni_edge_column() == 0
        assert mesh.mc_edge_column() == 7
        assert mesh.edge_coord_for_row(3, 0) == (0, 3)
        assert mesh.edge_coord_for_row(3, 7) == (7, 3)
        with pytest.raises(TopologyError):
            mesh.edge_coord_for_row(3, 4)

    def test_invalid_side_rejected(self):
        with pytest.raises(TopologyError):
            MeshTopology(0, NocConfig())


class TestRoutingIntegration:
    def test_route_length_matches_manhattan_distance(self, mesh):
        links = mesh.route((0, 0), (5, 3), MessageClass.NI_DATA)
        assert len(links) == 8
        assert links[0].src == (0, 0)
        assert links[-1].dst == (5, 3)

    def test_hop_latency(self, mesh):
        assert mesh.min_latency_cycles((0, 0), (5, 3)) == 8 * 3

    def test_route_to_self_is_empty(self, mesh):
        assert list(mesh.route((2, 2), (2, 2), MessageClass.NI_DATA)) == []

    def test_route_rejects_foreign_nodes(self, mesh):
        with pytest.raises(TopologyError):
            mesh.route((0, 0), (9, 9), MessageClass.NI_DATA)

    def test_links_are_adjacent_router_pairs(self, mesh):
        for link in mesh.route((1, 6), (6, 1), MessageClass.NI_DATA):
            dx = abs(link.src[0] - link.dst[0])
            dy = abs(link.src[1] - link.dst[1])
            assert dx + dy == 1
            assert link.hop_cycles == 3

    def test_routing_policy_changes_path(self):
        xy_mesh = MeshTopology(8, NocConfig(routing=RoutingAlgorithm.XY))
        yx_mesh = MeshTopology(8, NocConfig(routing=RoutingAlgorithm.YX))
        xy_links = xy_mesh.route((0, 0), (3, 3), MessageClass.NI_DATA)
        yx_links = yx_mesh.route((0, 0), (3, 3), MessageClass.NI_DATA)
        assert [l.key for l in xy_links] != [l.key for l in yx_links]
