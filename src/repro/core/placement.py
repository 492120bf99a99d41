"""Placement of NIs, LLC slices, memory controllers and network ports (§4.2, §4.3).

For the mesh, the NIs (RRPPs and RGP/RCP backends) occupy the west edge
column next to the chip-to-chip network router, one per row; the memory
controllers occupy the east edge column; the frontend of a tile maps to its
row's backend (minimizing frontend-to-backend distance).

For NOC-Out, the RRPPs and backends are collocated with the LLC tiles in the
chip's central row (their rich flattened-butterfly connectivity provides the
full bisection bandwidth), memory controllers hang off the same tiles, and a
core's frontend maps to its column's LLC tile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List

from repro.config import SystemConfig
from repro.errors import PlacementError
from repro.noc.mesh import MeshTopology
from repro.noc.nocout import NocOutTopology
from repro.noc.topology import Topology, shared_topology
from repro.scenario.registry import TOPOLOGIES, register_topology


@dataclass
class ChipPlacement:
    """Where every agent of the chip sits on the NOC."""

    topology: Topology
    #: Chip topology name: ``"mesh"`` or ``"noc_out"``.
    kind: str
    #: NOC node of each core tile, indexed by tile id.
    tile_nodes: List[Hashable]
    #: NOC node of each LLC slice (and its directory), indexed by slice id.
    llc_nodes: List[Hashable]
    #: NOC node of each memory controller.
    mc_nodes: List[Hashable]
    #: NOC node of each RRPP.
    rrpp_nodes: List[Hashable]
    #: NOC node of each RGP/RCP backend site (also the edge-NI sites).
    backend_nodes: List[Hashable]

    # ------------------------------------------------------------------
    # Derived lookups
    # ------------------------------------------------------------------
    @property
    def tile_count(self) -> int:
        return len(self.tile_nodes)

    @property
    def llc_slice_count(self) -> int:
        return len(self.llc_nodes)

    def backend_index_for_tile(self, tile_id: int) -> int:
        """Backend servicing a tile's frontend (row mapping on mesh, column on NOC-Out)."""
        self._check_tile(tile_id)
        side = self._side()
        if self.kind == "mesh":
            return tile_id // side
        return tile_id % side

    def edge_ni_index_for_tile(self, tile_id: int) -> int:
        """Edge NI servicing a tile's queue pairs in the NIedge design."""
        return self.backend_index_for_tile(tile_id)

    def network_port_node(self, near_node: Hashable) -> Hashable:
        """The NOC node through which ``near_node`` reaches the chip-to-chip router."""
        if self.kind == "mesh":
            if not (isinstance(near_node, tuple) and len(near_node) == 2):
                raise PlacementError("mesh nodes are (x, y) coordinates, got %r" % (near_node,))
            _, row = near_node
            return (0, row)
        # NOC-Out: everything reaches the router through its column's LLC tile.
        if near_node[0] == "llc":
            return near_node
        if near_node[0] in ("core", "mc"):
            return ("llc", near_node[1])
        if near_node[0] == "netrouter":
            return ("llc", 0)
        raise PlacementError("unknown NOC-Out node %r" % (near_node,))

    def _side(self) -> int:
        if self.kind == "mesh":
            return self.topology.side
        return self.topology.columns

    def _check_tile(self, tile_id: int) -> None:
        if not 0 <= tile_id < self.tile_count:
            raise PlacementError("tile id %d outside the chip (%d tiles)" % (tile_id, self.tile_count))


def build_placement(config: SystemConfig) -> ChipPlacement:
    """Build the placement for the configured topology (registry-backed).

    The configured topology name resolves through the topology registry, so
    registered chip topologies plug in without editing this module; non-chip
    (rack-scope) topologies are rejected by name.
    """
    name = config.noc.topology
    entry = TOPOLOGIES.entry(name)
    if entry.metadata.get("scope", "chip") != "chip":
        raise PlacementError(
            "topology %r is %s-scoped and has no chip placement (chip topologies: %s)"
            % (name, entry.metadata.get("scope"), ", ".join(TOPOLOGIES.names(scope="chip")))
        )
    return entry.component(config)


@register_topology("mesh", scope="chip", kind="mesh")
def _mesh_placement(config: SystemConfig) -> ChipPlacement:
    """2D mesh: NIs on the west edge column, MCs on the east (Table 2)."""
    side = config.mesh_side
    topology = shared_topology(MeshTopology, config.noc, side)
    tile_nodes = [topology.tile_coord(t) for t in range(config.tile_count)]
    llc_nodes = list(tile_nodes)  # one LLC slice per tile (Table 2)
    mc_column = topology.mc_edge_column()
    ni_column = topology.ni_edge_column()
    mc_nodes = [(mc_column, row) for row in range(min(side, config.memory.controllers))]
    rrpp_nodes = [(ni_column, row) for row in range(min(side, config.ni.rrpp_count))]
    backend_nodes = [(ni_column, row) for row in range(side)]
    return ChipPlacement(
        topology=topology,
        kind="mesh",
        tile_nodes=tile_nodes,
        llc_nodes=llc_nodes,
        mc_nodes=mc_nodes,
        rrpp_nodes=rrpp_nodes,
        backend_nodes=backend_nodes,
    )


@register_topology("noc_out", scope="chip", kind="noc_out")
def _noc_out_placement(config: SystemConfig) -> ChipPlacement:
    """NOC-Out: flattened-butterfly LLC row plus per-column core trees (§6.3)."""
    columns = config.mesh_side
    cores_per_column = config.tile_count // columns
    topology = shared_topology(NocOutTopology, config.noc, columns, cores_per_column)
    tile_nodes = [topology.core_node(t) for t in range(config.tile_count)]
    llc_nodes = [topology.llc_node(i) for i in range(config.llc.banks_noc_out)]
    mc_nodes = [topology.mc_node(i) for i in range(min(columns, config.memory.controllers))]
    rrpp_nodes = [topology.llc_node(i) for i in range(min(columns, config.ni.rrpp_count))]
    backend_nodes = [topology.llc_node(i) for i in range(columns)]
    return ChipPlacement(
        topology=topology,
        kind="noc_out",
        tile_nodes=tile_nodes,
        llc_nodes=llc_nodes,
        mc_nodes=mc_nodes,
        rrpp_nodes=rrpp_nodes,
        backend_nodes=backend_nodes,
    )
