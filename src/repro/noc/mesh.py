"""2D mesh topology (the baseline NOC of Table 2).

Router nodes are ``(x, y)`` coordinates on a ``side x side`` grid.  Column 0
is the chip edge where the NIs and the chip-to-chip network router sit;
column ``side - 1`` is the memory-controller edge (§4.3, Fig. 2).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional, Sequence, Tuple

from repro.config import MessageClass, NocConfig, RoutingAlgorithm
from repro.errors import TopologyError
from repro.noc.routing import (
    manhattan_distance,
    mesh_route,
    o1turn_orientation,
    route_class_direction,
)
from repro.noc.topology import Link, Topology, build_path_links

Coord = Tuple[int, int]


class MeshTopology(Topology):
    """A square 2D mesh with dimension-order / class-based routing."""

    def __init__(self, side: int, noc_config: NocConfig) -> None:
        if side <= 0:
            raise TopologyError("mesh side must be positive, got %d" % side)
        self.side = side
        self.config = noc_config
        self.hop_cycles = noc_config.mesh_hop_cycles
        self._nodes = [(x, y) for y in range(side) for x in range(side)]
        self._node_set = set(self._nodes)
        # Message class -> fixed dimension order, precomputed for the
        # deterministic algorithms (None for O1Turn, whose orientation is
        # per-packet).  Keyed lookups keep route_cache_key off the
        # route_class_direction call chain on the per-packet path.
        if noc_config.routing is RoutingAlgorithm.O1TURN:
            self._class_directions = None
        else:
            self._class_directions = {
                cls: route_class_direction(noc_config.routing, cls)
                for cls in MessageClass
            }
        self.routes_ignore_packet_id = self._class_directions is not None

    # ------------------------------------------------------------------
    # Topology interface
    # ------------------------------------------------------------------
    def nodes(self) -> Iterable[Coord]:
        return list(self._nodes)

    def route(
        self,
        src: Hashable,
        dst: Hashable,
        msg_class: MessageClass,
        packet_id: int = 0,
    ) -> Sequence[Link]:
        self._check(src)
        self._check(dst)
        path = mesh_route(self.config.routing, src, dst, msg_class, packet_id)
        return build_path_links(self, list(path), self.hop_cycles)

    def route_cache_key(
        self,
        src: Hashable,
        dst: Hashable,
        msg_class: MessageClass,
        packet_id: int = 0,
    ) -> Optional[Hashable]:
        """Memoize per ``(src, dst, dimension order)``.

        XY/YX/CDR/CDR_EXTENDED resolve to a fixed dimension order per message
        class, so the class collapses into the direction; O1Turn picks a
        per-packet orientation, which keys the cache so that both orientations
        of a node pair are cached side by side.
        """
        directions = self._class_directions
        if directions is not None:
            return (src, dst, directions[msg_class])
        return (src, dst, o1turn_orientation(src, dst, packet_id))

    def hop_count(self, src: Coord, dst: Coord) -> int:
        self._check(src)
        self._check(dst)
        return manhattan_distance(src, dst)

    def min_latency_cycles(self, src: Coord, dst: Coord) -> int:
        return self.hop_count(src, dst) * self.hop_cycles

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def tile_coord(self, tile_id: int) -> Coord:
        """Coordinate of core tile ``tile_id`` (row-major numbering)."""
        if not 0 <= tile_id < self.side * self.side:
            raise TopologyError("tile id %d outside the %dx%d mesh" % (tile_id, self.side, self.side))
        return (tile_id % self.side, tile_id // self.side)

    def tile_id(self, coord: Coord) -> int:
        """Inverse of :meth:`tile_coord`."""
        self._check(coord)
        x, y = coord
        return y * self.side + x

    def ni_edge_column(self) -> int:
        """Column hosting the NIs and the network router (west edge)."""
        return 0

    def mc_edge_column(self) -> int:
        """Column hosting the memory controllers (east edge)."""
        return self.side - 1

    def edge_coord_for_row(self, row: int, column: int) -> Coord:
        """Coordinate of the edge tile of ``row`` on ``column``."""
        if not 0 <= row < self.side:
            raise TopologyError("row %d outside the mesh" % row)
        if column not in (self.ni_edge_column(), self.mc_edge_column()):
            raise TopologyError("column %d is not a chip edge" % column)
        return (column, row)

    def _check(self, node: Hashable) -> None:
        if node not in self._node_set:
            raise TopologyError("node %r is not part of the %dx%d mesh" % (node, self.side, self.side))
