"""NOC-Out topology (§6.3, [Lotfi-Kamran et al., MICRO'12]).

In NOC-Out, the LLC tiles form a row in the middle of the chip and are richly
interconnected by a flattened butterfly; the cores of each column are chained
by simple reduction/dispersion trees that connect them to their column's LLC
tile.  The memory controllers and the chip-to-chip network router also hang
off the flattened butterfly.

Node identifiers
----------------
``("llc", i)``          LLC tile ``i`` (0..columns-1) on the central row.
``("core", col, k)``    core ``k`` (0..cores_per_column-1) of column ``col``;
                        cores 0..3 chain on one side of the LLC row and
                        4..7 on the other, so the distance to the LLC tile is
                        ``(k mod 4) + 1`` tree hops.
``("mc", j)``           memory controller ``j`` attached to LLC tile ``j``.
``("netrouter", 0)``    the chip-to-chip network router.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.config import MessageClass, NocConfig
from repro.errors import TopologyError
from repro.noc.topology import Link, Topology

NOCOUT_LLC = "llc"
NOCOUT_CORE = "core"
NOCOUT_MC = "mc"
NOCOUT_EDGE = "netrouter"


class NocOutTopology(Topology):
    """Flattened-butterfly LLC row plus per-column core trees."""

    #: Routes depend on the endpoints alone.
    routes_ignore_packet_id = True

    def __init__(
        self,
        columns: int = 8,
        cores_per_column: int = 8,
        noc_config: NocConfig = NocConfig(),
    ) -> None:
        if columns <= 0 or cores_per_column <= 0:
            raise TopologyError("NOC-Out requires positive column/core counts")
        self.columns = columns
        self.cores_per_column = cores_per_column
        self.config = noc_config
        self.tree_hop_cycles = noc_config.noc_out_tree_hop_cycles
        self.butterfly_tiles_per_cycle = noc_config.noc_out_tiles_per_cycle
        self._nodes = self._build_nodes()
        self._node_set = set(self._nodes)

    def _build_nodes(self) -> List[Hashable]:
        nodes: List[Hashable] = [(NOCOUT_LLC, i) for i in range(self.columns)]
        nodes.extend(
            (NOCOUT_CORE, col, k)
            for col in range(self.columns)
            for k in range(self.cores_per_column)
        )
        nodes.extend((NOCOUT_MC, j) for j in range(self.columns))
        nodes.append((NOCOUT_EDGE, 0))
        return nodes

    # ------------------------------------------------------------------
    # Topology interface
    # ------------------------------------------------------------------
    def nodes(self) -> Iterable[Hashable]:
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
        if src == dst:
            return []
        links: List[Link] = []
        # Descend from a core to its column's LLC tile.
        position = src
        if position[0] == NOCOUT_CORE:
            links.extend(self._tree_links(position, down=True))
            position = (NOCOUT_LLC, position[1])
        elif position[0] in (NOCOUT_MC, NOCOUT_EDGE):
            anchor = self._anchor_llc(position)
            links.append(self.link(position, anchor, self.tree_hop_cycles))
            position = anchor
        # Determine the LLC tile nearest the destination.
        target_anchor = self._anchor_llc(dst)
        if position != target_anchor and position == dst:
            return links
        if position != target_anchor:
            links.append(self._butterfly_link(position, target_anchor))
            position = target_anchor
        if dst == position:
            return links
        # Ascend to the destination endpoint.
        if dst[0] == NOCOUT_CORE:
            links.extend(self._tree_links(dst, down=False))
        elif dst[0] in (NOCOUT_MC, NOCOUT_EDGE):
            links.append(self.link(position, dst, self.tree_hop_cycles))
        return links

    def route_cache_key(
        self,
        src: Hashable,
        dst: Hashable,
        msg_class: MessageClass,
        packet_id: int = 0,
    ) -> Optional[Hashable]:
        """NOC-Out routes depend only on the endpoints (no class routing)."""
        return (src, dst)

    def hop_count(self, src: Hashable, dst: Hashable) -> int:
        return len(self.route_cached(src, dst, MessageClass.MEMORY_REQUEST))

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def core_node(self, tile_id: int) -> Tuple[str, int, int]:
        """Map a flat core tile id (0..columns*cores_per_column-1) to a node."""
        total = self.columns * self.cores_per_column
        if not 0 <= tile_id < total:
            raise TopologyError("core id %d outside NOC-Out with %d cores" % (tile_id, total))
        return (NOCOUT_CORE, tile_id % self.columns, tile_id // self.columns)

    def llc_node(self, bank: int) -> Tuple[str, int]:
        if not 0 <= bank < self.columns:
            raise TopologyError("LLC bank %d outside NOC-Out" % bank)
        return (NOCOUT_LLC, bank)

    def mc_node(self, index: int) -> Tuple[str, int]:
        if not 0 <= index < self.columns:
            raise TopologyError("MC %d outside NOC-Out" % index)
        return (NOCOUT_MC, index)

    def tree_depth(self, core_node: Hashable) -> int:
        """Tree hops between a core and its column's LLC tile."""
        if core_node[0] != NOCOUT_CORE:
            raise TopologyError("%r is not a core node" % (core_node,))
        _, _, k = core_node
        return (k % (self.cores_per_column // 2 or 1)) + 1

    def _anchor_llc(self, node: Hashable) -> Tuple[str, int]:
        """The LLC tile through which ``node`` attaches to the butterfly."""
        kind = node[0]
        if kind == NOCOUT_LLC:
            return node
        if kind == NOCOUT_CORE:
            return (NOCOUT_LLC, node[1])
        if kind == NOCOUT_MC:
            return (NOCOUT_LLC, node[1])
        if kind == NOCOUT_EDGE:
            return (NOCOUT_LLC, 0)
        raise TopologyError("unknown NOC-Out node kind %r" % (node,))

    def _butterfly_link(self, src: Hashable, dst: Hashable) -> Link:
        """Single-hop flattened-butterfly link; latency scales with distance."""
        distance = abs(src[1] - dst[1])
        cycles = max(1, math.ceil(distance / self.butterfly_tiles_per_cycle))
        return self.link(src, dst, cycles)

    def _tree_links(self, core_node: Hashable, down: bool) -> List[Link]:
        """Links along the column tree between a core and its LLC tile."""
        _, col, k = core_node
        half = self.cores_per_column // 2 or 1
        depth = (k % half) + 1
        side_offset = (k // half) * half
        chain: List[Hashable] = [(NOCOUT_LLC, col)]
        chain.extend((NOCOUT_CORE, col, side_offset + d) for d in range(depth))
        # ``chain`` goes LLC -> shallowest core -> ... -> target core.
        if down:
            ordered = list(reversed(chain))
        else:
            ordered = chain
        links = []
        for a, b in zip(ordered, ordered[1:]):
            links.append(self.link(a, b, self.tree_hop_cycles))
        return links

    def _check(self, node: Hashable) -> None:
        if node not in self._node_set:
            raise TopologyError("node %r is not part of this NOC-Out topology" % (node,))
