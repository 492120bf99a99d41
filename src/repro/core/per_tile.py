"""The NIper-tile design (§3.2).

A full NI (RGP + RCP + NI cache) is collocated with every core.  The NI cache
attaches to the back side of the core's L1, so QP interactions stay local
(the 5-cycle entry transfer of Table 3), but large transfers are unrolled at
the source tile: every cache-block request and response crosses the NOC
between the tile and the network router, flooding the network and collapsing
bandwidth for bulk transfers (§6.2).
"""

from __future__ import annotations

from repro.core.assembly import BaseNIDesign
from repro.errors import PlacementError
from repro.scenario.registry import register_ni_design


@register_ni_design("per_tile", label="NIper-tile", messaging=True)
class NIPerTileDesign(BaseNIDesign):
    """One complete NI per core tile."""

    def _build_frontends_and_backends(self) -> None:
        for core_id in range(self.placement.tile_count):
            node = self.placement.tile_nodes[core_id]
            complex_ = self.services.tile_complex(core_id)
            if complex_ is None:
                raise PlacementError("tile %d has no cache complex registered" % core_id)
            if complex_.ni_cache is None:
                complex_.ni_cache = self._make_ni_cache("ni_tile[%d].cache" % core_id)
            frontend = self._make_frontend(
                "ni_tile[%d]" % core_id,
                entity_id=complex_.entity_id,
                node=node,
                monolithic=True,
            )
            port = self.placement.network_port_node(node)
            backend = self._make_backend(
                "ni_tile[%d]" % core_id,
                node=node,
                injection_at_edge=(port == node),
            )
            frontend.backend = backend
            self.frontends[core_id] = frontend
            self.backends.append(backend)
