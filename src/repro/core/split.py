"""The NIsplit design (§3.3, §4.2) — the paper's proposal.

Each tile hosts an RGP/RCP *frontend* (with the NI cache attached behind the
core's L1), so QP interactions are local; the RGP/RCP *backends* are
replicated across the chip edge next to the network router, so unrolling and
data placement happen where the full NOC bisection is available.  The
Frontend-Backend Interface becomes an explicit NOC message in each direction
(a valid WQ entry travelling to the backend; a new CQ entry travelling back
to the frontend).

The frontend-to-backend mapping is the paper's simple policy: all frontends
of a NOC row (mesh) or column (NOC-Out) map to that row's/column's backend,
minimizing frontend-to-backend distance (§4.3).
"""

from __future__ import annotations

from repro.core.assembly import BaseNIDesign
from repro.errors import PlacementError
from repro.scenario.registry import register_ni_design


@register_ni_design("split", label="NIsplit", messaging=True)
class NISplitDesign(BaseNIDesign):
    """Per-tile frontends with edge-replicated backends."""

    def _build_frontends_and_backends(self) -> None:
        for site, node in enumerate(self.placement.backend_nodes):
            port = self.placement.network_port_node(node)
            self.backends.append(
                self._make_backend(
                    "ni_split_be[%d]" % site,
                    node=node,
                    injection_at_edge=(port == node),
                )
            )
        for core_id in range(self.placement.tile_count):
            node = self.placement.tile_nodes[core_id]
            complex_ = self.services.tile_complex(core_id)
            if complex_ is None:
                raise PlacementError("tile %d has no cache complex registered" % core_id)
            if complex_.ni_cache is None:
                complex_.ni_cache = self._make_ni_cache("ni_split_fe[%d].cache" % core_id)
            frontend = self._make_frontend(
                "ni_split_fe[%d]" % core_id,
                entity_id=complex_.entity_id,
                node=node,
                monolithic=False,
            )
            frontend.backend = self.backends[self.placement.backend_index_for_tile(core_id)]
            self.frontends[core_id] = frontend
