"""The NIedge design (§3.1).

One monolithic NI (RGP + RCP, plus the NI cache holding QP entries) per mesh
row, placed at the chip's edge next to the network router.  The NI cache is
its own coherence agent with a unique tile id, so every WQ/CQ interaction
between a core and its edge NI bounces the QP block across the chip through
the normal coherence protocol — the source of the ~80 % latency overhead of
Table 1.

On NOC-Out the same design places the NIs at the LLC tiles in the middle of
the chip ("NImiddle" would be the more accurate name, §6.3), which the
placement map handles transparently.
"""

from __future__ import annotations

from repro.coherence.caches import TileCacheComplex
from repro.core.assembly import BaseNIDesign
from repro.scenario.registry import register_ni_design


@register_ni_design("edge", label="NIedge", messaging=True)
class NIEdgeDesign(BaseNIDesign):
    """Monolithic edge-integrated NIs, one per backend site."""

    def _build_frontends_and_backends(self) -> None:
        edge_frontends = {}
        for site, node in enumerate(self.placement.backend_nodes):
            entity_id = ("ni_edge", site)
            complex_ = TileCacheComplex(
                entity_id=entity_id,
                node=node,
                ni_cache=self._make_ni_cache("ni_edge[%d].cache" % site),
            )
            self.services.coherence.register_complex(complex_)
            frontend = self._make_frontend(
                "ni_edge[%d]" % site, entity_id=entity_id, node=node, monolithic=True
            )
            backend = self._make_backend("ni_edge[%d]" % site, node=node, injection_at_edge=True)
            frontend.backend = backend
            edge_frontends[site] = frontend
            self.backends.append(backend)
        # Every core's queue pairs are serviced by its row's (column's) edge NI.
        for core_id in range(self.placement.tile_count):
            site = self.placement.edge_ni_index_for_tile(core_id)
            self.frontends[core_id] = edge_frontends[site]

    def edge_complex(self, site: int) -> TileCacheComplex:
        """The coherence entity of the edge NI at ``site`` (for tests)."""
        return self.services.coherence.complex_of(("ni_edge", site))
