"""The paper's primary contribution: manycore NI microarchitectures.

The package models the soNUMA Remote Memory Controller as three pipelines
(§4.1) — the Request Generation Pipeline (RGP), the Request Completion
Pipeline (RCP) and the Remote Request Processing Pipeline (RRPP) — with the
frontend/backend stage separation of §4.2, and assembles them into the three
NI placements studied in §3:

* :class:`~repro.core.edge.NIEdgeDesign` — monolithic NIs along the chip
  edge next to the network router (one per mesh row),
* :class:`~repro.core.per_tile.NIPerTileDesign` — a full NI collocated with
  every core,
* :class:`~repro.core.split.NISplitDesign` — per-tile frontends plus
  edge-replicated backends (the paper's proposal).
"""

from repro.core.base import NodeServices, TransferRecord, TransferTable
from repro.core.pipelines import NIFrontend, NIBackend, RemoteRequestPipeline
from repro.core.placement import ChipPlacement, build_placement
from repro.core.edge import NIEdgeDesign
from repro.core.per_tile import NIPerTileDesign
from repro.core.split import NISplitDesign

__all__ = [
    "NodeServices",
    "TransferRecord",
    "TransferTable",
    "NIFrontend",
    "NIBackend",
    "RemoteRequestPipeline",
    "ChipPlacement",
    "build_placement",
    "NIEdgeDesign",
    "NIPerTileDesign",
    "NISplitDesign",
]
