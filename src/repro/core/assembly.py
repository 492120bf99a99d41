"""Common machinery for assembling an NI design on a chip.

A *design assembly* owns the chip's NI frontends, backends and RRPPs, knows
which frontend services which core's queue pairs, and routes incoming
responses/requests to the right pipeline.  The concrete subclasses
(:class:`~repro.core.edge.NIEdgeDesign`,
:class:`~repro.core.per_tile.NIPerTileDesign`,
:class:`~repro.core.split.NISplitDesign`) only differ in where they place
the pipelines and which coherence entity backs each frontend's NI cache.
"""

from __future__ import annotations

import abc
from typing import Dict, List

from repro.coherence.caches import NICache
from repro.config import SystemConfig
from repro.core.base import NodeServices, TransferTable
from repro.core.pipelines import NIBackend, NIFrontend, RemoteRequestPipeline
from repro.core.placement import ChipPlacement
from repro.errors import PlacementError
from repro.sonuma.wire import RemoteRequest, RemoteResponse


class BaseNIDesign(abc.ABC):
    """Abstract NI design assembly."""

    def __init__(self, services: NodeServices, placement: ChipPlacement) -> None:
        self.services = services
        self.placement = placement
        self.config: SystemConfig = services.config
        self.transfers = TransferTable()
        self.frontends: Dict[int, NIFrontend] = {}
        self.backends: List[NIBackend] = []
        self.rrpps: List[RemoteRequestPipeline] = []
        self._built = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self) -> "BaseNIDesign":
        """Instantiate pipelines and register coherence entities."""
        if self._built:
            return self
        self._build_rrpps()
        self._build_frontends_and_backends()
        self._built = True
        return self

    def _build_rrpps(self) -> None:
        for index, node in enumerate(self.placement.rrpp_nodes):
            self.rrpps.append(
                RemoteRequestPipeline(
                    index=index,
                    node=node,
                    services=self.services,
                    block_bytes=self.config.cache_block_bytes,
                )
            )

    @abc.abstractmethod
    def _build_frontends_and_backends(self) -> None:
        """Create the design-specific RGP/RCP frontends and backends."""

    def _make_ni_cache(self, name: str) -> NICache:
        return NICache(
            name,
            access_latency=2,
            owned_state_enabled=self.config.ni.ni_cache_owned_state,
        )

    def _make_backend(self, name: str, node, injection_at_edge: bool) -> NIBackend:
        return NIBackend(
            name=name,
            node=node,
            services=self.services,
            calibration=self.config.calibration,
            transfers=self.transfers,
            injection_at_edge=injection_at_edge,
            unroll_blocks_per_cycle=self.config.ni.unroll_blocks_per_cycle,
            block_bytes=self.config.cache_block_bytes,
        )

    def _make_frontend(self, name: str, entity_id, node, monolithic: bool) -> NIFrontend:
        return NIFrontend(
            name=name,
            entity_id=entity_id,
            node=node,
            services=self.services,
            calibration=self.config.calibration,
            monolithic=monolithic,
            transfers=self.transfers,
        )

    def close(self) -> None:
        """Cut the pipelines' references back to the chip and the transfer table.

        In-flight transfer records name their frontend and backend, and
        every pipeline reaches the SoC through ``services``; the counters of
        the design, its pipelines and its table stay readable.
        """
        self.services = None
        for rrpp in self.rrpps:
            rrpp.services = None
        for pipeline in (*self.frontends.values(), *self.backends):
            pipeline.services = None
            pipeline.transfers = None

    # ------------------------------------------------------------------
    # Runtime routing
    # ------------------------------------------------------------------
    def frontend_for_core(self, core_id: int) -> NIFrontend:
        """The NI frontend servicing a given core's queue pairs."""
        try:
            return self.frontends[core_id]
        except KeyError:
            raise PlacementError("no frontend registered for core %d" % core_id) from None

    def deliver_response(self, response: RemoteResponse) -> None:
        """Route an arriving response to the backend owning its transfer."""
        record = self.transfers.get(response.transfer_id)
        backend: NIBackend = record.metadata["backend"]
        backend.deliver_response(response)

    def rrpp_for_request(self, request: RemoteRequest) -> RemoteRequestPipeline:
        """Address-interleaved steering of incoming requests to RRPPs (§4.3).

        The chosen RRPP is row-aligned with the home LLC slice of the block
        the request touches, so the data path never turns at the chip edge.
        """
        block = request.offset // self.config.cache_block_bytes
        group = max(1, self.placement.llc_slice_count // len(self.rrpps))
        index = (block // group) % len(self.rrpps)
        return self.rrpps[index]

    def deliver_remote_request(self, request: RemoteRequest) -> None:
        """Hand an incoming remote request to its RRPP."""
        self.rrpp_for_request(request).handle_request(request)

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    def total_blocks_completed(self) -> int:
        return sum(backend.blocks_completed for backend in self.backends)

    def total_payload_bytes_completed(self) -> int:
        return sum(backend.payload_bytes_completed for backend in self.backends)

    def total_rrpp_payload_bytes(self) -> int:
        return sum(rrpp.payload_bytes_serviced for rrpp in self.rrpps)

    def average_rrpp_latency(self) -> float:
        """Average RRPP servicing latency (the remote-end component of §5).

        The emulated remote end reads it for every outgoing request, so it
        is one pass over the RRPPs.  It adds each RRPP's total and count in
        RRPP order, starting from ``0``, as ``sum()`` does up to Python 3.11
        (3.12's compensates float rounding), so the float is bit for bit
        ``sum(totals) / sum(counts)``.  A total kept up to date as samples
        arrive would add them in another order, and the result feeds event
        times.
        """
        total = 0
        count = 0
        for rrpp in self.rrpps:
            acc = rrpp.service_latency
            if acc.count:
                total += acc.total
                count += acc.count
        if not count:
            return 0.0
        return total / count
