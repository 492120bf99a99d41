"""The RMC pipelines: RGP/RCP frontends and backends, and the RRPP (§4.1, §4.2).

The same two classes implement all three NI designs; what differs is *where*
their instances are placed and whether the frontend and backend share a node:

* **NIedge / NIper-tile** — frontend and backend are collocated (the
  Frontend-Backend Interface is a pipeline latch), so handing a WQ entry to
  the backend or a completion to the frontend costs nothing extra.
* **NIsplit** — the frontend sits at the core's tile and the backend at the
  chip edge, so the hand-off is an explicit NOC packet (the "Transfer request
  to RGP backend" / "Transfer reply to RCP frontend" rows of Table 3).

Whether the backend can inject packets straight into the chip-to-chip
network (it sits next to the network router) or must first cross the NOC to
reach the router (per-tile placement) is likewise decided by placement, and
is what produces the bandwidth collapse of NIper-tile for bulk transfers
(§6.2).
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.config import CACHE_BLOCK_BYTES, LatencyCalibration, MessageClass
from repro.core.base import NodeServices, TransferRecord, TransferTable
from repro.errors import ProtocolError
from repro.qp.entries import CQ_ENTRY_BYTES, WQ_ENTRY_BYTES, CompletionQueueEntry, RemoteOp, WorkQueueEntry
from repro.qp.manager import QueuePair
from repro.sim.resource import Pipeline
from repro.sim.stats import StatAccumulator
from repro.sonuma.unroll import block_count, unroll_blocks
from repro.sonuma.wire import REQUEST_HEADER_BYTES, RESPONSE_HEADER_BYTES, RemoteRequest, RemoteResponse


class NIFrontend:
    """The core-facing half of an NI: WQ entry loads and CQ entry writes.

    One frontend serves one or more queue pairs.  It owns (a share of) the NI
    cache through its coherence entity, so every WQ read and CQ write goes
    through the coherence protocol with the latency appropriate to its
    placement (local 5-cycle transfers when collocated with the core,
    chip-crossing coherence transactions when at the edge).
    """

    def __init__(
        self,
        name: str,
        entity_id: Hashable,
        node: Hashable,
        services: NodeServices,
        calibration: LatencyCalibration,
        monolithic: bool,
        transfers: TransferTable,
    ) -> None:
        self.name = name
        self.entity_id = entity_id
        self.node = node
        self.services = services
        self.calibration = calibration
        self.monolithic = monolithic
        self.transfers = transfers
        self.backend: Optional["NIBackend"] = None
        sim = services.sim
        rgp_cycles = (
            max(1, calibration.rgp_processing_cycles - calibration.rgp_backend_cycles)
            if monolithic
            else calibration.rgp_frontend_cycles
        )
        rcp_cycles = (
            max(1, calibration.rcp_processing_cycles - calibration.rcp_backend_cycles)
            if monolithic
            else calibration.rcp_frontend_cycles
        )
        self.rgp_pipe = Pipeline(sim, 1, rgp_cycles, name + "-rgp-fe")
        self.rcp_pipe = Pipeline(sim, 1, rcp_cycles, name + "-rcp-fe")
        # Statistics
        self.doorbells = 0
        self.completions = 0

    # ------------------------------------------------------------------
    # Request generation (frontend stages of Fig. 4a)
    # ------------------------------------------------------------------
    def post_doorbell(self, qp: QueuePair, core_id: int, entry: WorkQueueEntry, wq_index: int) -> None:
        """A core finished writing a WQ entry; schedule the frontend to pick it up."""
        if self.backend is None:
            raise ProtocolError("frontend %s has no backend attached" % self.name)
        self.doorbells += 1
        self.rgp_pipe.issue_then(NIFrontend._load_wq_entry, self, qp, core_id, entry, wq_index)

    def _load_wq_entry(self, qp: QueuePair, core_id: int, entry: WorkQueueEntry, wq_index: int) -> None:
        block_addr = qp.wq.entry_block_address(wq_index)
        self.services.coherence.access(
            self.entity_id, "ni", block_addr, False, self._wq_loaded, qp, core_id, entry,
        )

    def _wq_loaded(self, _result, qp: QueuePair, core_id: int, entry: WorkQueueEntry) -> None:
        if self.backend.node == self.node:
            # Frontend-Backend Interface is a latch: no NOC transfer.
            self.backend.start_transfer(entry, qp, core_id, self)
        else:
            self.services.fabric.send(
                self.node, self.backend.node, WQ_ENTRY_BYTES, MessageClass.NI_COMMAND,
                NIBackend.start_transfer, self.backend, entry, qp, core_id, self,
            )

    # ------------------------------------------------------------------
    # Request completion (frontend stages of Fig. 4b)
    # ------------------------------------------------------------------
    def complete_transfer(self, record: TransferRecord) -> None:
        """All blocks of a transfer have arrived; write its CQ entry."""
        self.rcp_pipe.issue_then(NIFrontend._write_cq, self, record)

    def _write_cq(self, record: TransferRecord) -> None:
        cq = record.qp.cq
        block_addr = cq.tail_block_address()
        self.services.coherence.access(
            self.entity_id, "ni", block_addr, True, self._cq_written, record,
        )

    def _cq_written(self, _result, record: TransferRecord) -> None:
        record.completed_at = self.services.sim.now
        record.qp.cq.post(
            CompletionQueueEntry(
                wq_index=record.entry.wq_index or 0,
                length=record.entry.length,
                completed_at=self.services.sim.now,
            )
        )
        self.completions += 1
        if record.transfer_id in self.transfers:
            self.transfers.retire(record.transfer_id)
        self.services.notify_completion(record.core_id)


class NIBackend:
    """The network-facing half of an NI: unrolling, injection and data placement.

    The backend owns the RGP stages that unroll a WQ entry into
    cache-block-sized request packets (one per cycle) and the RCP stages that
    receive response packets, store remote data into local memory and retire
    transfers.
    """

    def __init__(
        self,
        name: str,
        node: Hashable,
        services: NodeServices,
        calibration: LatencyCalibration,
        transfers: TransferTable,
        injection_at_edge: bool,
        unroll_blocks_per_cycle: int = 1,
        block_bytes: int = CACHE_BLOCK_BYTES,
    ) -> None:
        self.name = name
        self.node = node
        self.services = services
        self.calibration = calibration
        self.transfers = transfers
        self.injection_at_edge = injection_at_edge
        self.block_bytes = block_bytes
        sim = services.sim
        interval = 1.0 / max(1, unroll_blocks_per_cycle)
        self.rgp_pipe = Pipeline(sim, interval, calibration.rgp_backend_cycles, name + "-rgp-be")
        self.rcp_pipe = Pipeline(sim, interval, calibration.rcp_backend_cycles, name + "-rcp-be")
        # Statistics
        self.transfers_started = 0
        self.blocks_injected = 0
        self.blocks_completed = 0
        self.payload_bytes_completed = 0

    # ------------------------------------------------------------------
    # RGP backend (Fig. 4a): unroll and inject
    # ------------------------------------------------------------------
    def start_transfer(self, entry: WorkQueueEntry, qp: QueuePair, core_id: int,
                       frontend: NIFrontend) -> TransferRecord:
        """Create the in-flight record and unroll the request."""
        record = self.transfers.create(
            core_id=core_id,
            qp=qp,
            entry=entry,
            total_blocks=block_count(entry.length, self.block_bytes),
            issued_at=entry.posted_at,
        )
        record.frontend = frontend
        record.backend = self
        self.transfers_started += 1
        for request in unroll_blocks(entry, self.services.node_id, record.transfer_id, self.block_bytes):
            self.rgp_pipe.issue_then(NIBackend._inject_request, self, request, record)
        return record

    def _inject_request(self, request: RemoteRequest, record: TransferRecord) -> None:
        record.blocks_injected += 1
        self.blocks_injected += 1
        if request.op is RemoteOp.WRITE:
            # Remote writes carry local data: read it from memory first.
            addr = record.entry.local_buffer + request.block_index * self.block_bytes
            self.services.memory_read(
                self.node, addr, self.block_bytes, NIBackend._send_off_chip, self, request,
            )
        else:
            self._send_off_chip(request)

    def _send_off_chip(self, request: RemoteRequest) -> None:
        if self.injection_at_edge:
            self.services.off_chip_send(request, self.node)
            return
        # Per-tile placement: the request packet must cross the NOC to reach
        # the network router at the chip edge (two flits for reads, §6.1.3).
        port = self.services.network_port_node(self.node)
        payload = REQUEST_HEADER_BYTES
        if request.op is RemoteOp.WRITE:
            payload += self.block_bytes
        services = self.services
        services.fabric.send(
            self.node, port, payload, MessageClass.NI_COMMAND,
            type(services).off_chip_send, services, request, port,
        )

    # ------------------------------------------------------------------
    # RCP backend (Fig. 4b): receive, store, retire
    # ------------------------------------------------------------------
    def deliver_response(self, response: RemoteResponse) -> None:
        """A response for one of this backend's transfers arrived at the network port."""
        if self.injection_at_edge:
            # Straight into the RCP pipe, as _receive does at the end of the
            # per-tile walk.
            self.rcp_pipe.issue_then(NIBackend._process_response, self, response)
            return
        # Per-tile placement: the response is first routed to the source NI
        # before its payload can be sent to its home LLC tile (§6.2).
        port = self.services.network_port_node(self.node)
        payload = RESPONSE_HEADER_BYTES
        if response.op is RemoteOp.READ:
            payload += self.block_bytes
        self.services.fabric.send(
            port, self.node, payload, MessageClass.NI_DATA, NIBackend._receive, self, response,
        )

    def _receive(self, response: RemoteResponse) -> None:
        self.rcp_pipe.issue_then(NIBackend._process_response, self, response)

    def _process_response(self, response: RemoteResponse) -> None:
        record = self.transfers.get(response.transfer_id)
        if response.op is RemoteOp.READ:
            addr = record.entry.local_buffer + response.block_index * self.block_bytes
            self.services.memory_write(
                self.node, addr, self.block_bytes, NIBackend._block_done, self, record,
            )
        else:
            self._block_done(record)

    def _block_done(self, record: TransferRecord) -> None:
        record.blocks_completed += 1
        self.blocks_completed += 1
        self.payload_bytes_completed += self.block_bytes
        if record.blocks_completed < record.total_blocks:  # not record.is_complete
            return
        frontend = record.frontend
        if frontend.node == self.node:
            frontend.complete_transfer(record)
        else:
            # Ship the new CQ entry to the frontend over the NOC (NIsplit).
            self.services.fabric.send(
                self.node, frontend.node, CQ_ENTRY_BYTES, MessageClass.NI_COMMAND,
                NIFrontend.complete_transfer, frontend, record,
            )


class RemoteRequestPipeline:
    """The RRPP: services one-sided requests arriving from remote nodes (§4.1).

    RRPPs never interact with the cores, so in every design they sit where
    they can reach the full NOC bisection — the chip edge next to the network
    router (mesh) or the LLC tiles (NOC-Out).
    """

    #: Protocol processing occupancy per request (the RRPP is the simplest pipeline).
    PROCESSING_CYCLES = 4

    def __init__(
        self,
        index: int,
        node: Hashable,
        services: NodeServices,
        block_bytes: int = CACHE_BLOCK_BYTES,
    ) -> None:
        self.index = index
        self.node = node
        self.services = services
        self.block_bytes = block_bytes
        self.pipe = Pipeline(services.sim, 1, self.PROCESSING_CYCLES, "rrpp%d" % index)
        self.service_latency = StatAccumulator("rrpp%d-latency" % index)
        self.requests_received = 0
        self.responses_sent = 0
        self.payload_bytes_serviced = 0

    def handle_request(self, request: RemoteRequest) -> None:
        """An incoming remote request was steered to this RRPP."""
        self.requests_received += 1
        arrival = self.services.sim.now
        self.pipe.issue_then(RemoteRequestPipeline._process, self, request, arrival)

    def _process(self, request: RemoteRequest, arrival: float) -> None:
        addr = self.services.translate(request.ctx_id, request.offset, self.block_bytes)
        if request.op is RemoteOp.READ:
            self.services.memory_read(
                self.node, addr, self.block_bytes,
                RemoteRequestPipeline._respond, self, request, arrival,
            )
        else:
            self.services.memory_write(
                self.node, addr, self.block_bytes,
                RemoteRequestPipeline._respond, self, request, arrival,
            )

    def _respond(self, request: RemoteRequest, arrival: float) -> None:
        latency = self.services.sim.now - arrival
        self.service_latency.add(latency)
        self.responses_sent += 1
        if request.op is RemoteOp.READ:
            self.payload_bytes_serviced += self.block_bytes
        self.services.off_chip_send(request.make_response(), self.node)
