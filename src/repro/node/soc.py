"""The manycore SoC: the full single-node model.

:class:`ManycoreSoc` wires together every substrate — the NOC fabric and
topology-specific placement, the MESI coherence protocol with its distributed
directory, the NUCA LLC banks, the memory controllers and DRAM, the queue
pairs and the configured NI design — and implements the
:class:`~repro.core.base.NodeServices` interface the NI pipelines program
against.

The off-chip side (responses to locally-initiated requests and incoming
remote requests) is provided by whatever object is attached with
:meth:`attach_remote_port` — normally the
:class:`~repro.node.traffic.RemoteEndEmulator` that implements the paper's
single-node methodology (§5).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional

from repro.coherence.directory import DirectoryController
from repro.coherence.protocol import CoherenceProtocol
from repro.coherence.states import CacheState
from repro.config import MessageClass, SystemConfig
from repro.core.placement import build_placement
from repro.errors import ConfigurationError, SimulationError
from repro.memory.address import AddressMap
from repro.memory.controller import MemoryController
from repro.memory.dram import DramModel
from repro.noc.fabric import NocFabric
from repro.node.tile import Tile
from repro.qp.manager import QPManager, QueuePair
from repro.scenario.registry import NI_DESIGNS
from repro.sim.engine import Simulator
from repro.sim.resource import Resource
from repro.sonuma.context import ContextRegistry
from repro.sonuma.wire import RemoteRequest, RemoteResponse
from repro.core.base import NodeServices

#: Payload bytes of a dataless memory request on the NOC.
_MEM_REQUEST_BYTES = 8


class ManycoreSoc(NodeServices):
    """A 64-core tiled SoC with the configured NI design."""

    def __init__(self, config: SystemConfig, sim: Optional[Simulator] = None, node_id: int = 0) -> None:
        entry = NI_DESIGNS.entry(config.ni.design)
        if not entry.metadata.get("messaging", True):
            raise ConfigurationError(
                "NI design %r has no QP-based NI pipelines (messaging designs: %s); "
                "use repro.numa.NumaMachine for the load/store baseline"
                % (entry.name, ", ".join(NI_DESIGNS.names(messaging=True)))
            )
        self.sim = sim if sim is not None else Simulator()
        self.config = config
        self.node_id = node_id
        self.placement = build_placement(config)
        self.fabric = NocFabric(self.sim, self.placement.topology, config.noc)
        #: Fault state installed by a FaultInjector (None on healthy runs);
        #: consulted by the core issue path for slow-node penalties.
        self.fault_state = None
        self.address_map = AddressMap(
            llc_slices=self.placement.llc_slice_count,
            memory_controllers=len(self.placement.mc_nodes),
            rrpps=len(self.placement.rrpp_nodes),
            block_bytes=config.cache_block_bytes,
        )
        self.directory = DirectoryController(
            home_tile_count=self.placement.llc_slice_count,
            block_bytes=config.cache_block_bytes,
        )
        self.coherence = CoherenceProtocol(
            sim=self.sim,
            fabric=self.fabric,
            directory=self.directory,
            home_nodes=self.placement.llc_nodes,
            llc_latency_cycles=config.llc.latency_cycles,
            memory_access=self._coherence_memory_fetch,
            fallback_memory_latency_cycles=config.memory_latency_cycles,
        )
        self.tiles: List[Tile] = self._build_tiles()
        self.llc_banks: List[Resource] = [
            Resource(self.sim, name="llc_bank[%d]" % i)
            for i in range(self.placement.llc_slice_count)
        ]
        self.memory_controllers: List[MemoryController] = self._build_memory_controllers()
        self.contexts = ContextRegistry(node_id)
        self.qp_manager = QPManager(
            wq_entries=config.ni.wq_entries, cq_entries=config.ni.cq_entries
        )
        self.ni = entry.component(self, self.placement).build()
        self._remote_port = None
        self._completion_listeners: Dict[int, Callable[[], None]] = {}
        # Off-chip traffic statistics (payload bytes, not headers).
        self.offchip_request_bytes = 0
        self.offchip_response_bytes = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_tiles(self) -> List[Tile]:
        tiles = []
        for tile_id in range(self.config.tile_count):
            node = self.placement.tile_nodes[tile_id]
            llc_slice = tile_id if self.placement.llc_slice_count == self.config.tile_count else None
            tile = Tile.create(
                tile_id=tile_id,
                node=node,
                l1_latency=self.config.cores.l1_latency_cycles,
                llc_slice=llc_slice,
            )
            self.coherence.register_complex(tile.complex)
            tiles.append(tile)
        return tiles

    def _build_memory_controllers(self) -> List[MemoryController]:
        bandwidth_bytes_per_cycle = (
            self.config.memory.bandwidth_gbps_per_controller / self.config.cores.frequency_ghz
        )
        controllers = []
        for index, node in enumerate(self.placement.mc_nodes):
            dram = DramModel(
                self.sim,
                latency_cycles=self.config.memory_latency_cycles,
                bandwidth_bytes_per_cycle=bandwidth_bytes_per_cycle,
                name="dram[%d]" % index,
            )
            controllers.append(MemoryController(self.sim, index, node, dram))
        return controllers

    # ------------------------------------------------------------------
    # Setup API used by workloads and examples
    # ------------------------------------------------------------------
    def register_context(self, ctx_id: int, size_bytes: int, base_addr: int = 0x4000_0000):
        """Register a memory region for one-sided remote access."""
        return self.contexts.register(ctx_id, base_addr, size_bytes)

    def create_queue_pair(self, core_id: int, prewarm: bool = True) -> QueuePair:
        """Allocate a queue pair for ``core_id``, registered with its NI frontend."""
        frontend = self.ni.frontend_for_core(core_id)
        qp = self.qp_manager.create(core_id, servicing_ni=frontend.name)
        if prewarm:
            self._prewarm_queue_pair(core_id, qp)
        return qp

    def _prewarm_queue_pair(self, core_id: int, qp: QueuePair) -> None:
        """Install the steady-state coherence state of the QP blocks.

        In steady state the NI polls on the WQ head (it holds the WQ blocks
        shared) and the core polls on the CQ head (it holds the CQ blocks
        shared); all QP blocks have a clean LLC copy.  For collocated NI
        caches (per-tile / split) the whole complex simply owns its QP blocks.
        """
        frontend = self.ni.frontend_for_core(core_id)
        core_complex = self.tiles[core_id].complex
        ni_entity = frontend.entity_id
        collocated = ni_entity == core_complex.entity_id
        wq_blocks = {qp.wq.entry_block_address(i) for i in range(qp.wq.capacity)}
        cq_blocks = {qp.cq.entry_block_address(i) for i in range(qp.cq.capacity)}
        if collocated:
            for block in wq_blocks:
                entry = self.directory.entry(block)
                entry.record_exclusive(core_complex.entity_id)
                core_complex.install(block, CacheState.MODIFIED, into="core")
            for block in cq_blocks:
                entry = self.directory.entry(block)
                entry.record_exclusive(core_complex.entity_id)
                core_complex.install(block, CacheState.MODIFIED, into="ni")
            return
        ni_complex = self.coherence.complex_of(ni_entity)
        for block in wq_blocks:
            entry = self.directory.entry(block)
            entry.in_llc = True
            entry.record_shared({ni_entity})
            ni_complex.install(block, CacheState.SHARED, into="ni")
        for block in cq_blocks:
            entry = self.directory.entry(block)
            entry.in_llc = True
            entry.record_shared({core_complex.entity_id})
            core_complex.install(block, CacheState.SHARED, into="core")

    def attach_remote_port(self, port) -> None:
        """Attach the rack-side model (normally a :class:`RemoteEndEmulator`)."""
        self._remote_port = port

    def register_completion_listener(self, core_id: int, callback: Callable[[], None]) -> None:
        """Register the core model's CQ-notification callback."""
        self._completion_listeners[core_id] = callback

    # ------------------------------------------------------------------
    # NodeServices implementation
    # ------------------------------------------------------------------
    def tile_complex(self, tile_id: int):
        return self.tiles[tile_id].complex

    def network_port_node(self, near_node: Hashable) -> Hashable:
        return self.placement.network_port_node(near_node)

    def translate(self, ctx_id: int, offset: int, length: int) -> int:
        return self.contexts.validate(ctx_id, offset, length).translate(offset)

    def notify_completion(self, core_id: int) -> None:
        callback = self._completion_listeners.get(core_id)
        if callback is not None:
            callback()

    def off_chip_send(self, message, from_node: Hashable) -> None:
        if self._remote_port is None:
            raise SimulationError("no remote port attached; call attach_remote_port() first")
        if isinstance(message, RemoteRequest):
            self.offchip_request_bytes += message.wire_bytes
        elif isinstance(message, RemoteResponse):
            self.offchip_response_bytes += message.wire_bytes
        self._remote_port.send(message, from_node)

    # -- data path (LLC + MC + DRAM) -------------------------------------
    # Each step is a method that receives the request's state as explicit
    # arguments and passes it on to the next, queued as the plain function
    # ``ManycoreSoc._step`` with the machine as its first argument (see the
    # fabric's delivery contract); ``on_done(*args)`` is the caller's
    # continuation.
    def memory_read(self, requester_node: Hashable, addr: int, nbytes: int,
                    on_done: Callable[..., None], *args) -> None:
        """Data-path read: requester -> home LLC slice (miss) -> MC -> DRAM,
        with the fill returning through the home slice before the data is
        forwarded to the requester.

        The paper sizes all remote regions and local buffers to exceed the
        aggregate on-chip cache capacity (§5), so the LLC lookup always
        misses and the access is served by memory.  The final forward is
        directory-sourced traffic, which is what the paper's extended CDR
        routes YX to keep it from turning at the NI edge column (§4.3).
        """
        slice_idx = self.address_map.home_llc_slice(addr)
        mc = self.memory_controllers[self.address_map.mc_for_addr(addr)]
        self.fabric.send(
            requester_node, self.placement.llc_nodes[slice_idx], _MEM_REQUEST_BYTES,
            MessageClass.MEMORY_REQUEST,
            ManycoreSoc._read_at_llc, self, requester_node, slice_idx, mc, nbytes, on_done, args,
        )

    def _llc_ready_delay(self, slice_idx: int) -> float:
        """Occupy the home LLC bank; cycles until its lookup completes."""
        grant = self.llc_banks[slice_idx].acquire(self.config.llc.bank_occupancy_cycles)
        return max(0.0, grant + self.config.llc.latency_cycles - self.sim.now)

    def _read_at_llc(self, requester_node, slice_idx, mc, nbytes, on_done, args) -> None:
        self.sim.schedule(self._llc_ready_delay(slice_idx), ManycoreSoc._read_forward_to_mc,
                          self, requester_node, slice_idx, mc, nbytes, on_done, args)

    def _read_forward_to_mc(self, requester_node, slice_idx, mc, nbytes, on_done, args) -> None:
        self.fabric.send(
            self.placement.llc_nodes[slice_idx], mc.node, _MEM_REQUEST_BYTES,
            MessageClass.DIRECTORY_SOURCED,
            ManycoreSoc._read_at_mc, self, requester_node, slice_idx, mc, nbytes, on_done, args,
        )

    def _read_at_mc(self, requester_node, slice_idx, mc, nbytes, on_done, args) -> None:
        mc.service(nbytes, False, ManycoreSoc._read_fill_to_home,
                   self, requester_node, slice_idx, mc, nbytes, on_done, args)

    def _read_fill_to_home(self, requester_node, slice_idx, mc, nbytes, on_done, args) -> None:
        self.fabric.send(
            mc.node, self.placement.llc_nodes[slice_idx], nbytes, MessageClass.MEMORY_RESPONSE,
            ManycoreSoc._read_forward_to_requester, self, requester_node, slice_idx, nbytes,
            on_done, args,
        )

    def _read_forward_to_requester(self, requester_node, slice_idx, nbytes, on_done, args) -> None:
        self.fabric.send(
            self.placement.llc_nodes[slice_idx], requester_node, nbytes,
            MessageClass.DIRECTORY_SOURCED, on_done, *args,
        )

    def memory_write(self, requester_node: Hashable, addr: int, nbytes: int,
                     on_done: Callable[..., None], *args) -> None:
        """Data-path write: posted at the home LLC slice, drained to the MC behind it."""
        slice_idx = self.address_map.home_llc_slice(addr)
        mc = self.memory_controllers[self.address_map.mc_for_addr(addr)]
        self.fabric.send(
            requester_node, self.placement.llc_nodes[slice_idx], nbytes, MessageClass.NI_DATA,
            ManycoreSoc._write_at_llc, self, slice_idx, mc, nbytes, on_done, args,
        )

    def _write_at_llc(self, slice_idx, mc, nbytes, on_done, args) -> None:
        self.sim.schedule(self._llc_ready_delay(slice_idx), ManycoreSoc._write_accept,
                          self, slice_idx, mc, nbytes, on_done, args)

    def _write_accept(self, slice_idx, mc, nbytes, on_done, args) -> None:
        on_done(*args)
        # Dirty data drains to memory off the critical path.
        self.fabric.send(
            self.placement.llc_nodes[slice_idx], mc.node, nbytes, MessageClass.DIRECTORY_SOURCED,
            MemoryController.service, mc, nbytes, True,
        )

    def _coherence_memory_fetch(self, home_node: Hashable, addr: int,
                                callback: Callable[..., None], *args) -> None:
        """LLC-miss fill path used by the coherence protocol for QP blocks."""
        mc = self.memory_controllers[self.address_map.mc_for_addr(addr)]
        self.fabric.send(home_node, mc.node, _MEM_REQUEST_BYTES, MessageClass.DIRECTORY_SOURCED,
                         ManycoreSoc._fetch_at_mc, self, home_node, mc, callback, args)

    def _fetch_at_mc(self, home_node, mc, callback, args) -> None:
        mc.service(self.config.cache_block_bytes, False, ManycoreSoc._fetch_send_back,
                   self, home_node, mc, callback, args)

    def _fetch_send_back(self, home_node, mc, callback, args) -> None:
        self.fabric.send(mc.node, home_node, self.config.cache_block_bytes,
                         MessageClass.MEMORY_RESPONSE, callback, *args)

    # ------------------------------------------------------------------
    # Rack-facing delivery API (called by the remote port)
    # ------------------------------------------------------------------
    def deliver_response(self, response: RemoteResponse) -> None:
        """A response to a locally-initiated request arrived from the network."""
        self.ni.deliver_response(response)

    def deliver_remote_request(self, request: RemoteRequest) -> None:
        """An incoming one-sided request arrived from a remote node."""
        self.ni.deliver_remote_request(request)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Advance the simulation."""
        return self.sim.run(until=until)

    def close(self) -> None:
        """Release a finished machine so reference counting frees it.

        The machine's parts point back at each other: queued events and
        parked coherence transactions carry its parts as arguments, the NI
        pipelines and the coherence protocol call back into the SoC, and the
        remote port and the core models hold it.  Closing drops the pending
        events and the parked transactions, and cuts every reference back to
        the SoC or to the NI's transfer table, so the machine dies as soon as
        its last holder lets go instead of waiting for a full cyclic
        collection.  Whoever builds a machine closes it when its run returns.

        Every counter stays readable at the value it had; :meth:`run`
        raises :class:`~repro.errors.SimulationError` afterwards.  Closing
        twice is a no-op.
        """
        self.sim.close()
        self.directory.drop_pending()
        self.ni.close()
        self.coherence.memory_access = None
        self._remote_port = None
        self._completion_listeners.clear()

    def llc_bank_utilization(self) -> float:
        """Utilization of the most loaded LLC bank."""
        if not self.llc_banks:
            return 0.0
        return max(bank.utilization() for bank in self.llc_banks)
