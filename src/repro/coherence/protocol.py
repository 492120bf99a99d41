"""Message-level choreography of the MESI directory protocol.

:class:`CoherenceProtocol` turns read/write requests from the registered
cache complexes (cores' L1s, NI caches, or collocated pairs) into the
sequences of NOC messages shown in the paper's Fig. 2:

* a **write** that misses (GetX) travels to the block's home directory, which
  invalidates every sharer and forwards the data; the requester resumes only
  after the data *and* every invalidation acknowledgement arrive (3-hop
  invalidation protocol);
* a **read** that misses (GetRO) either gets the data from the LLC slice or,
  when another cache holds the block modified, triggers a forward to the
  owner which supplies the data and downgrades (writing back to the LLC).

The directory is *blocking*: while a transaction for a block is outstanding,
later requests for the same block queue at the home slice.  This both keeps
the model race-free and reproduces the serialization that makes WQ/CQ blocks
ping-pong between a core and an edge NI.

All on-chip transfers go through :class:`~repro.noc.fabric.NocFabric`, so hop
counts, serialization and link contention are accounted naturally for every
protocol message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional, Sequence

from repro.coherence.caches import TileCacheComplex
from repro.coherence.directory import DirectoryController, DirectoryEntry
from repro.coherence.messages import CoherenceMessageType, message_class
from repro.coherence.states import CacheState
from repro.errors import CoherenceError
from repro.noc.fabric import NocFabric
from repro.sim.engine import Simulator

#: Fixed controller occupancy charged at each protocol endpoint, on top of
#: the structure's access latency (MSHR allocation, state lookup, message
#: formatting).  A small constant typical of aggressive coherence controllers.
CONTROLLER_OVERHEAD_CYCLES = 2


@dataclass(slots=True)
class AccessResult:
    """Completion record handed to the requester's callback."""

    addr: int
    write: bool
    start_time: float
    complete_time: float
    served_locally: bool
    #: Physical structure that supplied the block for local hits ("l1"/"ni").
    local_source: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.complete_time - self.start_time


@dataclass(slots=True)
class _Transaction:
    """Book-keeping for one outstanding remote coherence transaction."""

    complex: TileCacheComplex
    requester_kind: str
    addr: int
    write: bool
    start_time: float
    on_done: Callable[..., None]
    #: Extra arguments ``on_done`` receives after the :class:`AccessResult`.
    on_done_args: tuple = ()
    home_tile: int = 0
    home_node: Hashable = None
    acks_needed: int = 0
    acks_received: int = 0
    data_received: bool = False
    completed: bool = False
    #: Directory dispatch retries forced by an active coherence fault model.
    retries: int = 0


class CoherenceProtocol:
    """Drives MESI transactions over the NOC fabric."""

    def __init__(
        self,
        sim: Simulator,
        fabric: NocFabric,
        directory: DirectoryController,
        home_nodes: Sequence[Hashable],
        llc_latency_cycles: int = 6,
        memory_access: Optional[Callable[..., None]] = None,
        fallback_memory_latency_cycles: int = 100,
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.directory = directory
        #: NOC node of each home LLC slice, indexed by home tile.
        self.home_nodes = home_nodes
        self.llc_latency_cycles = llc_latency_cycles
        #: LLC-miss fill, called as ``memory_access(home_node, addr, callback,
        #: *args)``; ``callback(*args)`` runs when the block is at the home.
        self.memory_access = memory_access
        self.fallback_memory_latency_cycles = fallback_memory_latency_cycles
        self._complexes: Dict[Hashable, TileCacheComplex] = {}
        #: Fault-state attachment point (set by the FaultInjector; None on
        #: fault-free runs, which must stay byte-identical).
        self.faults = None
        # Statistics
        self.local_hits = 0
        self.remote_transactions = 0
        self.invalidations_sent = 0
        self.forwards_sent = 0
        self.local_writeback_roundtrips = 0
        self.directory_retries = 0
        self.retry_backoff_cycles = 0.0

    # ------------------------------------------------------------------
    # Registration and setup
    # ------------------------------------------------------------------
    def register_complex(self, complex_: TileCacheComplex) -> None:
        """Register a coherence entity (a tile's L1[+NI cache] or an edge NI cache)."""
        if complex_.entity_id in self._complexes:
            raise CoherenceError("entity %r registered twice" % (complex_.entity_id,))
        self._complexes[complex_.entity_id] = complex_

    def complex_of(self, entity_id: Hashable) -> TileCacheComplex:
        try:
            return self._complexes[entity_id]
        except KeyError:
            raise CoherenceError("unknown coherence entity %r" % (entity_id,)) from None

    def prewarm(self, addr: int) -> None:
        """Mark a block clean-in-LLC (steady-state setup for QP blocks)."""
        self.directory.prewarm(addr)

    # ------------------------------------------------------------------
    # Public access API
    # ------------------------------------------------------------------
    def access(
        self,
        entity_id: Hashable,
        requester_kind: str,
        addr: int,
        write: bool,
        on_done: Callable[..., None],
        *args,
    ) -> None:
        """Perform a coherent read (``write=False``) or write to ``addr``.

        ``requester_kind`` identifies which side of the complex issues the
        access: "core" (through the L1) or "ni" (through the NI cache).
        ``on_done(result, *args)`` is invoked at completion time, with an
        :class:`AccessResult` as ``result``.
        """
        complex_ = self._complexes.get(entity_id)
        if complex_ is None:
            complex_ = self.complex_of(entity_id)  # raises the unknown-entity error
        start = self.sim.now
        lookup = complex_.local_lookup(requester_kind, addr, write)
        if lookup.hit:
            self.local_hits += 1
            if lookup.requires_writeback:
                # Owned-state optimization disabled: write the dirty block
                # back to the LLC before the local forward may complete.
                self.local_writeback_roundtrips += 1
                self._writeback_roundtrip(complex_, addr, lookup.latency, start, write,
                                          lookup.source, on_done, args)
                return
            self.sim.schedule(
                lookup.latency,
                CoherenceProtocol._complete_local, self,
                complex_, addr, write, start, lookup.source, on_done, args,
            )
            return
        # Miss inside the complex: start a remote transaction after the
        # local lookup latency (miss determination).
        txn = _Transaction(
            complex=complex_,
            requester_kind=requester_kind,
            addr=self.directory.block_address(addr),
            write=write,
            start_time=start,
            on_done=on_done,
            on_done_args=args,
        )
        txn.home_tile = self.directory.home_tile(addr)
        txn.home_node = self.home_nodes[txn.home_tile]
        self.remote_transactions += 1
        self.sim.schedule(lookup.latency + CONTROLLER_OVERHEAD_CYCLES,
                          CoherenceProtocol._send_request, self, txn)

    # ------------------------------------------------------------------
    # Local completion paths
    # ------------------------------------------------------------------
    def _complete_local(
        self,
        complex_: TileCacheComplex,
        addr: int,
        write: bool,
        start: float,
        source: Optional[str],
        on_done: Callable[..., None],
        args: tuple,
    ) -> None:
        on_done(
            AccessResult(
                addr=addr,
                write=write,
                start_time=start,
                complete_time=self.sim.now,
                served_locally=True,
                local_source=source,
            ),
            *args,
        )

    def _writeback_roundtrip(
        self,
        complex_: TileCacheComplex,
        addr: int,
        local_latency: int,
        start: float,
        write: bool,
        source: Optional[str],
        on_done: Callable[..., None],
        args: tuple,
    ) -> None:
        home_node = self.home_nodes[self.directory.home_tile(addr)]
        entry = self.directory.entry(addr)
        local = (complex_, addr, write, start, source, on_done, args)
        self.sim.schedule(local_latency, CoherenceProtocol._send_writeback,
                          self, home_node, entry, local)

    def _send_writeback(self, home_node: Hashable, entry: DirectoryEntry, local: tuple) -> None:
        wb = CoherenceMessageType.WRITEBACK
        self.fabric.send(
            local[0].node, home_node, wb.payload_bytes,
            message_class(wb, from_directory=False),
            CoherenceProtocol._writeback_arrived, self, home_node, entry, local,
        )

    def _writeback_arrived(self, home_node: Hashable, entry: DirectoryEntry, local: tuple) -> None:
        self.sim.schedule(self.llc_latency_cycles, CoherenceProtocol._writeback_at_home,
                          self, home_node, entry, local)

    def _writeback_at_home(self, home_node: Hashable, entry: DirectoryEntry, local: tuple) -> None:
        entry.in_llc = True
        unblock = CoherenceMessageType.UNBLOCK
        self.fabric.send(
            home_node, local[0].node, unblock.payload_bytes,
            message_class(unblock, from_directory=True),
            CoherenceProtocol._complete_local, self, *local,
        )

    # ------------------------------------------------------------------
    # Remote transaction choreography
    # ------------------------------------------------------------------
    def _send_request(self, txn: _Transaction) -> None:
        msg_type = (
            CoherenceMessageType.GET_EXCLUSIVE if txn.write else CoherenceMessageType.GET_READ_ONLY
        )
        self.fabric.send(
            txn.complex.node,
            txn.home_node,
            msg_type.payload_bytes,
            message_class(msg_type, from_directory=False),
            CoherenceProtocol._arrive_at_directory, self, txn,
        )

    def _arrive_at_directory(self, txn: _Transaction) -> None:
        entry = self.directory.entry(txn.addr)
        if entry.busy:
            self.directory.transactions_queued += 1
            entry.queue(txn)
            return
        entry.busy = True
        self.directory.transactions_started += 1
        self.sim.schedule(self.llc_latency_cycles, CoherenceProtocol._directory_act,
                          self, txn, entry)

    def _directory_act(self, txn: _Transaction, entry: DirectoryEntry) -> None:
        faults = self.faults
        if faults is not None:
            # A stale/corrupt directory entry bounces this dispatch: charge
            # the model's backoff and re-ask.  Models bound their retries,
            # so the loop terminates even inside a long fault window.
            backoff = faults.directory_retry(txn.addr, txn.retries)
            if backoff > 0.0:
                txn.retries += 1
                self.directory_retries += 1
                self.retry_backoff_cycles += backoff
                self.sim.schedule(backoff, CoherenceProtocol._directory_act, self, txn, entry)
                return
        requester_id = txn.complex.entity_id
        owner = entry.owner if entry.owner != requester_id else None
        sharers = {s for s in entry.sharers if s != requester_id}
        if txn.write:
            self._handle_write_at_directory(txn, entry, owner, sharers)
        else:
            self._handle_read_at_directory(txn, entry, owner)

    # -- writes --------------------------------------------------------
    def _handle_write_at_directory(
        self,
        txn: _Transaction,
        entry: DirectoryEntry,
        owner: Optional[Hashable],
        sharers,
    ) -> None:
        requester_id = txn.complex.entity_id
        if owner is not None:
            # 3-hop forward: the owner supplies the data and invalidates itself.
            self.forwards_sent += 1
            owner_complex = self.complex_of(owner)
            self._send_forward(txn, entry, owner_complex, invalidate_owner=True)
        else:
            txn.acks_needed = len(sharers)
            for sharer in sharers:
                self._send_invalidate(txn, entry, self.complex_of(sharer))
            self._send_data_from_home(txn, entry)
        entry.record_exclusive(requester_id)

    # -- reads ---------------------------------------------------------
    def _handle_read_at_directory(
        self,
        txn: _Transaction,
        entry: DirectoryEntry,
        owner: Optional[Hashable],
    ) -> None:
        requester_id = txn.complex.entity_id
        if owner is not None and self.complex_of(owner).holds_dirty(txn.addr):
            self.forwards_sent += 1
            owner_complex = self.complex_of(owner)
            self._send_forward(txn, entry, owner_complex, invalidate_owner=False)
            entry.record_shared({owner, requester_id})
            entry.in_llc = True  # the owner writes back a copy
        else:
            if owner is not None:
                # Clean-exclusive owner: silently downgrade it to shared.
                self.complex_of(owner).downgrade(txn.addr)
                entry.add_sharer(owner)
                entry.owner = None
            txn.acks_needed = 0
            self._send_data_from_home(txn, entry)
            entry.add_sharer(requester_id)

    # -- message helpers ------------------------------------------------
    @staticmethod
    def _controller_delay(target: TileCacheComplex) -> int:
        """Cycles a complex takes to act on a directory message."""
        delay = CONTROLLER_OVERHEAD_CYCLES
        if target.l1 is not None:
            delay += target.l1.access_latency
        elif target.ni_cache is not None:
            delay += target.ni_cache.access_latency
        return delay

    def _send_invalidate(self, txn: _Transaction, entry: DirectoryEntry,
                         target: TileCacheComplex) -> None:
        self.invalidations_sent += 1
        msg = CoherenceMessageType.INVALIDATE
        self.fabric.send(
            txn.home_node, target.node, msg.payload_bytes,
            message_class(msg, from_directory=True),
            CoherenceProtocol._invalidate_at_target, self, txn, target,
        )

    def _invalidate_at_target(self, txn: _Transaction, target: TileCacheComplex) -> None:
        delay = self._controller_delay(target)
        target.invalidate(txn.addr)
        self.sim.schedule(delay, CoherenceProtocol._send_inv_ack, self, txn, target)

    def _send_inv_ack(self, txn: _Transaction, target: TileCacheComplex) -> None:
        msg = CoherenceMessageType.INV_ACK
        self.fabric.send(
            target.node, txn.complex.node, msg.payload_bytes,
            message_class(msg, from_directory=False),
            CoherenceProtocol._ack_arrived, self, txn,
        )

    def _ack_arrived(self, txn: _Transaction) -> None:
        txn.acks_received += 1
        self._maybe_complete(txn)

    def _send_data_from_home(self, txn: _Transaction, entry: DirectoryEntry) -> None:
        if entry.in_llc:
            self._dispatch_data(txn)
            return
        # The LLC slice does not have the block: fetch it from memory.
        self.directory.memory_fetches += 1
        entry.in_llc = True
        if self.memory_access is not None:
            self.memory_access(txn.home_node, txn.addr, CoherenceProtocol._dispatch_data,
                               self, txn)
        else:
            self.sim.schedule(self.fallback_memory_latency_cycles,
                              CoherenceProtocol._dispatch_data, self, txn)

    def _dispatch_data(self, txn: _Transaction) -> None:
        msg = CoherenceMessageType.MISS_NOTIFY_DATA
        self.fabric.send(
            txn.home_node, txn.complex.node, msg.payload_bytes,
            message_class(msg, from_directory=True),
            CoherenceProtocol._data_arrived, self, txn,
        )

    def _send_forward(self, txn: _Transaction, entry: DirectoryEntry,
                      owner_complex: TileCacheComplex, invalidate_owner: bool) -> None:
        fwd = CoherenceMessageType.FWD_GET
        self.fabric.send(
            txn.home_node, owner_complex.node, fwd.payload_bytes,
            message_class(fwd, from_directory=True),
            CoherenceProtocol._forward_at_owner, self, txn, owner_complex, invalidate_owner,
        )

    def _forward_at_owner(self, txn: _Transaction, owner_complex: TileCacheComplex,
                          invalidate_owner: bool) -> None:
        self.sim.schedule(self._controller_delay(owner_complex), CoherenceProtocol._owner_responds,
                          self, txn, owner_complex, invalidate_owner)

    def _owner_responds(self, txn: _Transaction, owner_complex: TileCacheComplex,
                        invalidate_owner: bool) -> None:
        if invalidate_owner:
            owner_complex.invalidate(txn.addr)
        else:
            owner_complex.downgrade(txn.addr)
            # Keep the LLC copy up to date (off the critical path).
            wb = CoherenceMessageType.WRITEBACK
            self.fabric.send(
                owner_complex.node, txn.home_node, wb.payload_bytes,
                message_class(wb, from_directory=False), None,
            )
        reply = CoherenceMessageType.DATA_REPLY
        self.fabric.send(
            owner_complex.node, txn.complex.node, reply.payload_bytes,
            message_class(reply, from_directory=False),
            CoherenceProtocol._data_arrived, self, txn,
        )

    # -- completion ------------------------------------------------------
    def _data_arrived(self, txn: _Transaction) -> None:
        txn.data_received = True
        self._maybe_complete(txn)

    def _maybe_complete(self, txn: _Transaction) -> None:
        if txn.completed:
            return
        if not txn.data_received or txn.acks_received < txn.acks_needed:
            return
        txn.completed = True
        install_latency = CONTROLLER_OVERHEAD_CYCLES
        if txn.requester_kind == "core" and txn.complex.l1 is not None:
            install_latency += txn.complex.l1.access_latency
        elif txn.complex.ni_cache is not None:
            install_latency += txn.complex.ni_cache.access_latency
        state = CacheState.MODIFIED if txn.write else CacheState.SHARED
        into = "core" if (txn.requester_kind == "core" and txn.complex.l1 is not None) else "ni"
        txn.complex.install(txn.addr, state, into)
        self.sim.schedule(install_latency, CoherenceProtocol._finish, self, txn)

    def _finish(self, txn: _Transaction) -> None:
        txn.on_done(
            AccessResult(
                addr=txn.addr,
                write=txn.write,
                start_time=txn.start_time,
                complete_time=self.sim.now,
                served_locally=False,
            ),
            *txn.on_done_args,
        )
        # Unblock the home directory (off the requester's critical path).
        msg = CoherenceMessageType.UNBLOCK
        self.fabric.send(
            txn.complex.node, txn.home_node, msg.payload_bytes,
            message_class(msg, from_directory=False),
            CoherenceProtocol._unblock, self, txn.addr,
        )

    def _unblock(self, addr: int) -> None:
        entry = self.directory.entry(addr)
        entry.busy = False
        if entry.pending:
            next_txn = entry.pending.pop(0)
            self._arrive_at_directory(next_txn)
