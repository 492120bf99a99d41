"""Directory bookkeeping for the MESI protocol.

The directory is distributed: each tile's LLC slice owns the directory state
for the blocks statically interleaved to it.  This module only keeps the
*bookkeeping* (owner, sharers, LLC presence, busy/pending transactions); the
message choreography lives in :mod:`repro.coherence.protocol`.

The protocol is non-inclusive and non-notifying (§3.4): the directory may
track an inexact sharer set, which in this model simply means sharers are
removed lazily when an invalidation discovers the copy already gone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, Hashable, List, Optional, Set

from repro.errors import CoherenceError

#: The sharer set of a block nobody shares.  One shared immutable instance
#: (``frozenset()`` is not a singleton), so the many entries without sharers —
#: every prewarmed QP block of a collocated NI — allocate no set of their own.
NO_SHARERS: AbstractSet[Hashable] = frozenset()


@dataclass(slots=True)
class DirectoryEntry:
    """Directory state for one cache block."""

    addr: int
    #: Entity id of the complex holding the block in M/E, if any.
    owner: Optional[Hashable] = None
    #: Entity ids of complexes holding the block in S (:data:`NO_SHARERS`
    #: when there are none; :meth:`add_sharer` swaps in a set).
    sharers: AbstractSet[Hashable] = NO_SHARERS
    #: Whether the LLC slice has a (clean) copy of the data.
    in_llc: bool = False
    #: A transaction is currently in flight for this block.
    busy: bool = False
    #: Transactions waiting for the block to become free (FIFO); None until
    #: the first one queues.
    pending: Optional[List[object]] = None

    def holders(self) -> Set[Hashable]:
        """Every complex that may hold a copy."""
        holders = set(self.sharers)
        if self.owner is not None:
            holders.add(self.owner)
        return holders

    def add_sharer(self, entity: Hashable) -> None:
        """``entity`` now holds the block in S."""
        if self.sharers is NO_SHARERS:
            self.sharers = {entity}
        else:
            self.sharers.add(entity)

    def queue(self, transaction: object) -> None:
        """Park a transaction until the block's in-flight one completes."""
        if self.pending is None:
            self.pending = [transaction]
        else:
            self.pending.append(transaction)

    def record_exclusive(self, entity: Hashable) -> None:
        """The block is now exclusively owned by ``entity``."""
        self.owner = entity
        self.sharers = NO_SHARERS

    def record_shared(self, entities: Set[Hashable]) -> None:
        """The block is now shared by ``entities`` (no exclusive owner)."""
        self.owner = None
        self.sharers = set(entities)


class DirectoryController:
    """Per-chip directory bookkeeping with static home interleaving."""

    def __init__(self, home_tile_count: int, block_bytes: int = 64) -> None:
        if home_tile_count <= 0:
            raise CoherenceError("directory needs at least one home tile")
        if block_bytes <= 0:
            raise CoherenceError("block size must be positive")
        self.home_tile_count = home_tile_count
        self.block_bytes = block_bytes
        self._entries: Dict[int, DirectoryEntry] = {}
        # Statistics
        self.transactions_started = 0
        self.transactions_queued = 0
        self.memory_fetches = 0

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------
    def block_address(self, addr: int) -> int:
        """Align an address to its cache block."""
        return addr - (addr % self.block_bytes)

    def home_tile(self, addr: int) -> int:
        """Statically block-interleaved home LLC slice for ``addr`` (§3.1)."""
        return (self.block_address(addr) // self.block_bytes) % self.home_tile_count

    # ------------------------------------------------------------------
    # Entry access
    # ------------------------------------------------------------------
    def entry(self, addr: int) -> DirectoryEntry:
        """Directory entry for the block containing ``addr`` (created on demand)."""
        block = self.block_address(addr)
        entry = self._entries.get(block)
        if entry is None:
            entry = DirectoryEntry(addr=block)
            self._entries[block] = entry
        return entry

    def drop_pending(self) -> None:
        """Forget every parked transaction (a closed machine runs no more)."""
        for entry in self._entries.values():
            entry.pending = None

    def prewarm(self, addr: int) -> None:
        """Mark the block as present (clean) in the LLC.

        Used to set up the steady state of QP blocks before measurement so
        the very first access does not pay an unrepresentative DRAM fill.
        """
        self.entry(addr).in_llc = True
