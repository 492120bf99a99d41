"""Memory-mapped work and completion queues.

Both queues are lock-free single-producer / single-consumer rings held in
cacheable memory.  The queue objects track functional state (entries,
head/tail) and expose the *block address* of any entry so the simulator can
drive the coherence protocol for the exact cache blocks a real implementation
would touch.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import CACHE_BLOCK_BYTES
from repro.errors import QueueError
from repro.qp.entries import (
    CQ_ENTRY_BYTES,
    WQ_ENTRY_BYTES,
    CompletionQueueEntry,
    WorkQueueEntry,
)


class _RingQueue:
    """Common ring-buffer mechanics for WQ and CQ."""

    def __init__(self, capacity: int, base_addr: int, entry_bytes: int, name: str) -> None:
        if capacity <= 0:
            raise QueueError("%s capacity must be positive" % name)
        if base_addr < 0:
            raise QueueError("%s base address cannot be negative" % name)
        if base_addr % CACHE_BLOCK_BYTES != 0:
            raise QueueError("%s base address must be cache-block aligned" % name)
        self.capacity = capacity
        self.base_addr = base_addr
        self.entry_bytes = entry_bytes
        self.name = name
        self._entries: List[Optional[object]] = [None] * capacity
        self._head = 0  # consumer position
        self._tail = 0  # producer position
        self._count = 0
        # Statistics
        self.posts = 0
        self.pops = 0
        self.full_stalls = 0

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    def is_empty(self) -> bool:
        return self._count == 0

    def is_full(self) -> bool:
        return self._count == self.capacity

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------
    def entry_address(self, index: int) -> int:
        """Memory address of entry ``index``."""
        if not 0 <= index < self.capacity:
            raise QueueError("%s index %d out of range" % (self.name, index))
        return self.base_addr + index * self.entry_bytes

    def entry_block_address(self, index: int) -> int:
        """Cache-block address holding entry ``index``."""
        addr = self.entry_address(index)
        return addr - (addr % CACHE_BLOCK_BYTES)

    def head_block_address(self) -> int:
        """Cache block the consumer polls on."""
        return self.entry_block_address(self._head)

    def tail_block_address(self) -> int:
        """Cache block the producer writes next."""
        return self.entry_block_address(self._tail)

    @property
    def entries_per_block(self) -> int:
        return max(1, CACHE_BLOCK_BYTES // self.entry_bytes)

    def footprint_blocks(self) -> int:
        """Number of distinct cache blocks backing the ring."""
        total_bytes = self.capacity * self.entry_bytes
        return (total_bytes + CACHE_BLOCK_BYTES - 1) // CACHE_BLOCK_BYTES

    # ------------------------------------------------------------------
    # Ring operations
    # ------------------------------------------------------------------
    def _post(self, entry: object) -> int:
        if self.is_full():
            self.full_stalls += 1
            raise QueueError("%s is full" % self.name)
        index = self._tail
        self._entries[index] = entry
        self._tail = (self._tail + 1) % self.capacity
        self._count += 1
        self.posts += 1
        return index

    def _peek(self) -> Optional[object]:
        if self.is_empty():
            return None
        return self._entries[self._head]

    def _pop(self) -> object:
        if self.is_empty():
            raise QueueError("%s is empty" % self.name)
        entry = self._entries[self._head]
        self._entries[self._head] = None
        self._head = (self._head + 1) % self.capacity
        self._count -= 1
        self.pops += 1
        return entry


class WorkQueue(_RingQueue):
    """The application-to-NI request ring."""

    def __init__(self, capacity: int, base_addr: int) -> None:
        super().__init__(capacity, base_addr, WQ_ENTRY_BYTES, "WQ@0x%x" % base_addr)

    def post(self, entry: WorkQueueEntry) -> int:
        """Append a request; returns the entry's WQ index."""
        index = self._post(entry)
        entry.wq_index = index
        return index

    def peek(self) -> Optional[WorkQueueEntry]:
        return self._peek()  # type: ignore[return-value]

    def pop(self) -> WorkQueueEntry:
        return self._pop()  # type: ignore[return-value]


class CompletionQueue(_RingQueue):
    """The NI-to-application completion ring."""

    def __init__(self, capacity: int, base_addr: int) -> None:
        super().__init__(capacity, base_addr, CQ_ENTRY_BYTES, "CQ@0x%x" % base_addr)

    def post(self, entry: CompletionQueueEntry) -> int:
        """Append a completion; returns the entry's CQ index."""
        return self._post(entry)

    def peek(self) -> Optional[CompletionQueueEntry]:
        return self._peek()  # type: ignore[return-value]

    def pop(self) -> CompletionQueueEntry:
        return self._pop()  # type: ignore[return-value]
