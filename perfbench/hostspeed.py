"""The host-speed yardstick that the benchmark's host times are normalized by.

The machines this benchmark runs on are shared, and the same code can run
twice as fast in one minute as in the next.  A fixed kernel timed among the
work tracks that drift.  The kernel is a small heap-driven event loop, like
the simulator's, whose events also touch random entries of a table of
2**18 objects: the simulator's working set is tens of megabytes, and
neighbours that contend for the shared caches slow it more than they slow a
kernel that fits in the core's own caches.  On a shared 2-vCPU Xeon VM, over
seven 12-second processes per workload, the median round time spread 23-34 %
(quartile distance over median) as measured, 14-21 % over a cache-resident
event loop and 10-14 % over a loop of random table accesses.

The kernel imports nothing from the simulator and must never change: a
change to it rescales every host time the benchmark reports.
"""

from __future__ import annotations

import heapq
from time import perf_counter

#: Seconds one kernel run is taken to last on the nominal host.  A reported
#: host time is measured seconds x NOMINAL_KERNEL_S / measured kernel seconds.
NOMINAL_KERNEL_S = 0.025

TABLE_SLOTS = 1 << 18
EVENTS = 25_000


class _Slot:
    __slots__ = ("hits",)

    def __init__(self) -> None:
        self.hits = 0


class Yardstick:
    """Owns the kernel's table (about 15 MB, allocated once)."""

    def __init__(self) -> None:
        self._table = [_Slot() for _ in range(TABLE_SLOTS)]

    def kernel_seconds(self) -> float:
        """Seconds for one run of the kernel."""
        table = self._table
        mask = TABLE_SLOTS - 1
        start = perf_counter()
        queue: list = []
        push, pop = heapq.heappush, heapq.heappop
        for seq in range(64):
            push(queue, (float(seq), seq, (seq * 2654435761) & mask))
        seq = 64
        for _ in range(EVENTS):
            now, tag, position = pop(queue)
            table[position].hits += 1
            position = (position * 1103515245 + 12345 + tag) & mask
            seq += 1
            push(queue, (now + 1.0 + (position & 7), seq, position))
        return perf_counter() - start
