"""On-chip cache-coherence substrate.

Models the directory-based, non-inclusive, invalidation MESI protocol of
Table 2 at message granularity: every coherence transaction (GetX / GetRO /
Invalidate / Fwd / Data / InvAck / Unblock) becomes NOC packets with the hop
and serialization latencies of the configured topology, so the QP
ping-ponging that dominates the NIedge design's latency (§3.1, Table 1)
emerges from the model rather than being hard-coded.

The NI cache of §3.4 is modelled by :class:`~repro.coherence.caches.NICache`:
it sits on the back side of the core's L1 (for the per-tile and split
designs) or as a stand-alone coherence agent at the chip edge (for the edge
design), and optionally implements the *owned*-state optimization that lets
it forward a dirty CQ block to the local core without a round trip to the
LLC.
"""

from repro.coherence.states import CacheState
from repro.coherence.messages import CoherenceMessageType
from repro.coherence.caches import CacheArray, L1Cache, NICache, TileCacheComplex
from repro.coherence.directory import DirectoryController, DirectoryEntry
from repro.coherence.protocol import CoherenceProtocol, AccessResult

__all__ = [
    "CacheState",
    "CoherenceMessageType",
    "CacheArray",
    "L1Cache",
    "NICache",
    "TileCacheComplex",
    "DirectoryController",
    "DirectoryEntry",
    "CoherenceProtocol",
    "AccessResult",
]
