"""Cache models participating in the coherence protocol.

Three kinds of caches exist in the modelled chip:

* :class:`L1Cache` — a core's private data cache (3-cycle access, Table 2).
* :class:`NICache` — the small cache holding QP entries inside an NI (§3.4).
  In the edge design it is a stand-alone coherence agent with its own tile
  id; in the per-tile and split designs it is attached to the *back side* of
  the collocated core's L1, snooping its traffic, so the pair appears to the
  LLC's coherence domain as a single logical entity.
* :class:`TileCacheComplex` — that logical entity.  It tracks the *external*
  MESI state the directory granted (one state for the whole complex) plus
  which physical structure currently holds the copy and whether it is dirty.
  Moving a QP block between the L1 and the back-side NI cache is a local
  5-cycle transfer (the "WQ/CQ entry transfer" of Table 3) and never
  involves the directory; the OWNED-state optimization (§3.4) additionally
  lets the NI cache forward a *dirty* CQ block to the core without first
  writing it back to the LLC.

Capacity is not modelled: the QP footprint is a handful of blocks and the
paper sizes all data buffers to miss in every cache, so data accesses bypass
these structures entirely (§3.1: the NI cache "is bypassed by all of the
NI's data (non-QP) accesses").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Set

from repro.coherence.states import CacheState
from repro.errors import CoherenceError


class CacheArray:
    """One physical cache structure: copy presence, dirtiness and statistics."""

    def __init__(self, name: str, access_latency: int) -> None:
        if access_latency < 0:
            raise CoherenceError("cache access latency cannot be negative")
        self.name = name
        self.access_latency = access_latency
        self._present: Set[int] = set()
        self._dirty: Set[int] = set()
        # Statistics
        self.hits = 0
        self.misses = 0
        self.invalidations_received = 0
        self.writebacks = 0

    def has_copy(self, addr: int) -> bool:
        return addr in self._present

    def is_dirty(self, addr: int) -> bool:
        return addr in self._dirty

    def fill(self, addr: int, dirty: bool) -> None:
        """Install a copy of the block."""
        self._present.add(addr)
        if dirty:
            self._dirty.add(addr)
        else:
            self._dirty.discard(addr)

    def drop(self, addr: int) -> bool:
        """Remove the copy; returns True if dirty data was discarded."""
        dirty = addr in self._dirty
        self._present.discard(addr)
        self._dirty.discard(addr)
        return dirty

    def clean(self, addr: int) -> None:
        """Clear the dirty bit (after a write-back)."""
        self._dirty.discard(addr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "%s(%s, %d blocks)" % (type(self).__name__, self.name, len(self._present))


class L1Cache(CacheArray):
    """A core's private L1 data cache."""

    def __init__(self, tile_id: int, access_latency: int = 3) -> None:
        super().__init__("l1[%d]" % tile_id, access_latency)
        self.tile_id = tile_id


class NICache(CacheArray):
    """The NI's QP cache (§3.4).

    ``owned_state_enabled`` selects whether the controller implements the
    OWNED optimization: on a local read of a MODIFIED block it forwards a
    clean copy and keeps the dirty data (the block becomes OWNED inside the
    NI cache) instead of writing back to the LLC first.
    """

    def __init__(self, name: str, access_latency: int = 2, owned_state_enabled: bool = True) -> None:
        super().__init__(name, access_latency)
        self.owned_state_enabled = owned_state_enabled
        #: Number of times the OWNED fast path avoided an LLC round trip.
        self.owned_fast_forwards = 0
        self._owned: Set[int] = set()

    def is_owned(self, addr: int) -> bool:
        """True when the block sits in the NI-cache-only OWNED state."""
        return addr in self._owned

    def mark_owned(self, addr: int) -> None:
        if not self.has_copy(addr):
            raise CoherenceError("cannot mark an absent block OWNED in %s" % self.name)
        self._owned.add(addr)
        self.owned_fast_forwards += 1

    def drop(self, addr: int) -> bool:
        self._owned.discard(addr)
        return super().drop(addr)

    def clean(self, addr: int) -> None:
        self._owned.discard(addr)
        super().clean(addr)


@dataclass
class LocalLookup:
    """Outcome of a lookup inside a tile's cache complex."""

    hit: bool
    latency: int
    #: True when the hit requires an LLC write-back first (owned-state ablation).
    requires_writeback: bool = False
    #: Which physical structure supplied the block ("l1", "ni", or None).
    source: Optional[str] = None


class TileCacheComplex:
    """The logical coherence entity at one requestor site.

    For per-tile and split NI designs the complex contains both the core's L1
    and the back-side NI cache; for the edge design, the core tiles contain
    only an L1 and each edge NI has its own complex containing only an NI
    cache.  The coherence directory tracks the complex, not the individual
    physical caches.
    """

    #: Latency of moving a QP block between the L1 and the back-side NI cache
    #: (the "WQ/CQ entry transfer" of Table 3).
    LOCAL_TRANSFER_CYCLES = 5

    def __init__(
        self,
        entity_id: Hashable,
        node: Hashable,
        l1: Optional[L1Cache] = None,
        ni_cache: Optional[NICache] = None,
    ) -> None:
        if l1 is None and ni_cache is None:
            raise CoherenceError("a cache complex needs at least one physical cache")
        self.entity_id = entity_id
        self.node = node
        self.l1 = l1
        self.ni_cache = ni_cache
        #: External MESI state granted by the directory, per block.
        self._external: Dict[int, CacheState] = {}
        self.local_transfers = 0

    # ------------------------------------------------------------------
    # Aggregate state, as seen by the directory
    # ------------------------------------------------------------------
    def state(self, addr: int) -> CacheState:
        """External state of the block for this logical entity."""
        return self._external.get(addr, CacheState.INVALID)

    def holds(self, addr: int) -> bool:
        return self.state(addr).readable

    def holds_dirty(self, addr: int) -> bool:
        return any(cache.is_dirty(addr) for cache in self._caches())

    def invalidate(self, addr: int) -> bool:
        """Invalidate every physical copy; returns True if dirty data was dropped."""
        dirty = False
        for cache in self._caches():
            cache.invalidations_received += 1
            dirty = cache.drop(addr) or dirty
        self._external.pop(addr, None)
        return dirty

    def downgrade(self, addr: int) -> None:
        """Transition to SHARED (response to a Fwd); dirty data is written back."""
        if self.state(addr) is CacheState.INVALID:
            return
        self._external[addr] = CacheState.SHARED
        for cache in self._caches():
            if cache.has_copy(addr):
                cache.clean(addr)

    def install(self, addr: int, state: CacheState, into: str) -> None:
        """Install a block arriving from the directory into one physical cache."""
        if state is CacheState.INVALID:
            raise CoherenceError("cannot install a block in the INVALID state")
        cache = self._cache_for(into)
        other = self._other_cache(cache)
        self._external[addr] = state
        cache.fill(addr, dirty=(state is CacheState.MODIFIED))
        if other is not None:
            other.drop(addr)

    # ------------------------------------------------------------------
    # Local (intra-complex) lookups
    # ------------------------------------------------------------------
    def local_lookup(self, requester: str, addr: int, write: bool) -> LocalLookup:
        """Resolve an access locally if the complex's external state permits it.

        ``requester`` is "core" (the access comes from the core through its
        L1) or "ni" (the access comes from the NI frontend through the NI
        cache).  The external state never changes here; only the location of
        the copy (and the dirty bit) moves between the physical structures.
        """
        primary, secondary = self._lookup_order(requester)
        external = self.state(addr)
        permitted = external.writable if write else external.readable
        if not permitted:
            primary.misses += 1
            return LocalLookup(hit=False, latency=primary.access_latency)
        if primary.has_copy(addr) and (not write or external.writable):
            primary.hits += 1
            if write:
                primary.fill(addr, dirty=True)
                if secondary is not None and secondary.has_copy(addr):
                    secondary.drop(addr)
            return LocalLookup(hit=True, latency=primary.access_latency,
                               source=self._name_of(primary))
        if secondary is None or not secondary.has_copy(addr):
            # Permission exists but no structure actually holds data; treat as
            # a miss so the protocol re-fetches (can happen after an internal
            # drop).  Rare in practice.
            primary.misses += 1
            return LocalLookup(hit=False, latency=primary.access_latency)
        # The block moves between the L1 and the back-side NI cache.
        self.local_transfers += 1
        secondary.hits += 1
        latency = primary.access_latency + self.LOCAL_TRANSFER_CYCLES
        requires_writeback = False
        if write:
            secondary.drop(addr)
            primary.fill(addr, dirty=True)
        else:
            dirty = secondary.is_dirty(addr)
            if dirty and isinstance(secondary, NICache):
                if secondary.owned_state_enabled:
                    # OWNED fast path: forward a clean copy, keep the dirty data.
                    secondary.mark_owned(addr)
                    primary.fill(addr, dirty=False)
                else:
                    # The NI cache must write the block back to the LLC first.
                    requires_writeback = True
                    secondary.writebacks += 1
                    secondary.clean(addr)
                    primary.fill(addr, dirty=False)
            else:
                # Forward a copy; dirtiness (if any) stays with the holder.
                primary.fill(addr, dirty=False)
        return LocalLookup(
            hit=True,
            latency=latency,
            requires_writeback=requires_writeback,
            source=self._name_of(secondary),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _caches(self):
        return [c for c in (self.l1, self.ni_cache) if c is not None]

    def _other_cache(self, cache: CacheArray) -> Optional[CacheArray]:
        if cache is self.l1:
            return self.ni_cache
        return self.l1

    def _lookup_order(self, requester: str):
        if requester == "core":
            if self.l1 is None:
                raise CoherenceError("complex %r has no L1 but received a core access" % (self.entity_id,))
            return self.l1, self.ni_cache
        if requester == "ni":
            if self.ni_cache is None:
                raise CoherenceError("complex %r has no NI cache but received an NI access" % (self.entity_id,))
            return self.ni_cache, self.l1
        raise CoherenceError("unknown requester kind %r" % requester)

    def _cache_for(self, name: str) -> CacheArray:
        if name == "core":
            if self.l1 is None:
                raise CoherenceError("complex %r has no L1" % (self.entity_id,))
            return self.l1
        if name == "ni":
            if self.ni_cache is None:
                raise CoherenceError("complex %r has no NI cache" % (self.entity_id,))
            return self.ni_cache
        raise CoherenceError("unknown physical cache %r" % name)

    @staticmethod
    def _name_of(cache: CacheArray) -> str:
        return "ni" if isinstance(cache, NICache) else "l1"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "TileCacheComplex(%r @ %r)" % (self.entity_id, self.node)
