"""Abstract on-chip topology interface.

A topology exposes a set of router nodes (hashable identifiers), a routing
function that returns the ordered list of directed :class:`Link` objects a
packet traverses, and the per-hop latency of each link.  The contention model
(:class:`~repro.noc.fabric.NocFabric`) attaches a bandwidth-limited channel
to every link returned here.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.config import MessageClass
from repro.errors import TopologyError


@dataclass(frozen=True)
class Link:
    """A directed link between two router nodes."""

    src: Hashable
    dst: Hashable
    #: Head-of-packet traversal latency of this hop in cycles.
    hop_cycles: int

    @property
    def key(self) -> Tuple[Hashable, Hashable]:
        """Identity of the physical channel (used to index contention state)."""
        return (self.src, self.dst)


class Topology(abc.ABC):
    """Interface implemented by :class:`MeshTopology` and :class:`NocOutTopology`."""

    @abc.abstractmethod
    def nodes(self) -> Iterable[Hashable]:
        """All router nodes in the topology."""

    @abc.abstractmethod
    def route(
        self, src: Hashable, dst: Hashable, msg_class: MessageClass, packet_id: int = 0
    ) -> Sequence[Link]:
        """Ordered links from ``src`` to ``dst`` for a packet of ``msg_class``."""

    # ------------------------------------------------------------------
    # Route caching
    # ------------------------------------------------------------------
    def route_cache_key(
        self, src: Hashable, dst: Hashable, msg_class: MessageClass, packet_id: int = 0
    ) -> Optional[Hashable]:
        """Memoization key for this route, or None when the route is uncacheable.

        Two calls with equal keys MUST produce identical routes; topologies
        whose routing is deterministic in ``(src, dst, class direction)``
        override this so :meth:`route_cached` (and the fabric's channel-bound
        fast path) can reuse computed routes.
        """
        return None

    def route_cached(
        self, src: Hashable, dst: Hashable, msg_class: MessageClass, packet_id: int = 0
    ) -> Tuple[Link, ...]:
        """Like :meth:`route` but memoized per :meth:`route_cache_key`.

        Returns the *same* tuple object for repeated calls with equal keys,
        so callers may use identity-based bookkeeping on the result.
        """
        key = self.route_cache_key(src, dst, msg_class, packet_id)
        if key is None:
            return tuple(self.route(src, dst, msg_class, packet_id))
        cache: Dict[Hashable, Tuple[Link, ...]] = self.__dict__.setdefault("_route_cache", {})
        cached = cache.get(key)
        if cached is None:
            cached = tuple(self.route(src, dst, msg_class, packet_id))
            cache[key] = cached
        return cached

    def clear_route_cache(self) -> None:
        """Drop every memoized route (tests and topology-mutation hooks).

        A :class:`~repro.noc.fabric.NocFabric` built on this topology keeps
        its own channel-bound route cache; invalidate through
        ``NocFabric.clear_route_cache()``, which clears both.
        """
        self.__dict__.pop("_route_cache", None)

    def route_cache_size(self) -> int:
        """Number of memoized routes currently held."""
        return len(self.__dict__.get("_route_cache", ()))

    def link(self, src: Hashable, dst: Hashable, hop_cycles: int) -> Link:
        """The topology's one :class:`Link` from ``src`` to ``dst``.

        Links are immutable, so every route crossing the same hop shares one
        object instead of each cached route allocating its own.
        """
        links: Dict[Tuple[Hashable, Hashable, int], Link] = self.__dict__.setdefault("_links", {})
        key = (src, dst, hop_cycles)
        link = links.get(key)
        if link is None:
            link = links[key] = Link(src, dst, hop_cycles)
        return link

    def hop_count(self, src: Hashable, dst: Hashable) -> int:
        """Number of hops on the default route between two nodes."""
        return len(self.route_cached(src, dst, MessageClass.MEMORY_REQUEST))

    def min_latency_cycles(self, src: Hashable, dst: Hashable) -> int:
        """Zero-load head latency between two nodes."""
        return sum(link.hop_cycles for link in self.route_cached(src, dst, MessageClass.MEMORY_REQUEST))


def build_path_links(topology: Topology, path: List[Hashable], hop_cycles: int) -> List[Link]:
    """Convert a node path [a, b, c] into ``topology``'s links [a->b, b->c]."""
    if len(path) < 1:
        raise TopologyError("a route must contain at least the source node")
    return [topology.link(src, dst, hop_cycles) for src, dst in zip(path, path[1:])]
