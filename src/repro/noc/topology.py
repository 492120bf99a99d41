"""Abstract on-chip topology interface.

A topology exposes a set of router nodes (hashable identifiers), a routing
function that returns the ordered list of directed :class:`Link` objects a
packet traverses, and the per-hop latency of each link.  The contention model
(:class:`~repro.noc.fabric.NocFabric`) attaches a bandwidth-limited channel
to every link returned here.

Topologies are immutable and shared
-----------------------------------

Nothing simulated lives on a topology: it holds its shape, its
:class:`~repro.config.NocConfig` and two memo tables, the routes it has
derived (:meth:`Topology.route_cached`) and its interned links
(:meth:`Topology.link`).  Neither ever changes an answer (clearing the route
memo only frees memory), so one topology object serves every machine of its
shape: the chip placements and the NUMA baseline take theirs from
:func:`shared_topology`, and a route is derived once per process, not once
per machine.  Per-machine state (the channels, the simulator, the fabric)
hangs off the :class:`~repro.noc.fabric.NocFabric`, never off the topology.
Code that wants different routing builds a topology with a different
``NocConfig``; it never edits one in place.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Type, TypeVar

from repro.config import MessageClass, NocConfig
from repro.errors import TopologyError

#: NOC shapes whose topologies (and their derived routes) a process keeps.
SHARED_SHAPES = 8


@dataclass(frozen=True, eq=False)
class Link:
    """A directed link between two router nodes.

    A topology hands out one interned object per hop (:meth:`Topology.link`),
    so links compare and hash by identity: a fabric binds a link to its
    channel with a pointer hash, not by hashing the endpoint coordinates.
    """

    src: Hashable
    dst: Hashable
    #: Head-of-packet traversal latency of this hop in cycles.
    hop_cycles: int

    @property
    def key(self) -> Tuple[Hashable, Hashable]:
        """Identity of the physical channel (used to index contention state)."""
        return (self.src, self.dst)

    def __str__(self) -> str:
        """The name of the link's channel, formatted only when printed."""
        return "link %r->%r" % (self.src, self.dst)


class Topology(abc.ABC):
    """Interface implemented by :class:`MeshTopology` and :class:`NocOutTopology`.

    Immutable once built (see the module docstring): one object is shared
    by every machine of its shape, so nothing may write routing state or
    per-machine state onto it.
    """

    #: True when a route depends on ``(src, dst, msg_class)`` only, never on
    #: the packet id.  The fabric then keys its bound routes by those three
    #: and finds a packet's route with one dict lookup.  A subclass may set
    #: it only where :meth:`route_cache_key` ignores the packet id too.
    routes_ignore_packet_id = False

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
        """Drop every memoized route to free its memory.

        Routes never go stale (topologies are immutable), so this changes no
        answer: a dropped route is derived again, link for link the same
        objects, the next time it is asked for.
        """
        self.__dict__.pop("_route_cache", None)

    def route_cache_size(self) -> int:
        """Number of memoized routes currently held."""
        return len(self.__dict__.get("_route_cache", ()))

    def link(self, src: Hashable, dst: Hashable, hop_cycles: int) -> Link:
        """The topology's one :class:`Link` from ``src`` to ``dst``.

        Links are immutable, so every route crossing the same hop shares one
        object instead of each cached route allocating its own, and that
        object is the link's identity.
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


TopologyT = TypeVar("TopologyT", bound=Topology)


@functools.lru_cache(maxsize=SHARED_SHAPES)
def shared_topology(cls: Type[TopologyT], noc_config: NocConfig, *shape: int) -> TopologyT:
    """The process's one ``cls(*shape, noc_config=noc_config)``.

    Keyed on everything a route depends on: the topology class, its shape
    (the mesh side, or NOC-Out columns and cores per column) and the whole
    ``noc_config``.  Equal keys return the same object, so its memoized
    routes and interned links outlive each machine built on it; the
    :data:`SHARED_SHAPES` most recently used shapes are kept.  Building a
    topology derives no route: routes stay lazy, derived on first use.
    """
    return cls(*shape, noc_config=noc_config)


def build_path_links(topology: Topology, path: List[Hashable], hop_cycles: int) -> List[Link]:
    """Convert a node path [a, b, c] into ``topology``'s links [a->b, b->c]."""
    if len(path) < 1:
        raise TopologyError("a route must contain at least the source node")
    return [topology.link(src, dst, hop_cycles) for src, dst in zip(path, path[1:])]
