"""Packet-granularity NOC contention model.

Every directed link of the topology is backed by a FIFO
:class:`~repro.sim.resource.Resource`; a packet occupies each link it crosses
for its flit count (one flit per cycle on the 16-byte links of Table 2).  The
head of the packet advances one hop per ``hop_cycles`` after it is granted a
link, and the tail arrives ``flits - 1`` cycles after the head at the final
hop, so the zero-load latency is ``hops * hop_cycles + (flits - 1)`` and
contended links introduce queuing exactly where the paper observes it (the MC
and NI edge columns, the mesh bisection, the per-tile unroll paths).

Delivery contract
-----------------

``send(src, dst, payload_bytes, msg_class, callback, *args)`` runs
``callback(*args)`` at delivery and returns the packet id, the packet's send
order on this fabric (O1Turn routing and ``packet_loss`` hash it).  No packet
object exists: the walk's state rides in the queued event's argument tuple,
and the hop continuation ``_hop`` is a module function that takes the fabric
as its first argument.  The last hop queues ``callback, args`` themselves as
the delivery event, with no wrapper between the kernel and the caller, and
so does a delivery between agents that share a router.  A packet sent
without a callback still gets one delivery event, a no-op at its delivery
time, so event counts and the clock a run returns do not depend on whether
anyone listens.  A caller that needs the id at delivery passes it in
``args``.  Continuations are plain ``(callback, *args)`` pairs
all through the model, and the callback is a plain function with its owner
as the first argument — ``send(..., ManycoreSoc._read_at_llc, self, node,
...)`` — never a closure (lint rule REP010) and never a bound method
(REP011).  Either would be one more object alive until delivery, hundreds to
thousands of cycles under load, and a backlog of such long-lived objects is
what CPython's cyclic garbage collector keeps walking in its old
generations.

Route binding
-------------

The topology is shared with every machine of its NOC shape
(:func:`~repro.noc.topology.shared_topology`) and immutable: the fabric reads
routes from it and writes nothing to it.  The first packet along a route
binds it to this fabric's own channels (``_bound_routes``, keyed by the
topology's ``route_cache_key``), one ``(channel, hop_cycles, link_key)`` hop
per link.  Every fresh machine binds each route it uses, so binding is one
pass: the key is computed once and handed to
:meth:`~repro.noc.topology.Topology.route_for_key`, and each new link's
channel is created in the loop that collects the hops.  When the topology
declares that a route depends on ``(src, dst, msg_class)`` alone
(:attr:`~repro.noc.topology.Topology.routes_ignore_packet_id`: every mesh
routing but O1Turn, and NOC-Out), the bound route is also kept under those
three (``_class_routes``), so a packet finds its route with one dict lookup
and no call; message classes that share a direction still bind one route.
A link is looked up by identity, since the topology interns one
:class:`~repro.noc.topology.Link` per hop, and its channel lives in
``_channels``, a dict from link key to
:class:`~repro.sim.resource.Resource`.  The hop walk reads only the bound
hops.

The hop walk
------------

A packet's head advances one event per hop.  :func:`_hop` runs at the cycle
the head reaches a router, acquires the next link at ``max(now, free_at)``
and queues the following hop at the head's arrival there, or, on the last
link, the delivery at the tail's arrival.  ``send`` acquires the first link
synchronously, in injection order: several sends in one callback claim
their first channels FIFO.  Without a fault state ``send`` takes that first
hop itself, inline; with a fault state installed it calls ``_hop``, which
also applies the fault hooks.  The two give the same events, grants and
times (``tests/test_noc_fabric.py`` compares them with an installed state
that never activates).

Fault injection
---------------

A :class:`~repro.faults.injector.FaultState` attached as :attr:`faults`
perturbs routing while a fault window is active: per-hop extra delay before
link acquisition (``link_down`` deferral, ``router_degrade`` multipliers)
and a retransmit penalty folded into final delivery (``packet_loss``).
Every check is gated on ``faults is not None``, so unfaulted runs stay
bit-identical.  A delayed hop is granted its link at the delayed arrival,
ahead of the clock, and the channel records the idle gap before it
(:meth:`~repro.sim.resource.Resource.note_gap`).

Statistics
----------

The fabric keeps only the counters something reads:

* ``packets_sent`` and ``wire_bytes_sent`` (window counts since
  :meth:`NocFabric.reset_stats`), each link's ``grants`` and
  ``busy_cycles`` and :meth:`NocFabric.max_link_utilization` — the
  bandwidth benchmark, the workload metrics and perfbench's layer counts;
* ``lifetime_packets_sent`` — the obs throughput probe;
* ``packets_delivered`` — the hot-path profiler and its tests, and the
  packet-conservation tests.
  ``packets_delivered`` counts a packet when its delivery event is queued
  (the tail's arrival at the last hop, or the local delivery), not when
  that event runs.  After a drain it equals the packets delivered; with
  no :meth:`NocFabric.reset_stats` in between, ``packets_sent`` is
  ``packets_delivered`` plus the packets still walking;
* :meth:`NocFabric.link_utilization` and :meth:`NocFabric.zero_load_latency`
  — the reference checks of the NOC tests.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple

from repro.config import MessageClass, NocConfig
from repro.noc.packet import flit_count
from repro.noc.topology import Link, Topology
from repro.sim import perf
from repro.sim.engine import Simulator
from repro.sim.resource import Resource

#: One channel-bound hop: (channel, hop_cycles, link_key).  The link key
#: rides along so fault models can target specific routers without any
#: topology lookups on the hot path.
BoundHop = Tuple[Resource, int, Tuple[Hashable, Hashable]]


class NocFabric:
    """Routes packets over a :class:`Topology` with per-link contention.

    The topology may be shared with other machines; the channels, the bound
    routes and the counters are this fabric's own.
    """

    #: Cycles charged for a message whose source and destination agents share
    #: a router (e.g. a core talking to its own tile's LLC slice).
    LOCAL_DELIVERY_CYCLES = 1

    #: No hop is ever fused; ``perfbench/points.py`` reads this counter.
    fused_hops = 0

    def __init__(self, sim: Simulator, topology: Topology, noc_config: NocConfig) -> None:
        self.sim = sim
        self.topology = topology
        self.config = noc_config
        self.link_bytes = noc_config.link_bytes
        self._channels: Dict[Tuple[Hashable, Hashable], Resource] = {}
        #: Fault state installed by a FaultInjector (None on healthy runs).
        self.faults = None
        # Channel-bound route cache: route_cache_key -> tuple of
        # (channel, hop_cycles, link_key) hops, so the per-hop fast path does
        # no topology or channel-dict lookups.
        self._bound_routes: Dict[Hashable, Tuple[BoundHop, ...]] = {}
        # (src, dst, msg_class) -> the same bound route, filled only when the
        # topology's routes ignore the packet id: a packet's one lookup.
        self._class_routes: Dict[Tuple[Hashable, Hashable, MessageClass],
                                 Tuple[BoundHop, ...]] = {}
        # Link -> its bound hop, shared by every route that crosses it.
        # Links hash by identity (the topology interns them).
        self._bound_hops: Dict[Link, BoundHop] = {}
        # payload_bytes -> (flits, wire_bytes); the handful of distinct
        # payload sizes an experiment sends makes this a near-perfect cache.
        self._flit_sizes: Dict[int, Tuple[int, int]] = {}
        # Statistics
        self.packets_delivered = 0
        self.wire_bytes_sent = 0
        #: The lifetime packet count lives in the perf record only; the stats
        #: window subtracts the snapshot taken by reset_stats.
        self._perf = perf.register()
        self._packets_at_reset = 0

    @property
    def packets_sent(self) -> int:
        """Packets injected since the last :meth:`reset_stats`."""
        return self._perf.packets - self._packets_at_reset

    @property
    def lifetime_packets_sent(self) -> int:
        """Like :attr:`packets_sent` but never zeroed by :meth:`reset_stats`
        (performance instrumentation needs a whole-run injection count)."""
        return self._perf.packets

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def send(
        self,
        src: Hashable,
        dst: Hashable,
        payload_bytes: int,
        msg_class: MessageClass,
        callback: Optional[Callable[..., None]] = None,
        *args,
    ) -> int:
        """Inject a packet; ``callback(*args)`` fires at delivery time.

        Returns the packet id: the packet's send order on this fabric.
        """
        if callback is None:
            callback = _no_callback
        counters = self._perf
        packet_id = counters.packets
        counters.packets = packet_id + 1
        size = self._flit_sizes.get(payload_bytes)
        if size is None:
            flits = flit_count(payload_bytes, self.link_bytes)
            size = self._flit_sizes[payload_bytes] = (flits, flits * self.link_bytes)
        flits, wire = size
        self.wire_bytes_sent += wire
        if src != dst:
            hops = self._class_routes.get((src, dst, msg_class))
            if hops is None:
                hops = self._bound_route(src, dst, msg_class, packet_id)
            if hops:
                # The first link is acquired synchronously, in injection
                # order — several sends in one callback must claim their
                # first channels FIFO.
                if self.faults is not None:
                    _hop(self, hops, 0, flits, packet_id, callback, args)
                    return packet_id
                # _hop without its call and its fault hooks: acquire the
                # first link at now and queue the next hop, or the delivery.
                # Keep in sync with _hop (and so Resource.acquire and
                # Simulator.schedule).
                sim = self.sim
                now = sim.now
                channel, hop_cycles, _ = hops[0]
                start = channel._free_at
                if start < now:
                    start = now
                channel._free_at = start + flits
                channel.busy_cycles += flits
                channel.grants += 1
                arrival = start + hop_cycles
                if len(hops) == 1:
                    time = now + (arrival + flits - 1 - now)
                    self.packets_delivered += 1
                    step = callback
                    step_args = args
                else:
                    time = now + (arrival - now)
                    step = _hop
                    step_args = (self, hops, 1, flits, packet_id, callback, args)
                lists = sim._lists
                entries = lists.get(time)
                if entries is None:
                    lists[time] = [step, step_args]
                    heappush(sim._times, time)
                else:
                    entries.append(step)
                    entries.append(step_args)
                counters = sim._perf
                counters.fast_events += 1
                pending = sim._pending = sim._pending + 1
                if pending > counters.peak_pending:
                    counters.peak_pending = pending
                return packet_id
        self.packets_delivered += 1
        self.sim.schedule(self.LOCAL_DELIVERY_CYCLES, callback, *args)
        return packet_id

    def zero_load_latency(self, src: Hashable, dst: Hashable, payload_bytes: int,
                          msg_class: MessageClass = MessageClass.MEMORY_REQUEST) -> float:
        """Latency of a packet on an otherwise idle NOC (no queuing)."""
        if src == dst:
            return float(self.LOCAL_DELIVERY_CYCLES)
        links = self.topology.route_cached(src, dst, msg_class)
        if not links:
            return float(self.LOCAL_DELIVERY_CYCLES)
        head = sum(link.hop_cycles for link in links)
        return head + (flit_count(payload_bytes, self.link_bytes) - 1)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def link_utilization(self) -> Dict[Tuple[Hashable, Hashable], float]:
        """Utilization of every link that has carried at least one packet."""
        return {key: channel.utilization() for key, channel in self._channels.items()}

    def max_link_utilization(self) -> float:
        """Utilization of the most loaded link (the NOC bottleneck)."""
        if not self._channels:
            return 0.0
        return max(channel.utilization() for channel in self._channels.values())

    def clear_route_cache(self) -> None:
        """Drop the channel-bound routes and the topology's memoized routes.

        This only frees memory: topologies are immutable, so every dropped
        route binds again to the same channels.  The topology may be shared
        with other machines of its shape; they keep their own bound routes
        and re-derive nothing they hold.
        """
        self._bound_routes.clear()
        self._class_routes.clear()
        self.topology.clear_route_cache()

    def reset_stats(self) -> None:
        """Zero all counters (used at the end of the warm-up phase)."""
        self._packets_at_reset = self._perf.packets
        self.packets_delivered = 0
        self.wire_bytes_sent = 0
        for channel in self._channels.values():
            channel.reset_stats()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _bind_links(self, links: Sequence[Link]) -> Tuple[BoundHop, ...]:
        """Resolve each link of a route to its channel, binding each link once.

        A link's bound hop is ``(channel, hop_cycles, link_key)``, with the
        link key ``(link.src, link.dst)``.
        """
        bound = self._bound_hops
        channels = self._channels
        hops = []
        for link in links:
            hop = bound.get(link)
            if hop is None:
                key = (link.src, link.dst)
                channel = channels.get(key)
                if channel is None:
                    # The shared link is the channel's name: str() formats
                    # it only when a repr or an error message prints it.
                    channel = channels[key] = Resource(self.sim, name=link)
                hop = bound[link] = (channel, link.hop_cycles, key)
            hops.append(hop)
        return tuple(hops)

    def _bound_route(
        self, src: Hashable, dst: Hashable, msg_class: MessageClass, packet_id: int
    ) -> Tuple[BoundHop, ...]:
        """The channel-bound route for a packet, cached when the topology allows.

        Uncacheable routes (topologies without a :meth:`Topology.route_cache_key`)
        fall back to binding per packet, which matches the pre-cache behaviour.
        A cacheable route of a topology whose routes ignore the packet id is
        also kept under ``(src, dst, msg_class)``, where :meth:`send` looks
        first.
        """
        topology = self.topology
        key = topology.route_cache_key(src, dst, msg_class, packet_id)
        if key is None:
            return self._bind_links(topology.route(src, dst, msg_class, packet_id))
        bound = self._bound_routes.get(key)
        if bound is None:
            bound = self._bound_routes[key] = self._bind_links(
                topology.route_for_key(key, src, dst, msg_class, packet_id))
        if topology.routes_ignore_packet_id:
            self._class_routes[(src, dst, msg_class)] = bound
        return bound


# ----------------------------------------------------------------------
# Event continuations
# ----------------------------------------------------------------------
# Plain functions, not methods: the queued event carries the fabric among the
# arguments, so no bound method is allocated per hop.
def _hop(fabric: NocFabric, hops: Sequence[BoundHop], index: int, flits: int,
         packet_id: int, callback: Callable[..., None], args: tuple) -> None:
    """Acquire link ``index`` and queue the next hop, or the delivery.

    Runs as an event callback at the exact cycle the packet's head reaches
    router ``index`` (and inside ``send`` for the first link when a fault
    state is installed).  The link is granted at ``max(now, free_at)``, or
    later by the fault state's hop delay; the head reaches the next router
    ``hop_cycles`` after the grant.  The last hop queues ``callback(*args)``
    itself at the tail's arrival and counts the packet delivered.
    """
    sim = fabric.sim
    now = sim.now
    arrival = now
    channel, hop_cycles, link_key = hops[index]
    faults = fabric.faults
    if faults is not None:
        extra = faults.hop_delay(link_key, now, hop_cycles)
        if extra > 0.0:
            arrival = now + extra
    # Inlined Resource.acquire(flits, earliest=arrival) — one call per hop is
    # the hottest path in the whole simulator; keep in sync with
    # repro.sim.resource.Resource.acquire.
    start = channel._free_at
    if arrival > start:
        if arrival > now:
            channel.note_gap(arrival)
        start = arrival
    channel._free_at = start + flits
    channel.busy_cycles += flits
    channel.grants += 1
    arrival = start + hop_cycles
    index += 1
    # Event times are computed as now + delta, as Simulator.schedule does
    # with its delay: float addition does not guarantee now + (t - now) == t.
    if index == len(hops):
        # Final hop: the tail arrives flits-1 cycles after the head, and the
        # caller's continuation is queued there as the delivery.
        delta = arrival + flits - 1 - now
        if faults is not None:
            loss = faults.loss_delay(packet_id)
            if loss > 0.0:
                delta += loss
        time = now + delta
        fabric.packets_delivered += 1
        step = callback
        step_args = args
    else:
        time = now + (arrival - now)
        step = _hop
        step_args = (fabric, hops, index, flits, packet_id, callback, args)
    # Inlined Simulator.schedule; keep in sync with repro.sim.engine.
    lists = sim._lists
    entries = lists.get(time)
    if entries is None:
        lists[time] = [step, step_args]
        heappush(sim._times, time)
    else:
        entries.append(step)
        entries.append(step_args)
    counters = sim._perf
    counters.fast_events += 1
    pending = sim._pending = sim._pending + 1
    if pending > counters.peak_pending:
        counters.peak_pending = pending


def _no_callback(*args) -> None:
    """The delivery event of a packet sent without a callback: it does nothing."""
