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

Lookahead hop fusion
--------------------

Advancing the head one event per hop is exact but costs one kernel event per
link crossed.  The fused walk exploits the discrete-event lookahead: while a
packet's arrival at its next router falls *strictly before* the simulator's
queue head (:meth:`~repro.sim.engine.Simulator.next_event_time`, which
:func:`_hop` inlines), no other event can execute in between, so nothing can
acquire, observe or reroute ahead of the packet — the walk may acquire the
next link immediately with ``Resource.acquire(occupancy, earliest=arrival)``
and keep going.  At low load (exactly where the paper's latency figures
live) this collapses a whole k-hop route into a single delivery event; under
contention the condition fails and the walk degrades to the per-hop event
chain, event for event.

Two details keep fused runs byte-identical to unfused ones:

* The walk only fuses from *inside an event callback* (the scheduled
  :func:`_hop` continuation).  ``send`` runs the walk's first step unfused: it
  acquires the first link synchronously and schedules the continuation,
  because code running later in the same callback (e.g. an unroll loop
  injecting sibling packets at the same cycle) may acquire the very
  channels a fused walk would have pre-acquired at later virtual times,
  which would reorder FIFO grants.  Without a fault state ``send`` takes
  that first step itself, inline: it grants the first link at
  ``max(now, free_at)`` and queues the next hop, or the delivery when the
  route has one hop.  With a fault state installed it calls
  ``_hop(..., fuse=False)``, which also applies the fault hooks.  The two
  give the same events, grants and times (``tests/test_noc_fabric.py``
  compares them with an installed state that never activates).
* Ties fall back: when the next arrival lands exactly on the queue-head
  time, the head event was scheduled first and must execute first, so the
  walk schedules a normal hop event, which joins the end of that time's
  list and keeps scheduling order.

``REPRO_HOP_FUSION=0`` force-disables fusion; the equivalence suite runs
every figure both ways and compares bytes.

Fault injection
---------------

A :class:`~repro.faults.injector.FaultState` attached as :attr:`faults`
perturbs routing while a fault window is active: per-hop extra delay before
link acquisition (``link_down`` deferral, ``router_degrade`` multipliers)
and a retransmit penalty folded into final delivery (``packet_loss``).
Every check is gated on ``faults is not None``, so unfaulted runs stay
bit-identical.  Fusion needs no extra guard at fault boundaries: the
injector's activation/deactivation toggles are queue-resident events
(``cancel()`` disarms them in place rather than removing them), so
:meth:`~repro.sim.engine.Simulator.next_event_time` never exceeds the next
toggle and the strict ``arrival < head`` bound stops a fused walk at the
boundary — falling back to per-hop events exactly like the queue-head tie
case.  Since every link *acquisition* time is lookahead-guarded, the
fault state a fused walk observes is identical to the one the per-hop event
chain would observe, hop for hop.

Statistics
----------

The fabric keeps only the counters something reads:

* ``packets_sent``, ``wire_bytes_sent`` and ``fused_hops`` (window counts
  since :meth:`NocFabric.reset_stats`), each link's ``grants`` and
  ``busy_cycles`` and :meth:`NocFabric.max_link_utilization` — the
  bandwidth benchmark, the workload metrics and perfbench's layer counts;
* ``lifetime_packets_sent`` — the obs throughput probe;
* ``packets_delivered`` and ``lifetime_fused_hops`` — the hot-path
  profiler and its tests, and the packet-conservation tests.
  ``packets_delivered`` counts a packet when its delivery event is queued
  (the tail's arrival at the last hop, or the local delivery), not when
  that event runs.  After a drain it equals the packets delivered; with
  no :meth:`NocFabric.reset_stats` in between, ``packets_sent`` is
  ``packets_delivered`` plus the packets still walking;
* :meth:`NocFabric.link_utilization` and :meth:`NocFabric.zero_load_latency`
  — the reference checks of the fusion and NOC tests.
"""

from __future__ import annotations

import os

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

#: The lookahead bound of a walk that must not fuse: no arrival is before it.
_NO_LOOKAHEAD = float("-inf")


def hop_fusion_default() -> bool:
    """Process-wide hop-fusion default: on unless ``REPRO_HOP_FUSION`` opts out.

    Read at fabric construction time so equivalence tests (and campaign
    workers, which inherit the environment) can force-disable fusion for a
    whole run without threading a flag through every builder.
    """
    return os.environ.get("REPRO_HOP_FUSION", "1").strip().lower() not in (
        "0", "off", "false", "no",
    )


class NocFabric:
    """Routes packets over a :class:`Topology` with per-link contention.

    The topology may be shared with other machines; the channels, the bound
    routes and the counters are this fabric's own.
    """

    #: Cycles charged for a message whose source and destination agents share
    #: a router (e.g. a core talking to its own tile's LLC slice).
    LOCAL_DELIVERY_CYCLES = 1

    def __init__(self, sim: Simulator, topology: Topology, noc_config: NocConfig) -> None:
        self.sim = sim
        self.topology = topology
        self.config = noc_config
        self.hop_fusion = hop_fusion_default()
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
        #: Lifetime packet and fused-hop counts live in the perf record only;
        #: the stats window subtracts these snapshots taken by reset_stats.
        self._perf = perf.register()
        self._packets_at_reset = 0
        self._fused_at_reset = 0

    @property
    def packets_sent(self) -> int:
        """Packets injected since the last :meth:`reset_stats`."""
        return self._perf.packets - self._packets_at_reset

    @property
    def fused_hops(self) -> int:
        """Hop events elided by lookahead fusion since the last :meth:`reset_stats`."""
        return self._perf.fused_hops - self._fused_at_reset

    @property
    def lifetime_packets_sent(self) -> int:
        """Like :attr:`packets_sent` but never zeroed by :meth:`reset_stats`
        (performance instrumentation needs a whole-run injection count)."""
        return self._perf.packets

    @property
    def lifetime_fused_hops(self) -> int:
        """Hop events elided by lookahead fusion over the fabric's lifetime."""
        return self._perf.fused_hops

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
                # first channels FIFO.  The rest of the walk runs as a
                # scheduled event, where fusion is safe (see module
                # docstring).
                if self.faults is not None:
                    _hop(self, hops, 0, flits, packet_id, callback, args, False)
                    return packet_id
                # _hop's unfused first step without its call: acquire the
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
        self._fused_at_reset = self._perf.fused_hops
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
         packet_id: int, callback: Callable[..., None], args: tuple,
         fuse: bool = True) -> None:
    """Walk the remaining hops, fusing as far as the lookahead allows.

    Runs as an event callback (the continuation ``send`` schedules) at the
    exact cycle the packet's head reaches router ``index``.  Each iteration
    acquires one link at the packet's virtual arrival time; while the next
    arrival stays strictly before the queue head, nothing can interleave and
    the walk continues in place instead of scheduling a hop event.  An empty
    queue means nothing can interleave at all.  With ``fuse`` False
    (``send``'s synchronous first hop) or :attr:`NocFabric.hop_fusion` off,
    the first lookahead check fails by construction and the walk acquires one
    link and schedules the next hop as its own event.  The last hop queues
    ``callback(*args)`` itself at the tail's arrival and counts the packet
    delivered.
    """
    sim = fabric.sim
    nhops = len(hops)
    # The lookahead bound: fuse while the next arrival < head.  The walk
    # itself only pushes events at/after the current arrival, so the bound
    # stays valid without re-peeking.  The active run(until=...) horizon caps
    # the bound too: the run may stop there and the caller may sample link
    # statistics that the per-hop chain would not yet have accumulated —
    # hops at/after the horizon must stay events.
    #
    # Inlined Simulator.next_event_time(); keep in sync with
    # repro.sim.engine.  While the running time's list still has unstarted
    # events the head is ``now``, and no arrival is before ``now``, so the
    # walk cannot fuse: that test comes first and is all a loaded run pays.
    if fuse and fabric.hop_fusion and not sim._cursor.__length_hint__():
        times = sim._times
        horizon = sim._run_horizon
        head = times[0] if times else horizon
        if head > horizon:
            head = horizon
    else:
        head = _NO_LOOKAHEAD
    now = sim.now
    arrival = now
    fused = 0
    faults = fabric.faults
    while True:
        channel, hop_cycles, link_key = hops[index]
        if faults is not None:
            extra = faults.hop_delay(link_key, arrival, hop_cycles)
            if extra > 0.0:
                arrival = arrival + extra
        # Inlined Resource.acquire(flits, earliest=arrival) — one call per
        # hop is the hottest path in the whole simulator; keep in sync with
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
        if index == nhops:
            # Final hop: the tail arrives flits-1 cycles after the head, and
            # the caller's continuation is queued there as the delivery.
            # Event times are computed as now + delta, never as the absolute
            # arrival: float addition does not guarantee now + (t - now) ==
            # t, and byte-identity with the per-hop chain (which always
            # scheduled relative delays) must hold to the last bit.
            delta = arrival + flits - 1 - now
            if faults is not None:
                loss = faults.loss_delay(packet_id)
                if loss > 0.0:
                    delta += loss
            time = now + delta
            fabric.packets_delivered += 1
            step = callback
            step_args = args
            break
        if arrival < head:
            fused += 1
            continue
        time = now + (arrival - now)
        step = _hop
        step_args = (fabric, hops, index, flits, packet_id, callback, args)
        break
    if fused:
        fabric._perf.fused_hops += fused
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
