"""Packet-granularity NOC contention model.

Every directed link of the topology is backed by a FIFO
:class:`~repro.sim.resource.Resource`; a packet occupies each link it crosses
for its flit count (one flit per cycle on the 16-byte links of Table 2).  The
head of the packet advances one hop per ``hop_cycles`` after it is granted a
link, and the tail arrives ``flits - 1`` cycles after the head at the final
hop, so the zero-load latency is ``hops * hop_cycles + (flits - 1)`` and
contended links introduce queuing exactly where the paper observes it (the MC
and NI edge columns, the mesh bisection, the per-tile unroll paths).

Lookahead hop fusion
--------------------

Advancing the head one event per hop is exact but costs one kernel event per
link crossed.  The fused walk exploits the discrete-event lookahead: while a
packet's arrival at its next router falls *strictly before* the simulator's
queue head (:meth:`~repro.sim.engine.Simulator.next_event_time`), no other
event can execute in between, so nothing can acquire, observe or reroute
ahead of the packet — the walk may acquire the next link immediately with
``Resource.acquire(occupancy, earliest=arrival)`` and keep going.  At low
load (exactly where the paper's latency figures live) this collapses a whole
k-hop route into a single delivery event; under contention the condition
fails and the walk degrades to the per-hop event chain, event for event.

Two details keep fused runs byte-identical to unfused ones:

* The walk only fuses from *inside an event callback* (the scheduled
  ``_hop`` continuation).  ``send`` runs the walk's first step unfused: it
  acquires the first link synchronously and schedules the continuation,
  because code running later in the same callback (e.g. an unroll loop
  injecting sibling packets at the same cycle) may acquire the very
  channels a fused walk would have pre-acquired at later virtual times,
  which would reorder FIFO grants.
* Ties fall back: when the next arrival lands exactly on the queue-head
  time, the head event was scheduled first and must execute first, so the
  walk schedules a normal hop event and preserves ``seq`` ordering.

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
  profiler, the engine microbenchmarks and the packet-conservation tests;
* :meth:`NocFabric.link_utilization` and :meth:`NocFabric.zero_load_latency`
  — the reference checks of the fusion and NOC tests.
"""

from __future__ import annotations

import os

from heapq import heappush
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple

from repro.config import MessageClass, NocConfig
from repro.noc.packet import Packet, flit_count
from repro.noc.topology import Link, Topology
from repro.sim import perf
from repro.sim.engine import Simulator
from repro.sim.resource import Resource

DeliveryCallback = Callable[[Packet], None]

#: One channel-bound hop: (channel, hop_cycles, link_key).  The link key
#: rides along so fault models can target specific routers without any
#: topology lookups on the hot path.
BoundHop = Tuple[Resource, int, Tuple[Hashable, Hashable]]


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
    """Routes packets over a :class:`Topology` with per-link contention."""

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
        callback: Optional[DeliveryCallback] = None,
    ) -> Packet:
        """Inject a packet; ``callback(packet)`` fires at delivery time."""
        counters = self._perf
        packet = Packet(src, dst, payload_bytes, msg_class, counters.packets)
        counters.packets += 1
        size = self._flit_sizes.get(payload_bytes)
        if size is None:
            flits = flit_count(payload_bytes, self.link_bytes)
            size = self._flit_sizes[payload_bytes] = (flits, flits * self.link_bytes)
        flits, wire = size
        self.wire_bytes_sent += wire
        if src != dst:
            hops = self._bound_route(src, dst, msg_class, packet.packet_id)
            if hops:
                # The first link is acquired synchronously, in injection
                # order — several sends in one callback must claim their
                # first channels FIFO.  The rest of the walk runs as a
                # scheduled event, where fusion is safe (see module
                # docstring).
                self._hop(packet, hops, 0, flits, callback, False)
                return packet
        self.sim.schedule(self.LOCAL_DELIVERY_CYCLES, self._deliver, packet, callback)
        return packet

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

        Anything that mutates routing-relevant topology state must call this
        (not just ``topology.clear_route_cache()``): the fabric never consults
        the topology again for a key it has already bound.
        """
        self._bound_routes.clear()
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
    def _channel(self, link: Link) -> Resource:
        channel = self._channels.get(link.key)
        if channel is None:
            channel = Resource(self.sim, name="link %r->%r" % (link.src, link.dst))
            self._channels[link.key] = channel
        return channel

    def _bind_links(self, links: Sequence[Link]) -> Tuple[BoundHop, ...]:
        """Resolve each link of a route to its channel once."""
        return tuple((self._channel(link), link.hop_cycles, link.key) for link in links)

    def _bound_route(
        self, src: Hashable, dst: Hashable, msg_class: MessageClass, packet_id: int
    ) -> Tuple[BoundHop, ...]:
        """The channel-bound route for a packet, cached when the topology allows.

        Uncacheable routes (topologies without a :meth:`Topology.route_cache_key`)
        fall back to binding per packet, which matches the pre-cache behaviour.
        """
        key = self.topology.route_cache_key(src, dst, msg_class, packet_id)
        if key is None:
            return self._bind_links(self.topology.route(src, dst, msg_class, packet_id))
        bound = self._bound_routes.get(key)
        if bound is None:
            bound = self._bind_links(self.topology.route_cached(src, dst, msg_class, packet_id))
            self._bound_routes[key] = bound
        return bound

    def _hop(self, packet: Packet, hops: Sequence[BoundHop], index: int,
             flits: int, callback: Optional[DeliveryCallback],
             fuse: bool = True) -> None:
        """Walk the remaining hops, fusing as far as the lookahead allows.

        Runs as an event callback (the continuation ``send`` schedules) at
        the exact cycle the packet's head reaches router ``index``.  Each
        iteration acquires one link at the packet's virtual arrival time;
        while the next arrival stays strictly before the queue head, nothing
        can interleave and the walk continues in place instead of scheduling
        a hop event.  An empty queue means nothing can interleave at all.
        With ``fuse`` False (``send``'s synchronous first hop) or
        :attr:`hop_fusion` off, the first lookahead check fails by
        construction and the walk acquires one link and schedules the next
        hop as its own event.
        """
        sim = self.sim
        nhops = len(hops)
        # The lookahead bound: fuse while the next arrival < head.  The walk
        # itself only pushes events at/after the current arrival, so the
        # bound stays valid without re-peeking.  The active run(until=...)
        # horizon caps the bound too: the run may stop there and the caller
        # may sample link statistics that the per-hop chain would not yet
        # have accumulated — hops at/after the horizon must stay events.
        if fuse and self.hop_fusion:
            head = sim.next_event_time()
            horizon = sim._run_horizon
            if head is None or head > horizon:
                head = horizon
        else:
            head = float("-inf")
        now = sim._now
        arrival = now
        fused = 0
        faults = self.faults
        while True:
            channel, hop_cycles, link_key = hops[index]
            if faults is not None:
                extra = faults.hop_delay(link_key, arrival, hop_cycles)
                if extra > 0.0:
                    arrival = arrival + extra
            # Inlined Resource.acquire(flits, earliest=arrival) — one call per
            # hop is the hottest path in the whole simulator; keep in sync
            # with repro.sim.resource.Resource.acquire.
            start = channel._free_at
            if arrival > start:
                start = arrival
            channel._free_at = start + flits
            channel.busy_cycles += flits
            channel.grants += 1
            open_grants = channel._open_grants
            while open_grants and open_grants[0][1] <= now:
                open_grants.popleft()
            open_grants.append((start, start + flits))
            arrival = start + hop_cycles
            index += 1
            if index == nhops:
                # Final hop: the tail arrives flits-1 cycles after the head,
                # and the completion event delivers directly.  Event times
                # are computed as now + delta, never as the absolute
                # arrival: float addition does not guarantee now + (t - now)
                # == t, and byte-identity with the per-hop chain (which
                # always scheduled relative delays) must hold to the last bit.
                delta = arrival + flits - 1 - now
                if faults is not None:
                    loss = faults.loss_delay(packet.packet_id)
                    if loss > 0.0:
                        delta += loss
                entry = (now + delta, next(sim._seq),
                         self._deliver, (packet, callback))
                break
            if arrival < head:
                fused += 1
                continue
            entry = (now + (arrival - now), next(sim._seq), self._hop,
                     (packet, hops, index, flits, callback))
            break
        if fused:
            self._perf.fused_hops += fused
        # Inlined Simulator.schedule.
        queue = sim._queue
        heappush(queue, entry)
        counters = sim._perf
        counters.fast_events += 1
        if len(queue) > counters.peak_pending:
            counters.peak_pending = len(queue)

    def _deliver(self, packet: Packet, callback: Optional[DeliveryCallback]) -> None:
        self.packets_delivered += 1
        if callback is not None:
            callback(packet)
