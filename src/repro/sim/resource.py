"""Busy-until resources for modelling serialization and queuing.

The NOC links, router ports, memory controllers and NI pipelines are all
modelled as :class:`Resource` objects: a resource can serve one request at a
time, each request occupies it for a caller-specified number of cycles, and
requests queue FIFO.  This captures the first-order effects the paper cares
about (link serialization, unroll-rate limits, MC-column congestion) without
simulating individual flits cycle by cycle.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class Resource:
    """A FIFO-serialized resource with an occupancy per grant.

    :meth:`acquire` reserves the resource for ``occupancy`` cycles starting at
    the earliest time it is free, and returns the cycle at which the *grant
    begins*.  The caller is expected to schedule its own completion event at
    ``grant + occupancy`` (or use :meth:`acquire_then`).

    ``name`` is only printed, in the repr and in error messages, so it may be
    any object whose ``str()`` names the resource: a NOC channel takes its
    shared :class:`~repro.noc.topology.Link`, which formats its endpoints
    only when printed.
    """

    __slots__ = ("sim", "name", "_free_at", "busy_cycles", "grants", "_stats_since",
                 "_gaps")

    def __init__(self, sim: Simulator, name: object = "resource") -> None:
        self.sim = sim
        self.name = name
        self._free_at: float = 0.0
        #: Total cycles this resource has been occupied (for utilization stats).
        self.busy_cycles: float = 0.0
        #: Number of grants issued.
        self.grants: int = 0
        #: Simulation time at which the utilization counters were last reset.
        self._stats_since: float = 0.0
        #: Idle gaps between FIFO grants that lie ahead of the clock, as
        #: (start, end) pairs in time order, or None until the first.  Only
        #: a grant requested at a future ``earliest`` opens one (fused NOC
        #: hops, fault hop delays); :meth:`in_flight_busy_cycles` subtracts
        #: them.
        self._gaps: Optional[List[Tuple[float, float]]] = None

    def acquire(self, occupancy: float, earliest: Optional[float] = None) -> float:
        """Reserve the resource for ``occupancy`` cycles; return the grant time."""
        if occupancy < 0:
            raise SimulationError("occupancy cannot be negative (%s)" % self.name)
        now = self.sim.now
        start = now if earliest is None else earliest
        if start < self._free_at:
            start = self._free_at
        elif start > now and start > self._free_at:
            self.note_gap(start)
        end = start + occupancy
        self._free_at = end
        self.busy_cycles += occupancy
        self.grants += 1
        return start

    def note_gap(self, start: float) -> None:
        """Record the idle time before a grant that begins at ``start`` in the future.

        The caller has established ``start > free_at`` and ``start > now``.
        Only the part of a gap after the clock can ever fall inside a later
        :meth:`in_flight_busy_cycles` window, so gaps behind it are dropped.
        """
        now = self.sim.now
        gap = (self._free_at if self._free_at > now else now, start)
        gaps = self._gaps
        if gaps is None:
            self._gaps = [gap]
            return
        while gaps and gaps[0][1] <= now:
            del gaps[0]
        gaps.append(gap)

    def acquire_then(
        self, occupancy: float, callback: Callable[..., None], *args, extra_delay: float = 0.0
    ) -> float:
        """Reserve the resource and schedule ``callback`` when the grant completes.

        Returns the completion time (grant + occupancy + extra_delay).
        """
        start = self.acquire(occupancy)
        finish = start + occupancy + extra_delay
        self.sim.schedule(finish - self.sim.now, callback, *args)
        return finish

    @property
    def free_at(self) -> float:
        """Earliest cycle at which the resource is idle."""
        return self._free_at

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time the resource has been busy since the last stats reset."""
        horizon = (self.sim.now - self._stats_since) if elapsed is None else elapsed
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / horizon)

    def in_flight_busy_cycles(self) -> float:
        """Busy cycles of unfinished grants that fall at or after now.

        Grants are accounted for in full at :meth:`acquire` time, so a grant
        that straddles a measurement boundary has already banked cycles that
        belong to the *next* measurement window.  This returns exactly those
        cycles: the overlap of every grant with ``[now, inf)``.  Grants are
        FIFO, so that is ``free_at - now`` less the recorded idle gaps after
        now.
        """
        now = self.sim.now
        busy = self._free_at - now
        if busy <= 0:
            return 0.0
        for start, end in self._gaps or ():
            if end > now:
                busy -= end - max(start, now)
        return busy

    def reset_stats(self) -> None:
        """Reset the utilization counters (used at the end of warm-up).

        Grants still in flight are not dropped: the portion of their occupancy
        that falls after the reset is credited to the new measurement window,
        so ``utilization()`` right after a warm-up reset reflects the work the
        resource is actually doing instead of undercounting it.
        """
        self.busy_cycles = self.in_flight_busy_cycles()
        self.grants = 0
        self._stats_since = self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Resource(%s, free_at=%.1f)" % (self.name, self._free_at)


class Channel(Resource):
    """A resource with a fixed bandwidth, occupied proportionally to bytes sent."""

    __slots__ = ("bytes_per_cycle",)

    def __init__(self, sim: Simulator, bytes_per_cycle: float, name: str = "channel") -> None:
        super().__init__(sim, name)
        if bytes_per_cycle <= 0:
            raise SimulationError("channel bandwidth must be positive (%s)" % name)
        self.bytes_per_cycle = bytes_per_cycle

    def send(self, nbytes: int, earliest: Optional[float] = None) -> float:
        """Reserve the channel for a message of ``nbytes``; return the grant time."""
        if nbytes < 0:
            raise SimulationError("cannot send a negative number of bytes on %s" % self.name)
        return self.acquire(nbytes / self.bytes_per_cycle, earliest=earliest)

    def serialization_cycles(self, nbytes: int) -> float:
        """Cycles needed to serialize ``nbytes`` onto this channel."""
        return nbytes / self.bytes_per_cycle


class Pipeline(Resource):
    """A pipelined unit: new work can be accepted every ``initiation_interval``
    cycles, while each item takes ``depth`` cycles of latency.

    This models the NI pipelines (RGP/RCP/RRPP), which unroll one cache-block
    request per cycle but have a multi-cycle processing latency.
    """

    __slots__ = ("initiation_interval", "depth")

    def __init__(
        self,
        sim: Simulator,
        initiation_interval: float,
        depth: float,
        name: str = "pipeline",
    ) -> None:
        super().__init__(sim, name)
        if initiation_interval <= 0:
            raise SimulationError("initiation interval must be positive (%s)" % name)
        if depth < 0:
            raise SimulationError("pipeline depth cannot be negative (%s)" % name)
        self.initiation_interval = initiation_interval
        self.depth = depth

    def issue(self, earliest: Optional[float] = None) -> float:
        """Issue one item into the pipeline; return the time its *result* is ready."""
        start = self.acquire(self.initiation_interval, earliest=earliest)
        return start + self.depth

    def issue_then(self, callback: Callable[..., None], *args) -> float:
        """Issue one item and schedule ``callback`` when it completes."""
        # Inlined Resource.acquire(self.initiation_interval) — one call per
        # NI block; keep in sync with Resource.acquire.  With no ``earliest``
        # the grant opens no gap, and the interval is positive by
        # construction.
        sim = self.sim
        now = sim.now
        start = self._free_at
        if start <= now:
            start = now
        occupancy = self.initiation_interval
        self._free_at = start + occupancy
        self.busy_cycles += occupancy
        self.grants += 1
        finish = start + self.depth
        # Inlined Simulator.schedule(finish - now, callback, *args); keep in
        # sync with repro.sim.engine.  The delay is never negative: the grant
        # is not before now and the depth is not negative.
        time = now + (finish - now)
        lists = sim._lists
        entries = lists.get(time)
        if entries is None:
            lists[time] = [callback, args]
            heappush(sim._times, time)
        else:
            entries.append(callback)
            entries.append(args)
        counters = sim._perf
        counters.fast_events += 1
        pending = sim._pending = sim._pending + 1
        if pending > counters.peak_pending:
            counters.peak_pending = pending
        return finish
