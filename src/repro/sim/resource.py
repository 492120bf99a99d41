"""Busy-until resources for modelling serialization and queuing.

The NOC links, router ports, memory controllers and NI pipelines are all
modelled as :class:`Resource` objects: a resource can serve one request at a
time, each request occupies it for a caller-specified number of cycles, and
requests queue FIFO.  This captures the first-order effects the paper cares
about (link serialization, unroll-rate limits, MC-column congestion) without
simulating individual flits cycle by cycle.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class Resource:
    """A FIFO-serialized resource with an occupancy per grant.

    :meth:`acquire` reserves the resource for ``occupancy`` cycles starting at
    the earliest time it is free, and returns the cycle at which the *grant
    begins*.  The caller is expected to schedule its own completion event at
    ``grant + occupancy`` (or use :meth:`acquire_then`).
    """

    __slots__ = ("sim", "name", "_free_at", "busy_cycles", "grants", "_stats_since",
                 "_open_grants")

    def __init__(self, sim: Simulator, name: str = "resource") -> None:
        self.sim = sim
        self.name = name
        self._free_at: float = 0.0
        #: Total cycles this resource has been occupied (for utilization stats).
        self.busy_cycles: float = 0.0
        #: Number of grants issued.
        self.grants: int = 0
        #: Simulation time at which the utilization counters were last reset.
        self._stats_since: float = 0.0
        #: Busy intervals that have not finished yet, as (start, end) pairs in
        #: grant order.  Pruned lazily; :meth:`reset_stats` uses them to carry
        #: the post-reset portion of in-flight grants over a warm-up reset.
        self._open_grants: Deque[Tuple[float, float]] = deque()

    def acquire(self, occupancy: float, earliest: Optional[float] = None) -> float:
        """Reserve the resource for ``occupancy`` cycles; return the grant time."""
        if occupancy < 0:
            raise SimulationError("occupancy cannot be negative (%s)" % self.name)
        # Hot path (one call per NOC hop): read the simulator clock directly
        # rather than through the ``now`` property descriptor.
        now = self.sim._now
        start = now if earliest is None else earliest
        if start < self._free_at:
            start = self._free_at
        end = start + occupancy
        self._free_at = end
        self.busy_cycles += occupancy
        self.grants += 1
        if occupancy > 0:
            open_grants = self._open_grants
            while open_grants and open_grants[0][1] <= now:
                open_grants.popleft()
            open_grants.append((start, end))
        return start

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

    def in_flight_busy_cycles(self, since: Optional[float] = None) -> float:
        """Busy cycles of unfinished grants that fall at or after ``since``.

        Grants are accounted for in full at :meth:`acquire` time, so a grant
        that straddles a measurement boundary has already banked cycles that
        belong to the *next* measurement window.  This returns exactly those
        cycles: the overlap of every open grant with ``[since, inf)``.
        """
        boundary = self.sim.now if since is None else since
        open_grants = self._open_grants
        while open_grants and open_grants[0][1] <= boundary:
            open_grants.popleft()
        return sum(end - max(start, boundary) for start, end in open_grants)

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

    __slots__ = ("bytes_per_cycle", "bytes_transferred")

    def __init__(self, sim: Simulator, bytes_per_cycle: float, name: str = "channel") -> None:
        super().__init__(sim, name)
        if bytes_per_cycle <= 0:
            raise SimulationError("channel bandwidth must be positive (%s)" % name)
        self.bytes_per_cycle = bytes_per_cycle
        self.bytes_transferred = 0

    def send(self, nbytes: int, earliest: Optional[float] = None) -> float:
        """Reserve the channel for a message of ``nbytes``; return the grant time."""
        if nbytes < 0:
            raise SimulationError("cannot send a negative number of bytes on %s" % self.name)
        self.bytes_transferred += nbytes
        return self.acquire(nbytes / self.bytes_per_cycle, earliest=earliest)

    def serialization_cycles(self, nbytes: int) -> float:
        """Cycles needed to serialize ``nbytes`` onto this channel."""
        return nbytes / self.bytes_per_cycle

    def reset_stats(self) -> None:
        """Reset counters, crediting in-flight grants' post-reset portion.

        Bytes flow at ``bytes_per_cycle`` while the channel is busy, so the
        bytes attributable to the new window are the carried-over busy cycles
        times the link rate (mirrors :meth:`Resource.reset_stats`).
        """
        super().reset_stats()
        self.bytes_transferred = self.busy_cycles * self.bytes_per_cycle


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
        finish = self.issue()
        self.sim.schedule(finish - self.sim.now, callback, *args)
        return finish
