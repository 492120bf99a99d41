"""Simulation-performance instrumentation (events/sec, packets/sec, queue size).

The ROADMAP's "fast as the hardware allows" goal needs a trajectory: every
optimisation PR should be able to show what the kernel sustains before and
after.  This module provides a lightweight way to measure whole-experiment
simulation throughput without threading collector objects through every
layer:

* a :class:`PerfSession` accumulates counters over a region of wall time,
* :func:`session` opens one as a context manager,
* :class:`~repro.sim.engine.Simulator`,
  :class:`~repro.noc.fabric.NocFabric` and
  :class:`~repro.faults.injector.FaultState` each call :func:`register` at
  construction time, which hands out a small :class:`PerfCounters` record
  and adds it to every open session; the session sums those records when
  it closes.

Sessions hold only the counter records — never the simulators or fabrics
themselves — so in a sweep that builds one SoC per data point, each closed
SoC is freed by reference counting as soon as it is dropped while its
counters keep contributing to the session totals.

Registration is process-local (campaign workers each get their own module
state) and costs one list append per constructed component and open session,
so it is safe to leave enabled unconditionally.  When no session is open,
:func:`register` only hands out a counter record.

The numbers surface in two places: ``ExperimentResult.metadata.perf`` (every
spec-driven run is wrapped in a session) and the campaign report summary.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List

#: Sessions currently collecting (a stack; nested sessions each observe the
#: simulators/fabrics created while they are open).
_ACTIVE_SESSIONS: List["PerfSession"] = []


class PerfCounters:
    """Lifetime counters of one simulator or fabric (a few plain ints).

    The owning component updates these in place and keeps no other copy of
    them; sessions keep a reference to the record only, so the component
    itself stays collectable.
    """

    __slots__ = ("events", "event_times", "packets", "peak_pending", "fused_hops",
                 "fast_events", "fault_windows", "fault_hits")

    def __init__(self) -> None:
        self.events = 0
        #: Distinct event times the run loop executed (one heap pop each);
        #: ``events / event_times`` is how many events share a time.
        self.event_times = 0
        self.packets = 0
        self.peak_pending = 0
        #: NOC hops collapsed into their predecessor by lookahead hop fusion
        #: (each one is a hop event that never had to be scheduled).
        self.fused_hops = 0
        #: Events scheduled (every one takes the allocation-free tuple path).
        self.fast_events = 0
        #: Fault windows activated by an installed fault injector.
        self.fault_windows = 0
        #: Fault hook invocations that actually perturbed the simulation
        #: (a deferred hop, a shed arrival, a retransmitted packet, ...).
        self.fault_hits = 0


class PerfSession:
    """Counters for one measured region of simulation work."""

    __slots__ = ("_counters", "_started_at", "wall_s",
                 "events", "event_times", "packets", "peak_pending_events",
                 "fused_hops", "fast_events", "fault_windows", "fault_hits",
                 "_closed")

    def __init__(self) -> None:
        self._counters: List[PerfCounters] = []
        self._started_at = time.perf_counter()
        self._closed = False
        self.wall_s = 0.0
        self.events = 0
        self.event_times = 0
        self.packets = 0
        self.peak_pending_events = 0
        self.fused_hops = 0
        self.fast_events = 0
        self.fault_windows = 0
        self.fault_hits = 0

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def watch(self, counters: PerfCounters) -> None:
        self._counters.append(counters)

    def close(self) -> None:
        """Stop the wall clock and sum every watched counter record."""
        if self._closed:
            return
        self._closed = True
        self.wall_s = time.perf_counter() - self._started_at
        self.events = sum(counters.events for counters in self._counters)
        self.event_times = sum(counters.event_times for counters in self._counters)
        self.packets = sum(counters.packets for counters in self._counters)
        self.fused_hops = sum(counters.fused_hops for counters in self._counters)
        self.fast_events = sum(counters.fast_events for counters in self._counters)
        self.fault_windows = sum(counters.fault_windows for counters in self._counters)
        self.fault_hits = sum(counters.fault_hits for counters in self._counters)
        self.peak_pending_events = max(
            (counters.peak_pending for counters in self._counters), default=0
        )
        self._counters = []

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def events_per_s(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def packets_per_s(self) -> float:
        return self.packets / self.wall_s if self.wall_s > 0 else 0.0

    def summary(self) -> Dict[str, float]:
        """JSON-native counters (the ``ResultMetadata.perf`` payload).

        ``event_times`` is left out, so result documents keep their keys.
        """
        return {
            "events": float(self.events),
            "packets": float(self.packets),
            "wall_s": self.wall_s,
            "events_per_s": self.events_per_s,
            "packets_per_s": self.packets_per_s,
            "peak_pending_events": float(self.peak_pending_events),
            "fused_hops": float(self.fused_hops),
            "fast_events": float(self.fast_events),
            "fault_windows": float(self.fault_windows),
            "fault_hits": float(self.fault_hits),
        }


@contextmanager
def session() -> Iterator[PerfSession]:
    """Collect simulation-performance counters for the enclosed region."""
    current = PerfSession()
    _ACTIVE_SESSIONS.append(current)
    try:
        yield current
    finally:
        _ACTIVE_SESSIONS.remove(current)
        current.close()


def register() -> PerfCounters:
    """Hand out a fresh counter record, watched by every open session.

    Called once by each ``Simulator``, ``NocFabric`` and ``FaultState`` at
    construction; the component keeps the record as its only counter copy.
    """
    counters = PerfCounters()
    for active in _ACTIVE_SESSIONS:
        active.watch(counters)
    return counters
