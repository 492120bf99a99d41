"""A minimal, fast discrete-event simulation kernel.

The kernel keeps a binary heap of ``(time, seq, callback, args)`` tuples.
Components schedule callbacks at absolute or relative times; the simulator
executes them in order and advances the clock.  Time is measured in core
clock cycles (integers or floats are both accepted; the kernel never rounds).

Every model is written in one style, callbacks:
``sim.schedule(delay, fn, *args)`` runs ``fn(*args)`` ``delay`` cycles from
now, and a multi-step behaviour (a NOC hop walk, a coherence transaction, an
NI pipeline) is a chain of callbacks that schedule their successors.

Scheduling returns no handle and events cannot be removed from the heap.  A
component that may need to revoke pending work keeps a flag its callbacks
check instead (the open-loop arrival clock's ``frozen`` state, the fault
injector's disarmed toggles).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs import hooks as obs_hooks
from repro.sim import perf


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.schedule(10, hello)          # relative delay
        sim.run()                        # run to completion
        sim.run(until=100_000)           # or bounded

    Every heap entry is a ``(time, seq, callback, args)`` tuple: the unique
    ``seq`` makes simultaneous events fire in scheduling order (deterministic
    runs) and keeps comparisons on the ``(time, seq)`` prefix, entirely in C.
    Executed events, scheduled events and the peak heap size live in the
    simulator's :class:`~repro.sim.perf.PerfCounters` record only.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_seq",
        "_run_horizon",
        "_perf",
        "_obs_index",
    )

    def __init__(self) -> None:
        self._now: float = 0.0
        self._queue: List[Tuple[Any, ...]] = []
        self._seq = itertools.count()
        #: The ``until`` horizon of the :meth:`run` currently executing
        #: (+inf otherwise).  Lookahead optimisations must not commit work at
        #: virtual times past it: the run may stop there and the caller may
        #: sample statistics that the unfused event chain would not yet have
        #: accumulated.
        self._run_horizon = float("inf")
        self._perf = perf.register()
        #: Deterministic per-run index handed out by the active obs session
        #: (``None`` when observability is disabled — the common case; the
        #: hook costs one truthiness check and allocates nothing).
        self._obs_index = obs_hooks.register_simulator(self)

    # ------------------------------------------------------------------
    # Clock and queue introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in cycles."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events executed so far (useful for performance reporting)."""
        return self._perf.events

    @property
    def pending_events(self) -> int:
        """Number of events still in the queue."""
        return len(self._queue)

    @property
    def peak_pending_events(self) -> int:
        """Largest heap size observed so far (memory-pressure indicator)."""
        return self._perf.peak_pending

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError("cannot schedule an event %.3f cycles in the past" % delay)
        queue = self._queue
        heapq.heappush(queue, (self._now + delay, next(self._seq), callback, args))
        counters = self._perf
        counters.fast_events += 1
        if len(queue) > counters.peak_pending:
            counters.peak_pending = len(queue)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        if time < self._now:
            raise SimulationError(
                "cannot schedule an event at t=%.3f, current time is %.3f" % (time, self._now)
            )
        queue = self._queue
        heapq.heappush(queue, (time, next(self._seq), callback, args))
        counters = self._perf
        counters.fast_events += 1
        if len(queue) > counters.peak_pending:
            counters.peak_pending = len(queue)

    def next_event_time(self) -> Optional[float]:
        """Time of the earliest pending event, or None when idle.

        This is the lookahead bound the NOC's hop fusion peeks at — while a
        packet's next hop arrives strictly before this time, no other event
        can interleave.
        """
        queue = self._queue
        return queue[0][0] if queue else None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or ``until`` is reached.

        Returns the simulation time at which execution stopped.
        """
        executed = 0
        queue = self._queue
        pop = heapq.heappop
        horizon = float("inf") if until is None else until
        self._run_horizon = horizon
        try:
            while queue:
                if queue[0][0] > horizon:
                    # Clamp: a horizon already in the past must not move the
                    # clock backwards.
                    if until > self._now:
                        self._now = until
                    break
                self._now, _seq, callback, args = pop(queue)
                executed += 1
                callback(*args)
        finally:
            self._run_horizon = float("inf")
            # The executed-event count is kept in a local inside the loop;
            # fold it into the lifetime counter even on an exception.
            self._perf.events += executed
        if until is not None and not queue and self._now < until:
            # The model went idle before the horizon; advance the clock so
            # rate computations over [0, until] stay meaningful.
            self._now = until
        return self._now
