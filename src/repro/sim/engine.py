"""A minimal, fast discrete-event simulation kernel.

The kernel keeps a binary heap of the distinct pending event times and a
dict that maps each of those times to one flat list of its events in
scheduling order, ``[callback0, args0, callback1, args1, ...]``.  A queued
event therefore costs its argument tuple and two list slots, nothing more.
Components schedule callbacks at absolute or relative times; the simulator
pops one time, runs its list front to back and advances the clock.  Time is
measured in core clock cycles (integers or floats are both accepted; the
kernel never rounds).

Every model is written in one style, callbacks:
``sim.schedule(delay, fn, *args)`` runs ``fn(*args)`` ``delay`` cycles from
now, and a multi-step behaviour (a NOC hop walk, a coherence transaction, an
NI pipeline) is a chain of callbacks that schedule their successors.  A
model's steps are queued as plain functions with their owner as the first
argument (``sim.schedule(3, Soc._step, self, txn)``), not as bound methods,
which would each be one more object alive until the event runs (lint rule
REP011).

The clock is the plain slot ``Simulator.now``: the model reads it on nearly
every event, and a slot read costs a fraction of a property call.  Only the
kernel writes it; lint rule REP012 rejects an assignment to an attribute
named ``now`` anywhere outside this module.

Scheduling returns no handle and events cannot be removed from the queue.  A
component that may need to revoke pending work keeps a flag its callbacks
check instead (the open-loop arrival clock's ``frozen`` state, the fault
injector's disarmed toggles).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.errors import SimulationError
from repro.obs import hooks as obs_hooks
from repro.sim import perf

#: The cursor of a simulator whose run loop is not inside a time's list.
_IDLE: Iterator[Any] = iter(())

_INF = float("inf")


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.schedule(10, hello)          # relative delay
        sim.run()                        # run to completion
        sim.run(until=100_000)           # or bounded

    Events that share a time share one list, so the heap holds each pending
    time once and costs one push and one pop per distinct time, however many
    events fall on it.  Simultaneous events fire in scheduling order
    (deterministic runs): each list is run front to back, and an event
    scheduled for the current time while its list runs joins the end of
    that list.  Times are dict keys, so equal times share a list whatever
    their type (``5`` and ``5.0``) and the clock reads the first one
    scheduled.  Executed events, distinct times executed, scheduled events
    and the peak pending count live in the simulator's
    :class:`~repro.sim.perf.PerfCounters` record only.
    """

    __slots__ = (
        "now",
        "_times",
        "_lists",
        "_cursor",
        "_pending",
        "_run_horizon",
        "_perf",
        "_obs_index",
        "_closed",
    )

    def __init__(self) -> None:
        #: Current simulation time in cycles.  Read-only outside the kernel
        #: (REP012).
        self.now: float = 0.0
        #: Heap of the distinct times that still have a list in ``_lists``
        #: (the time whose list is running has already been popped).
        self._times: List[float] = []
        #: Each pending time's events, flat: ``[callback, args, ...]``.
        self._lists: Dict[float, List[Any]] = {}
        #: Iterator over the list that :meth:`run` is executing; its length
        #: hint is twice the number of that list's events not yet started
        #: (zero exactly when none is left).
        self._cursor: Iterator[Any] = _IDLE
        #: Events scheduled and not yet started (exact at every push).
        self._pending = 0
        #: The ``until`` horizon of the :meth:`run` currently executing
        #: (+inf otherwise).  Lookahead optimisations must not commit work at
        #: virtual times past it: the run may stop there and the caller may
        #: sample statistics that the unfused event chain would not yet have
        #: accumulated.
        self._run_horizon = _INF
        self._perf = perf.register()
        #: Deterministic per-run index handed out by the active obs session
        #: (``None`` when observability is disabled — the common case; the
        #: hook costs one truthiness check and allocates nothing).
        self._obs_index = obs_hooks.register_simulator(self)
        self._closed = False

    # ------------------------------------------------------------------
    # Queue introspection
    # ------------------------------------------------------------------
    @property
    def events_executed(self) -> int:
        """Number of events executed so far (useful for performance reporting)."""
        return self._perf.events

    @property
    def pending_events(self) -> int:
        """Number of events scheduled and not yet started."""
        return self._pending

    @property
    def peak_pending_events(self) -> int:
        """Largest pending-event count observed so far (memory-pressure indicator)."""
        return self._perf.peak_pending

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now."""
        # Written so that NaN fails too: NaN compares false with everything.
        if not delay >= 0:
            raise SimulationError(
                "cannot schedule an event %r cycles from now: the delay must be "
                "a non-negative number" % (delay,))
        time = self.now + delay
        entries = self._lists.get(time)
        if entries is None:
            self._lists[time] = [callback, args]
            heappush(self._times, time)
        else:
            entries.append(callback)
            entries.append(args)
        counters = self._perf
        counters.fast_events += 1
        pending = self._pending = self._pending + 1
        if pending > counters.peak_pending:
            counters.peak_pending = pending

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        if not time >= self.now:
            raise SimulationError(
                "cannot schedule an event at t=%r, current time is %.3f" % (time, self.now)
            )
        entries = self._lists.get(time)
        if entries is None:
            self._lists[time] = [callback, args]
            heappush(self._times, time)
        else:
            entries.append(callback)
            entries.append(args)
        counters = self._perf
        counters.fast_events += 1
        pending = self._pending = self._pending + 1
        if pending > counters.peak_pending:
            counters.peak_pending = pending

    def next_event_time(self) -> Optional[float]:
        """Time of the earliest pending event, or None when idle.

        This is the lookahead bound of the NOC's hop fusion — while a
        packet's next hop arrives strictly before this time, no other event
        can interleave.  It is ``now`` while the running time's list still
        has events that have not started.  The fabric's ``_hop`` inlines
        this test (:mod:`repro.noc.fabric`); keep the two in sync.
        """
        if self._cursor.__length_hint__():
            return self.now
        times = self._times
        return times[0] if times else None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or ``until`` is reached.

        Returns the simulation time at which execution stopped.  When a
        callback raises, it counts as executed and the entries after it in
        its time's list stay pending, to run first on the next call.
        ``until=None`` and ``until=inf`` mean no horizon; a NaN horizon
        raises, because no time compares past it and the run would not end.
        """
        if self._closed:
            raise SimulationError("cannot run a closed simulator: its pending events were dropped")
        horizon = _INF if until is None else until
        if horizon != horizon:  # only NaN is unequal to itself
            raise SimulationError("cannot run until t=%r: the horizon must be a number" % (until,))
        if horizon == _INF:
            # No horizon: the idle advance below must not move the clock to inf.
            until = None
        times = self._times
        lists = self._lists
        counters = self._perf
        # Executed events are derived at exit from the scheduled and pending
        # counts, so the per-event work is one decrement.
        scheduled_before = counters.fast_events
        pending_before = self._pending
        distinct = 0
        self._run_horizon = horizon
        try:
            while times:
                time = times[0]
                if time > horizon:
                    # Clamp: a horizon already in the past must not move the
                    # clock backwards.
                    if until > self.now:
                        self.now = until
                    break
                heappop(times)
                self.now = time
                distinct += 1
                # The list stays in ``lists`` while it runs, so events
                # scheduled for ``time`` meanwhile join its end.  It
                # alternates callbacks and argument tuples: the loop takes
                # a callback and ``next`` takes its arguments.
                entries = lists[time]
                self._cursor = cursor = iter(entries)
                try:
                    for callback in cursor:
                        self._pending -= 1
                        callback(*next(cursor))
                except BaseException:
                    # Requeue the events that never started, still first at
                    # their time, and drop the ones that did (the raising
                    # one's two slots are consumed, so the rest stay paired).
                    unstarted = cursor.__length_hint__()
                    if unstarted:
                        del entries[:len(entries) - unstarted]
                        heappush(times, time)
                    else:
                        del lists[time]
                    raise
                del lists[time]
        finally:
            self._cursor = _IDLE
            self._run_horizon = _INF
            counters.events += (counters.fast_events - scheduled_before
                                - (self._pending - pending_before))
            counters.event_times += distinct
        if until is not None and not times and self.now < until:
            # The model went idle before the horizon; advance the clock so
            # rate computations over [0, until] stay meaningful.
            self.now = until
        return self.now

    def close(self) -> None:
        """Drop every pending event; :meth:`run` raises from now on.

        Queued events carry a machine's parts as their arguments, so the
        queue links those parts to each other; dropping it is the kernel's
        share of :meth:`ManycoreSoc.close
        <repro.node.soc.ManycoreSoc.close>`.  The clock and the counters
        (``now``, ``pending_events``, ``events_executed``) keep the values
        they had.  Closing twice is a no-op.
        """
        self._times = []
        self._lists = {}
        self._closed = True
