"""Built-in telemetry probes — the eighth component registry.

A probe turns one aspect of a live run into a JSON-native payload sampled at
a sim-time cadence by :class:`repro.obs.sampler.Sampler`.  The probe contract
(statically enforced by lint rule REP008) is deliberately strict because
probes execute inside the event loop of the very simulation they report on:

* a probe **reads** the run through :class:`ProbeContext` and never writes
  it — no attribute assignment whose target is rooted anywhere but ``self``
  (that would silently perturb the run and break the obs-disabled
  byte-identity contract);
* every probe class declares ``__slots__`` so per-tick sampling allocates no
  per-instance ``__dict__``;
* :meth:`TelemetryProbe.sample` returns ``None`` when its source is absent
  (e.g. ``queue_depth`` outside an open-loop run), never a partial payload.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.errors import ObsError, reject_unknown_params
from repro.scenario.registry import register_probe


class ProbeContext:
    """Read-only views of a run handed to every probe at each tick.

    Fields default to ``None``; a sampler fills in what its host exposes
    (the load driver provides everything, ``tools/profile_hotpath.py
    --obs-overhead`` only ``sim`` + ``fabric``) and probes skip sampling
    when their source is missing.
    """

    __slots__ = ("sim", "fabric", "driver", "states", "tails", "fault_state")

    def __init__(
        self,
        sim: Any = None,
        fabric: Any = None,
        driver: Any = None,
        states: Any = None,
        tails: Any = None,
        fault_state: Any = None,
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.driver = driver
        self.states = states
        self.tails = tails
        self.fault_state = fault_state


class TelemetryProbe:
    """Base class for telemetry probes (see the module docstring contract)."""

    __slots__ = ()

    #: Registry name; set by subclasses to match their ``@register_probe``.
    name: str = ""
    #: Constructor parameters with defaults (the ``from_params`` contract).
    param_defaults: Mapping[str, object] = {}

    @classmethod
    def from_params(cls, **params: object) -> "TelemetryProbe":
        """Build the probe from registry-style keyword parameters."""
        reject_unknown_params("probe %r" % (cls.name,), params, cls.param_defaults, ObsError)
        merged = dict(cls.param_defaults)
        merged.update(params)
        return cls(**merged)  # type: ignore[arg-type]

    def sample(self, ctx: ProbeContext) -> Optional[Dict[str, object]]:
        """One JSON-native payload at the current sim time (``None`` = skip)."""
        raise NotImplementedError


@register_probe("rolling_tails")
class RollingTailsProbe(TelemetryProbe):
    """Latest closed-or-open window's p50/p99 completion latency.

    Reads the driver's :class:`~repro.faults.metrics.WindowedTails`; on
    fault-free runs the sampler installs one at this probe's
    ``window_cycles`` so rolling tails are observable without an injector.
    """

    __slots__ = ("window_cycles",)

    name = "rolling_tails"
    param_defaults: Mapping[str, object] = {"window_cycles": 500.0}

    def __init__(self, window_cycles: float = 500.0) -> None:
        if window_cycles <= 0:
            raise ObsError("rolling_tails window_cycles must be positive")
        self.window_cycles = float(window_cycles)

    def sample(self, ctx: ProbeContext) -> Optional[Dict[str, object]]:
        tails = ctx.tails
        if tails is None:
            return None
        p99_rows = tails.window_percentiles(99.0)
        if not p99_rows:
            return None
        p50_by_start = {row[0]: row[2] for row in tails.window_percentiles(50.0)}
        window_start, count, p99 = p99_rows[-1]
        return {
            "window_start": window_start,
            "count": count,
            "p50": p50_by_start.get(window_start, 0.0),
            "p99": p99,
            "windows": len(p99_rows),
        }


@register_probe("throughput")
class ThroughputProbe(TelemetryProbe):
    """Cumulative and per-tick-delta event/packet counts (sim-time based).

    Wall-clock rates are banned from the stream; consumers derive sim-time
    rates (e.g. packets per kilocycle) from ``t`` deltas between samples.
    ``packets`` (the fabric's lifetime perf counter) advances live;
    ``events`` is folded in at run-window boundaries by the kernel's hot
    loop, so its deltas step once per warm-up/measurement window.
    """

    __slots__ = ("_last_events", "_last_packets")

    name = "throughput"
    param_defaults: Mapping[str, object] = {}

    def __init__(self) -> None:
        self._last_events = 0
        self._last_packets = 0

    def sample(self, ctx: ProbeContext) -> Optional[Dict[str, object]]:
        sim = ctx.sim
        if sim is None:
            return None
        events = sim.events_executed
        fabric = ctx.fabric
        packets = fabric.lifetime_packets_sent if fabric is not None else 0
        data = {
            "events": events,
            "packets": packets,
            "delta_events": events - self._last_events,
            "delta_packets": packets - self._last_packets,
        }
        self._last_events = events
        self._last_packets = packets
        return data


@register_probe("queue_depth")
class QueueDepthProbe(TelemetryProbe):
    """Open-loop queue occupancy and drop counters, summed over tenants."""

    __slots__ = ()

    name = "queue_depth"
    param_defaults: Mapping[str, object] = {}

    def sample(self, ctx: ProbeContext) -> Optional[Dict[str, object]]:
        states = ctx.states
        if not states:
            return None
        queued = 0
        deepest = 0
        arrived = 0
        dropped = 0
        fault_dropped = 0
        completed = 0
        for state in states:
            for core in state.cores:
                depth = core.queued
                queued += depth
                if depth > deepest:
                    deepest = depth
            arrived += state.arrived
            dropped += state.dropped
            fault_dropped += state.fault_dropped
            completed += state.completed
        return {
            "queued": queued,
            "deepest_core_queue": deepest,
            "arrived": arrived,
            "dropped": dropped,
            "fault_dropped": fault_dropped,
            "completed": completed,
        }


@register_probe("fault_windows")
class FaultWindowsProbe(TelemetryProbe):
    """Active fault-model state: which model, whether a window is open, hits."""

    __slots__ = ()

    name = "fault_windows"
    param_defaults: Mapping[str, object] = {}

    def sample(self, ctx: ProbeContext) -> Optional[Dict[str, object]]:
        state = ctx.fault_state
        if state is None:
            return None
        payload = {
            "model": state.model.name,
            "active": bool(state.active),
            "windows": int(state.windows),
            "hits": int(state.hits),
        }
        cascade = getattr(state, "cascade", None)
        if cascade is not None:
            # Cascading runs attach a composite state; surface the
            # secondary model with its trigger lineage.  Plain faulted
            # runs emit the exact pre-cascade payload.
            payload["cascade"] = {
                "model": cascade.model.name,
                "active": bool(cascade.active),
                "windows": int(cascade.windows),
                "hits": int(cascade.hits),
                "triggered_by": state.primary.model.name,
            }
        return payload


@register_probe("heap_health")
class HeapHealthProbe(TelemetryProbe):
    """Event-queue pressure: pending/peak event counts and events executed.

    The counts are of events, not of heap entries: the kernel's heap holds
    one entry per distinct pending time.
    """

    __slots__ = ()

    name = "heap_health"
    param_defaults: Mapping[str, object] = {}

    def sample(self, ctx: ProbeContext) -> Optional[Dict[str, object]]:
        sim = ctx.sim
        if sim is None:
            return None
        return {
            "pending": sim.pending_events,
            "peak_pending": sim.peak_pending_events,
            "executed": sim.events_executed,
        }
