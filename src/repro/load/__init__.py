"""repro.load — open-loop load generation and tail-latency analysis.

The paper's headline results are latency-*under-load* curves: each NI design
is judged by how remote-read latency degrades as offered load climbs toward
saturation.  This subsystem provides the three pieces that methodology
needs:

* **Arrival processes** (:mod:`repro.load.arrivals`) — seeded, reproducible
  open-loop arrival clocks (``deterministic``, ``poisson``, ``bursty``,
  ``trace``) registered in :data:`repro.scenario.registry.ARRIVALS`, the
  fourth scenario axis;
* **The open-loop driver** (:mod:`repro.load.driver`) — wraps any registered
  workload, injects requests on the arrival clock with bounded per-core
  queues and drop accounting, and measures arrival-to-completion latency
  into exact :class:`~repro.sim.stats.LatencyHistogram` recorders (with
  per-tenant breakdowns for multi-tenant mixes);
* **The saturation sweep** (:mod:`repro.experiments.open_loop_sweeps`) —
  the ``load_sweep`` experiment walks offered load across load points,
  reports exact p50/p95/p99/p99.9 per point and finds the saturation
  throughput: the highest load whose p99 still meets the SLO relative to
  the lowest-load latency (``chaos_sweep`` applies the same rule under
  injected faults).
"""

from repro.load.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    DeterministicArrivals,
    PoissonArrivals,
    TraceReplayArrivals,
)
from repro.load.driver import OpenLoopDriver, OpenLoopResult, TenantLoad

__all__ = [
    "ArrivalProcess",
    "DeterministicArrivals",
    "PoissonArrivals",
    "BurstyArrivals",
    "TraceReplayArrivals",
    "OpenLoopDriver",
    "OpenLoopResult",
    "TenantLoad",
]
