"""Resilience metrics: tails under failure, degraded throughput, recovery.

The chaos-sweep methodology compares a faulted run against its fault-free
twin (same spec, same seed, same arrival schedule):

* **tail amplification** — the faulted run's p99 over the fault-free p99 at
  the same offered load; the headline "how much worse is the tail when
  things break" number.
* **SLO-preserving degraded throughput** — the highest achieved throughput a
  faulted run sustains while still meeting the fault-free SLO; the
  ``chaos_sweep`` experiment (:mod:`repro.experiments.open_loop_sweeps`)
  walks it from per-cell results and parses it back out of result notes.
* **recovery transient** — after each fault window recovers, how long until
  the rolling p99 is back within a tolerance of the fault-free baseline.

Recovery needs latency *as a function of time*, which is what
:class:`WindowedTails` records: completions are bucketed into fixed windows
of the simulation clock, one mergeable
:class:`~repro.sim.stats.LatencyHistogram` per window, so any sub-range of
the run (a fault window, the healthy complement, the post-recovery ramp) can
be merged into an exact tail on demand.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.stats import LatencyHistogram


class WindowedTails:
    """Per-time-window latency histograms over one run.

    ``record(now, latency)`` buckets a completion by the simulation time it
    completed at; buckets are sparse (only windows that saw completions
    exist) and hold full histograms, so both per-window percentiles and
    merged range percentiles are exact.
    """

    def __init__(self, window_cycles: float, name: str = "windowed-latency") -> None:
        if window_cycles <= 0:
            raise ValueError("window_cycles must be positive")
        self.window_cycles = float(window_cycles)
        self.name = name
        self._buckets: Dict[int, LatencyHistogram] = {}

    def record(self, now: float, latency: float) -> None:
        index = int(now // self.window_cycles)
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = LatencyHistogram(
                "%s[%d]" % (self.name, index)
            )
        bucket.record(latency)

    def __len__(self) -> int:
        return len(self._buckets)

    def merged_range(self, start: float, end: float) -> LatencyHistogram:
        """One histogram merging every window overlapping ``[start, end)``."""
        merged = LatencyHistogram("%s[%g:%g]" % (self.name, start, end))
        if end <= start:
            return merged
        first = int(start // self.window_cycles)
        last = int(end // self.window_cycles)
        if end == last * self.window_cycles:
            last -= 1  # end on a boundary: the window starting there is out
        for index in range(first, last + 1):
            bucket = self._buckets.get(index)
            if bucket is not None:
                merged.merge(bucket)
        return merged

    def window_percentiles(self, p: float = 99.0) -> List[Tuple[float, int, float]]:
        """Sorted ``(window_start, count, percentile)`` rows for every window."""
        return [
            (index * self.window_cycles, bucket.count, bucket.percentile(p))
            for index, bucket in sorted(self._buckets.items())
        ]


def tail_amplification(faulted_p99: float, baseline_p99: float) -> float:
    """Faulted p99 over fault-free p99 (0.0 when the baseline is empty)."""
    if baseline_p99 <= 0.0:
        return 0.0
    return faulted_p99 / baseline_p99


def recovery_transient_cycles(
    window_p99: Sequence[Tuple[float, int, float]],
    fault_windows: Sequence[Tuple[float, float]],
    window_cycles: float,
    baseline_p99: float,
    tolerance: float = 1.5,
) -> Optional[float]:
    """Mean cycles from fault recovery until the rolling p99 is healthy again.

    For each fault window's recovery time, scans the per-window p99 rows
    (from :meth:`WindowedTails.window_percentiles`) for the first
    completion-bearing window at/after recovery whose p99 is within
    ``tolerance`` times the fault-free baseline; the transient is measured
    to that window's *end* (the earliest time the rolling tail is provably
    back).  Windows that never recover within the recorded range are
    excluded; returns None when nothing recovered (or nothing was recorded).
    """
    if baseline_p99 <= 0.0 or not window_p99 or not fault_windows:
        return None
    limit = tolerance * baseline_p99
    transients: List[float] = []
    for _on, off in fault_windows:
        for start, count, p99 in window_p99:
            if start + window_cycles <= off or count == 0:
                continue
            if p99 <= limit:
                transients.append(max(0.0, start + window_cycles - off))
                break
    if not transients:
        return None
    return sum(transients) / len(transients)
