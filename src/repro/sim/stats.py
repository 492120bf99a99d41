"""Statistics collection for the simulator.

Implements the measurement methodology of the paper's §5: metrics are
monitored in fixed-size cycle windows and a run is considered converged when
the metric changes by less than a tolerance (1 % in the paper) between
consecutive windows.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

#: Percentiles reported by :meth:`LatencyRecorder.summary` and the load
#: subsystem's tail-latency tables.
TAIL_PERCENTILES = (50.0, 95.0, 99.0, 99.9)


class LatencyHistogram:
    """HDR-style fixed-bucket histogram with bounded relative error.

    Values (latencies in cycles) are floored to integers and binned into
    buckets whose width grows with magnitude: values below
    ``2**sub_bucket_bits`` get a bucket each (exact to one cycle), larger
    values share ``2**(sub_bucket_bits-1)`` sub-buckets per power of two, so
    the quantization error of any recorded value is bounded by
    ``2**-(sub_bucket_bits-1)`` relative.  Unlike a sampling reservoir the
    histogram covers *every* recorded value, which makes high percentiles
    (p99, p99.9) of long runs exact up to that bucket resolution instead of
    subject to sampling noise.

    Buckets are kept in a sparse dict, so memory stays proportional to the
    number of distinct latency magnitudes observed, not the value range.
    Histograms with the same ``sub_bucket_bits`` merge losslessly, which is
    how per-core recorders aggregate into per-tenant and machine-wide tails.
    """

    __slots__ = ("name", "sub_bucket_bits", "count", "total",
                 "minimum", "maximum", "_counts")

    def __init__(self, name: str = "latency", sub_bucket_bits: int = 10) -> None:
        if sub_bucket_bits < 2:
            raise ValueError("sub_bucket_bits must be at least 2")
        self.name = name
        self.sub_bucket_bits = sub_bucket_bits
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._counts: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Bucket mapping
    # ------------------------------------------------------------------
    def _index_of(self, value: float) -> int:
        v = int(value)
        if v < 0:
            v = 0
        sub_bits = self.sub_bucket_bits
        if v < (1 << sub_bits):
            return v
        shift = v.bit_length() - sub_bits
        # The top sub_bits bits of v; its leading bit is always set, so the
        # usable sub-bucket range per power of two is 2**(sub_bits-1) wide.
        top = v >> shift
        half = 1 << (sub_bits - 1)
        return (1 << sub_bits) + (shift - 1) * half + (top - half)

    def _bucket_bounds(self, index: int) -> Tuple[float, float]:
        sub_bits = self.sub_bucket_bits
        if index < (1 << sub_bits):
            return float(index), float(index)
        half = 1 << (sub_bits - 1)
        offset = index - (1 << sub_bits)
        shift = offset // half + 1
        top = half + offset % half
        low = top << shift
        high = ((top + 1) << shift) - 1
        return float(low), float(high)

    # ------------------------------------------------------------------
    # Recording / merging
    # ------------------------------------------------------------------
    def record(self, value: float) -> None:
        """Record one latency sample."""
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        index = self._index_of(value)
        self._counts[index] = self._counts.get(index, 0) + 1

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's samples into this one (same resolution)."""
        if other.sub_bucket_bits != self.sub_bucket_bits:
            raise ValueError(
                "cannot merge histograms of different resolution (%d vs %d sub-bucket bits)"
                % (self.sub_bucket_bits, other.sub_bucket_bits)
            )
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        for index, count in other._counts.items():
            self._counts[index] = self._counts.get(index, 0) + count

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0-100) over every recorded sample.

        Exact up to the bucket resolution: the returned value is the midpoint
        of the bucket containing the rank, clamped to the observed extremes.
        """
        if not self.count:
            return 0.0
        if p <= 0:
            return self.minimum
        if p >= 100:
            return self.maximum
        target = p / 100.0 * self.count
        cumulative = 0
        for index in sorted(self._counts):
            cumulative += self._counts[index]
            if cumulative >= target:
                low, high = self._bucket_bounds(index)
                mid = (low + high) / 2.0
                return min(max(mid, self.minimum), self.maximum)
        return self.maximum

    def percentiles(self, points: Sequence[float] = TAIL_PERCENTILES) -> Dict[str, float]:
        """Percentile dict keyed ``"p50"``-style (``99.9`` becomes ``"p99.9"``)."""
        return {_percentile_key(p): self.percentile(p) for p in points}

    def as_dict(self) -> Dict[str, float]:
        summary: Dict[str, float] = {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
        }
        summary.update(self.percentiles())
        return summary

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "LatencyHistogram(%s, n=%d, p99=%.1f)" % (
            self.name, self.count, self.percentile(99.0))


def _percentile_key(p: float) -> str:
    return "p%g" % p


class StatAccumulator:
    """Streaming mean / variance / extremes for scalar samples."""

    __slots__ = ("name", "count", "_mean", "_m2", "minimum", "maximum", "total")

    def __init__(self, name: str = "stat") -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.total = 0.0

    def add(self, value: float) -> None:
        """Record one sample (Welford's online algorithm)."""
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples (0.0 if empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance of the samples."""
        return self._m2 / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        """Population standard deviation of the samples."""
        return math.sqrt(self.variance)

    def merge(self, other: "StatAccumulator") -> None:
        """Fold another accumulator's samples into this one."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            self.total = other.total
            return
        combined = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / combined
        self._mean = (self._mean * self.count + other._mean * other.count) / combined
        self.count = combined
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def as_dict(self) -> Dict[str, float]:
        """Summary dictionary (handy for experiment reports)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "stddev": self.stddev,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "total": self.total,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "StatAccumulator(%s, n=%d, mean=%.2f)" % (self.name, self.count, self.mean)


class LatencyRecorder(StatAccumulator):
    """A :class:`StatAccumulator` specialized for request latencies.

    Also keeps a bounded set of raw samples so percentiles can be computed.
    Once more than ``max_samples`` values arrive, the retained set is a
    uniform reservoir over the *whole* stream (Vitter's algorithm R) rather
    than the first ``max_samples`` values: keeping only the stream prefix
    would freeze the percentiles on the warm-up transient and never reflect
    steady state.  The reservoir's RNG is seeded from the recorder name, so
    runs are reproducible and recorders do not perturb any global RNG.

    With ``exact=True`` the recorder instead feeds every sample into a
    :class:`LatencyHistogram` and :meth:`percentile` answers from it —
    covering the whole stream at bounded bucket resolution.  No reservoir is
    kept in this mode (:attr:`samples` stays empty): the histogram replaces
    it, and skipping the per-sample reservoir bookkeeping keeps the
    completion hot path lean.  Open-loop load runs use this mode; the
    default stays reservoir-only so existing experiments keep byte-identical
    output.
    """

    __slots__ = ("_samples", "_max_samples", "_rng", "_histogram")

    def __init__(self, name: str = "latency", max_samples: int = 100_000,
                 exact: bool = False) -> None:
        super().__init__(name)
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self._samples: List[float] = []
        self._max_samples = max_samples
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))
        self._histogram: Optional[LatencyHistogram] = (
            LatencyHistogram(name) if exact else None
        )

    def add(self, value: float) -> None:
        super().add(value)
        if self._histogram is not None:
            self._histogram.record(value)
            return
        if len(self._samples) < self._max_samples:
            self._samples.append(value)
        else:
            # Algorithm R: the i-th sample replaces a random slot with
            # probability max_samples / i, keeping the reservoir uniform.
            slot = self._rng.randrange(self.count)
            if slot < self._max_samples:
                self._samples[slot] = value

    @property
    def exact(self) -> bool:
        """Whether percentiles cover the whole stream (histogram-backed)."""
        return self._histogram is not None

    @property
    def histogram(self) -> Optional[LatencyHistogram]:
        """The backing histogram in exact mode (None otherwise)."""
        return self._histogram

    @property
    def samples(self) -> List[float]:
        """The recorded samples (bounded by ``max_samples``).

        In insertion order while the stream fits in the reservoir; once the
        stream exceeds ``max_samples`` the order is arbitrary.  Always empty
        in exact mode, where the histogram replaces the reservoir.
        """
        return list(self._samples)

    def percentile(self, p: float) -> float:
        """Return the ``p``-th percentile (0-100) of the recorded latencies.

        Exact mode answers from the full-stream histogram; otherwise the
        percentile is interpolated over the (possibly sampled) reservoir.
        """
        if self._histogram is not None:
            return self._histogram.percentile(p)
        return self._reservoir_percentile(sorted(self._samples), p)

    @staticmethod
    def _reservoir_percentile(ordered: List[float], p: float) -> float:
        """Interpolated percentile over an already-sorted sample list."""
        if not ordered:
            return 0.0
        if p <= 0:
            return ordered[0]
        if p >= 100:
            return ordered[-1]
        rank = (p / 100.0) * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return ordered[low]
        frac = rank - low
        return ordered[low] * (1 - frac) + ordered[high] * frac

    def summary(self) -> Dict[str, object]:
        """Streaming statistics plus tail percentiles, labelled by fidelity.

        ``percentile_mode`` is ``"exact"`` when the percentiles cover every
        recorded sample (histogram mode) and ``"approximate"`` when they are
        computed over a reservoir that may have subsampled the stream.
        """
        summary: Dict[str, object] = self.as_dict()
        if self._histogram is not None:
            summary.update(self._histogram.percentiles())
        else:
            ordered = sorted(self._samples)  # one sort for all percentiles
            for p in TAIL_PERCENTILES:
                summary[_percentile_key(p)] = self._reservoir_percentile(ordered, p)
        summary["percentile_mode"] = "exact" if self.exact else "approximate"
        return summary


class WindowedMonitor:
    """Implements the paper's convergence criterion (§5).

    The metric of interest is sampled once per window of ``window_cycles``;
    the run is converged when the relative change between two consecutive
    windows drops below ``tolerance`` (after at least ``min_windows``
    windows).
    """

    def __init__(
        self,
        window_cycles: float = 500_000,
        tolerance: float = 0.01,
        min_windows: int = 2,
        max_windows: int = 64,
    ) -> None:
        self.window_cycles = window_cycles
        self.tolerance = tolerance
        self.min_windows = min_windows
        self.max_windows = max_windows
        self.window_values: List[float] = []

    def record_window(self, value: float) -> None:
        """Record the metric value measured over the window that just ended."""
        self.window_values.append(value)

    @property
    def windows_seen(self) -> int:
        return len(self.window_values)

    @property
    def exhausted(self) -> bool:
        """True once the window budget (``max_windows``) is spent."""
        return len(self.window_values) >= self.max_windows

    @property
    def converged_naturally(self) -> bool:
        """True only when the tolerance criterion itself is met.

        Distinct from :attr:`converged`, which also turns True when
        ``max_windows`` is exhausted — a run that merely ran out of window
        budget has *not* demonstrated a steady state, and callers reporting
        measurements should surface that (see :meth:`warning`).
        """
        if len(self.window_values) < self.min_windows:
            return False
        prev, last = self.window_values[-2], self.window_values[-1]
        if prev == 0 and last == 0:
            return True
        denom = max(abs(prev), abs(last), 1e-12)
        return abs(last - prev) / denom < self.tolerance

    @property
    def converged(self) -> bool:
        """True once the run should stop measuring: the tolerance criterion
        is met, or the ``max_windows`` budget is exhausted."""
        if len(self.window_values) < self.min_windows:
            return False
        return self.converged_naturally or self.exhausted

    def warning(self) -> Optional[str]:
        """A human-readable warning when measurement stopped without converging."""
        if self.exhausted and not self.converged_naturally:
            return (
                "metric did not converge to %.2f%% within %d windows of %g cycles; "
                "reported value is the mean of the last two windows"
                % (self.tolerance * 100.0, self.max_windows, self.window_cycles)
            )
        return None

    @property
    def value(self) -> Optional[float]:
        """The converged metric value (mean of the last two windows)."""
        if not self.window_values:
            return None
        if len(self.window_values) == 1:
            return self.window_values[0]
        return 0.5 * (self.window_values[-1] + self.window_values[-2])
