"""Tests for the statistics helpers."""

import random

import pytest

from repro.sim.stats import (
    LatencyHistogram,
    LatencyRecorder,
    StatAccumulator,
    WindowedMonitor,
)


class TestStatAccumulator:
    def test_mean_and_extremes(self):
        acc = StatAccumulator("x")
        for value in (2.0, 4.0, 6.0):
            acc.add(value)
        assert acc.count == 3
        assert acc.mean == pytest.approx(4.0)
        assert acc.minimum == 2.0
        assert acc.maximum == 6.0
        assert acc.total == 12.0

    def test_variance_and_stddev(self):
        acc = StatAccumulator()
        for value in (1.0, 3.0):
            acc.add(value)
        assert acc.variance == pytest.approx(1.0)
        assert acc.stddev == pytest.approx(1.0)

    def test_empty_accumulator_is_safe(self):
        acc = StatAccumulator()
        assert acc.mean == 0.0
        assert acc.variance == 0.0
        assert acc.as_dict()["count"] == 0

    def test_merge_matches_single_accumulator(self):
        values = [1.0, 5.0, 2.0, 8.0, 3.0, 9.0]
        combined = StatAccumulator()
        for v in values:
            combined.add(v)
        left, right = StatAccumulator(), StatAccumulator()
        for v in values[:3]:
            left.add(v)
        for v in values[3:]:
            right.add(v)
        left.merge(right)
        assert left.count == combined.count
        assert left.mean == pytest.approx(combined.mean)
        assert left.variance == pytest.approx(combined.variance)
        assert left.minimum == combined.minimum
        assert left.maximum == combined.maximum

    def test_merge_with_empty(self):
        acc = StatAccumulator()
        acc.add(4.0)
        acc.merge(StatAccumulator())
        assert acc.count == 1


class TestLatencyRecorder:
    def test_percentiles(self):
        rec = LatencyRecorder()
        for value in range(1, 101):
            rec.add(float(value))
        assert rec.percentile(0) == 1.0
        assert rec.percentile(100) == 100.0
        assert rec.percentile(50) == pytest.approx(50.5)

    def test_sample_cap(self):
        rec = LatencyRecorder(max_samples=10)
        for value in range(100):
            rec.add(float(value))
        assert len(rec.samples) == 10
        assert rec.count == 100

    def test_empty_percentile_is_zero(self):
        assert LatencyRecorder().percentile(99) == 0.0


class TestWindowedMonitor:
    def test_converges_when_windows_agree_within_tolerance(self):
        monitor = WindowedMonitor(tolerance=0.01, min_windows=2)
        monitor.record_window(100.0)
        assert not monitor.converged
        monitor.record_window(100.5)
        assert monitor.converged
        assert monitor.value == pytest.approx(100.25)

    def test_does_not_converge_while_changing(self):
        monitor = WindowedMonitor(tolerance=0.01)
        monitor.record_window(100.0)
        monitor.record_window(150.0)
        assert not monitor.converged

    def test_max_windows_forces_convergence(self):
        monitor = WindowedMonitor(tolerance=0.0001, max_windows=3)
        for value in (1.0, 2.0, 3.0):
            monitor.record_window(value)
        assert monitor.converged

    def test_all_zero_windows_converge(self):
        monitor = WindowedMonitor()
        monitor.record_window(0.0)
        monitor.record_window(0.0)
        assert monitor.converged


class TestLatencyRecorderReservoir:
    def test_first_n_samples_kept_verbatim(self):
        rec = LatencyRecorder("r", max_samples=10)
        for value in range(10):
            rec.add(float(value))
        assert rec.samples == [float(v) for v in range(10)]

    def test_reservoir_reflects_full_stream_not_warmup_prefix(self):
        # A 2 x max_samples stream whose first half (the "warm-up") is slow
        # (1000.0) and second half is fast (10.0).  Keeping only the first
        # max_samples values would report p50 = 1000; a uniform reservoir
        # over the whole stream must land near the true mixed distribution.
        max_samples = 2_000
        rec = LatencyRecorder("bias-check", max_samples=max_samples)
        for _ in range(max_samples):
            rec.add(1000.0)
        for _ in range(max_samples):
            rec.add(10.0)
        fast_fraction = sum(1 for s in rec.samples if s == 10.0) / max_samples
        assert 0.4 < fast_fraction < 0.6
        # p90 over the full stream is 1000 (half the mass), p25 is 10.
        assert rec.percentile(90) == pytest.approx(1000.0)
        assert rec.percentile(25) == pytest.approx(10.0)

    def test_reservoir_is_deterministic_per_name(self):
        def fill(name):
            rec = LatencyRecorder(name, max_samples=50)
            for value in range(500):
                rec.add(float(value))
            return rec.samples

        assert fill("alpha") == fill("alpha")
        assert fill("alpha") != fill("beta")

    def test_bounded_at_max_samples(self):
        rec = LatencyRecorder("r", max_samples=16)
        for value in range(1_000):
            rec.add(float(value))
        assert len(rec.samples) == 16
        assert rec.count == 1_000

    def test_accumulator_stats_cover_whole_stream(self):
        rec = LatencyRecorder("r", max_samples=4)
        for value in (1.0, 2.0, 3.0, 4.0, 100.0):
            rec.add(value)
        assert rec.maximum == 100.0
        assert rec.mean == pytest.approx(22.0)

    def test_invalid_max_samples_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder("r", max_samples=0)


class TestConvergenceFlags:
    def test_natural_convergence_sets_both_flags(self):
        monitor = WindowedMonitor(tolerance=0.01, min_windows=2)
        monitor.record_window(100.0)
        monitor.record_window(100.2)
        assert monitor.converged
        assert monitor.converged_naturally
        assert not monitor.exhausted
        assert monitor.warning() is None

    def test_window_budget_exhaustion_is_flagged(self):
        monitor = WindowedMonitor(tolerance=0.0001, max_windows=3)
        for value in (1.0, 2.0, 3.0):
            monitor.record_window(value)
        assert monitor.converged          # measurement must stop...
        assert not monitor.converged_naturally  # ...but not silently
        assert monitor.exhausted
        warning = monitor.warning()
        assert warning is not None and "did not converge" in warning

    def test_exhausted_run_that_happens_to_agree_is_natural(self):
        monitor = WindowedMonitor(tolerance=0.01, max_windows=2)
        monitor.record_window(5.0)
        monitor.record_window(5.0)
        assert monitor.converged_naturally
        assert monitor.warning() is None


class TestLatencyHistogram:
    def test_small_values_are_exact(self):
        hist = LatencyHistogram()
        for value in (3.0, 7.0, 7.0, 500.0):
            hist.record(value)
        assert hist.count == 4
        assert hist.percentile(0) == 3.0
        assert hist.percentile(100) == 500.0
        assert hist.percentile(50) == 7.0

    def test_percentiles_match_sorted_reference_within_resolution(self):
        rng = random.Random(42)
        values = [rng.expovariate(1.0 / 5000.0) for _ in range(50_000)]
        hist = LatencyHistogram()
        for value in values:
            hist.record(value)
        ordered = sorted(values)
        for p in (50.0, 95.0, 99.0, 99.9):
            reference = ordered[min(len(ordered) - 1, int(p / 100.0 * len(ordered)))]
            assert hist.percentile(p) == pytest.approx(reference, rel=5e-3)

    def test_covers_whole_stream_unlike_reservoir(self):
        # One outlier in a long stream: the full-stream histogram must see it
        # at p100 and keep p99.9 independent of reservoir sampling noise.
        hist = LatencyHistogram()
        for _ in range(100_000):
            hist.record(100.0)
        hist.record(1_000_000.0)
        assert hist.maximum == 1_000_000.0
        assert hist.percentile(100) == 1_000_000.0
        assert hist.percentile(50) == 100.0

    def test_merge_equals_single_histogram(self):
        rng = random.Random(7)
        values = [rng.uniform(10, 100_000) for _ in range(5_000)]
        combined = LatencyHistogram()
        left, right = LatencyHistogram(), LatencyHistogram()
        for i, value in enumerate(values):
            combined.record(value)
            (left if i % 2 else right).record(value)
        left.merge(right)
        assert left.count == combined.count
        assert left.minimum == combined.minimum
        assert left.maximum == combined.maximum
        for p in (50.0, 99.0, 99.9):
            assert left.percentile(p) == combined.percentile(p)

    def test_merge_rejects_mismatched_resolution(self):
        with pytest.raises(ValueError):
            LatencyHistogram(sub_bucket_bits=10).merge(LatencyHistogram(sub_bucket_bits=8))

    def test_empty_histogram_is_safe(self):
        hist = LatencyHistogram()
        assert hist.percentile(99) == 0.0
        assert hist.mean == 0.0
        assert hist.as_dict()["count"] == 0


class TestLatencyRecorderExactMode:
    def test_exact_mode_uses_full_stream_histogram(self):
        exact = LatencyRecorder("exact-mode-test", max_samples=100, exact=True)
        for value in range(1, 10_001):
            exact.add(float(value))
        # The histogram replaces the reservoir entirely; p99 covers all 10k
        # values even though no samples are retained.
        assert exact.samples == []
        assert exact.count == 10_000
        assert exact.percentile(99) == pytest.approx(9900.0, rel=5e-3)

    def test_summary_labels_percentile_fidelity(self):
        approx = LatencyRecorder("approx-summary")
        exact = LatencyRecorder("exact-summary", exact=True)
        for rec in (approx, exact):
            for value in (10.0, 20.0, 30.0):
                rec.add(value)
        assert approx.summary()["percentile_mode"] == "approximate"
        assert exact.summary()["percentile_mode"] == "exact"
        for key in ("count", "mean", "p50", "p95", "p99", "p99.9"):
            assert key in approx.summary()
            assert key in exact.summary()

    def test_default_recorder_is_unchanged(self):
        rec = LatencyRecorder("default-unchanged")
        assert not rec.exact
        assert rec.histogram is None
        for value in range(1, 101):
            rec.add(float(value))
        # The seed-stable reservoir interpolation of the approximate path.
        assert rec.percentile(50) == pytest.approx(50.5)
