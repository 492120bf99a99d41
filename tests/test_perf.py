"""Tests for the simulation-performance instrumentation and its surfacing."""

import pytest

from repro.campaign.report import CampaignEntry, CampaignReport
from repro.campaign.request import RunRequest
from repro.experiments.base import ExperimentResult, ResultMetadata
from repro.experiments.registry import get_spec
from repro.noc.mesh import MeshTopology
from repro.noc.nocout import NocOutTopology
from repro.sim import perf
from repro.sim.engine import Simulator
from repro.workloads.microbench import RemoteReadBandwidthBenchmark

from helpers import small_config


class TestPerfSession:
    def test_session_counts_events_of_enclosed_simulators(self):
        with perf.session() as session:
            sim = Simulator()
            for i in range(5):
                sim.schedule(i + 1, lambda: None)
            sim.run()
        assert session.events == 5
        assert session.wall_s > 0
        assert session.events_per_s > 0
        assert session.peak_pending_events == 5

    def test_session_sums_distinct_event_times_outside_the_summary(self):
        with perf.session() as session:
            for _ in range(2):
                sim = Simulator()
                for delay in (1, 1, 2):
                    sim.schedule(delay, lambda: None)
                sim.run()
        assert (session.events, session.event_times) == (6, 4)
        assert "event_times" not in session.summary()

    def test_simulators_outside_session_are_invisible(self):
        outside = Simulator()
        outside.schedule(1, lambda: None)
        outside.run()
        with perf.session() as session:
            pass
        assert session.events == 0
        assert session.packets == 0

    def test_nested_sessions_both_observe(self):
        with perf.session() as outer:
            with perf.session() as inner:
                sim = Simulator()
                sim.schedule(1, lambda: None)
                sim.run()
        assert inner.events == 1
        assert outer.events == 1

    def test_summary_is_json_native(self):
        with perf.session() as session:
            sim = Simulator()
            sim.schedule(1, lambda: None)
            sim.run()
        summary = session.summary()
        assert set(summary) == {
            "events", "packets", "wall_s", "events_per_s", "packets_per_s",
            "peak_pending_events", "fused_hops", "fast_events",
            "fault_windows", "fault_hits",
        }
        assert all(isinstance(value, float) for value in summary.values())

    def test_fabric_packets_survive_reset_stats(self):
        from repro.config import MessageClass, SystemConfig
        from repro.noc.fabric import NocFabric

        config = SystemConfig.paper_defaults()
        with perf.session() as session:
            sim = Simulator()
            fabric = NocFabric(sim, MeshTopology(4, config.noc), config.noc)
            for i in range(3):
                fabric.send((0, 0), (3, 3), 64, MessageClass.NI_DATA)
                sim.run()
            fabric.reset_stats()
            assert fabric.packets_sent == 0
        assert session.packets == 3


class TestMetadataSurfacing:
    def test_simulated_experiment_gets_perf_metadata(self):
        result = get_spec("fig6").run(sizes=(64,), iterations=1, warmup=0)
        assert result.metadata.perf
        assert result.metadata.perf["events"] > 0
        assert result.metadata.perf["events_per_s"] > 0

    def test_analytical_experiment_has_empty_perf_block(self):
        result = get_spec("table1").run()
        assert result.metadata.perf == {}

    def test_perf_and_warnings_round_trip_through_json(self):
        result = ExperimentResult(
            name="t", description="", headers=["a"], rows=[[1]],
            metadata=ResultMetadata(
                perf={"events": 10.0, "events_per_s": 5.0},
                warnings=["did not converge"],
            ),
        )
        restored = ExperimentResult.from_json(result.to_json())
        assert restored.metadata.perf == {"events": 10.0, "events_per_s": 5.0}
        assert restored.metadata.warnings == ["did not converge"]


class TestConvergencePropagation:
    def test_benchmark_flags_window_budget_exhaustion(self):
        bench = RemoteReadBandwidthBenchmark(
            small_config(),
            warmup_cycles=500,
            measure_cycles=500,
            converge=True,
            tolerance=1e-12,
            max_windows=2,
        )
        run = bench.run(512)
        assert run.measurement_windows == 2
        assert run.converged_naturally is False
        assert run.convergence_warning is not None

    def test_benchmark_converges_with_loose_tolerance(self):
        bench = RemoteReadBandwidthBenchmark(
            small_config(),
            warmup_cycles=2_000,
            measure_cycles=2_000,
            converge=True,
            tolerance=0.5,
            max_windows=8,
        )
        run = bench.run(512)
        assert run.converged_naturally is True
        assert run.convergence_warning is None

    def test_fixed_window_run_has_no_convergence_fields(self):
        bench = RemoteReadBandwidthBenchmark(
            small_config(), warmup_cycles=500, measure_cycles=1_000
        )
        run = bench.run(512)
        assert run.measurement_windows == 0
        assert run.converged_naturally is None
        assert run.convergence_warning is None

    def test_fig7_propagates_warning_into_result_metadata(self):
        result = get_spec("fig7").run(
            design="split",
            sizes=(512,),
            warmup_cycles=500.0,
            measure_cycles=500.0,
            converge=True,
            tolerance=1e-12,
            max_windows=2,
        )
        assert result.metadata.warnings
        assert "did not converge" in result.metadata.warnings[0]


class TestCampaignSurfacing:
    def _entry(self, perf_block=None, warnings=None):
        result = ExperimentResult(
            name="t", description="", headers=["a"], rows=[[1]],
            metadata=ResultMetadata(
                perf=dict(perf_block or {}),
                warnings=list(warnings or []),
            ),
        )
        return CampaignEntry(request=RunRequest("fig6"), result=result)

    def test_summary_includes_simulated_event_rate(self):
        report = CampaignReport(entries=[
            self._entry(perf_block={"events": 1000.0, "wall_s": 0.5}),
            self._entry(perf_block={"events": 500.0, "wall_s": 0.5}),
        ])
        assert report.simulated_events == 1500
        summary = report.summary()
        assert "1500 simulated event(s)" in summary
        assert "1500 events/s" in summary

    def test_summary_without_perf_stays_unchanged(self):
        report = CampaignReport(entries=[self._entry()])
        assert "simulated event(s)" not in report.summary()

    def test_cached_entries_do_not_double_count(self):
        cached = self._entry(perf_block={"events": 1000.0, "wall_s": 0.5})
        cached.cached = True
        report = CampaignReport(entries=[cached])
        assert report.simulated_events == 0

    def test_format_lists_warnings(self):
        report = CampaignReport(entries=[self._entry(warnings=["w1"])])
        formatted = report.format()
        assert "warning: fig6: w1" in formatted


class TestExperimentDeterminismWithCache:
    """fig6/table1 outputs must be byte-identical with the cache bypassed."""

    def _strip_timing(self, result):
        result.metadata.wall_time_s = 0.0
        result.metadata.perf = {}
        return result

    def _run_with_cache_state(self, monkeypatch, disabled, spec_name, **params):
        if disabled:
            monkeypatch.setattr(
                MeshTopology, "route_cache_key", lambda self, *a, **k: None
            )
            monkeypatch.setattr(
                NocOutTopology, "route_cache_key", lambda self, *a, **k: None
            )
        return self._strip_timing(get_spec(spec_name).run(**params))

    def test_fig6_byte_identical_with_and_without_cache(self, monkeypatch):
        params = dict(sizes=(64, 1024), iterations=2, warmup=1)
        with monkeypatch.context() as patch:
            cached = self._run_with_cache_state(patch, False, "fig6", **params)
        with monkeypatch.context() as patch:
            uncached = self._run_with_cache_state(patch, True, "fig6", **params)
        assert cached.to_csv() == uncached.to_csv()
        assert cached.format() == uncached.format()
        assert cached.to_dict() == uncached.to_dict()

    def test_table1_byte_identical_with_and_without_cache(self, monkeypatch):
        with monkeypatch.context() as patch:
            cached = self._run_with_cache_state(patch, False, "table1")
        with monkeypatch.context() as patch:
            uncached = self._run_with_cache_state(patch, True, "table1")
        assert cached.to_csv() == uncached.to_csv()
        assert cached.to_dict() == uncached.to_dict()

    def test_fig7_byte_identical_with_and_without_cache(self, monkeypatch):
        params = dict(
            design="split", sizes=(256,), warmup_cycles=200.0, measure_cycles=400.0
        )
        with monkeypatch.context() as patch:
            cached = self._run_with_cache_state(patch, False, "fig7", **params)
        with monkeypatch.context() as patch:
            uncached = self._run_with_cache_state(patch, True, "fig7", **params)
        assert cached.to_csv() == uncached.to_csv()
        assert cached.to_dict() == uncached.to_dict()
