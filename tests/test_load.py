"""Tests for the open-loop load subsystem (repro.load + load_sweep).

Covers arrival-process determinism (same seed + spec fingerprint =>
identical injection schedules, across runs and parallel campaign workers),
trace replay parsing, the OpenLoopDriver's queueing/drop accounting and
per-tenant breakdowns, the distinct tail behaviour of different arrival
shapes under identical mean load, and the load_sweep experiment's SLO
saturation search.
"""

import json

import pytest

from repro.campaign import Campaign
from repro.campaign.request import RunRequest
from repro.errors import RegistryError, ScenarioError, WorkloadError
from repro.load import (
    BurstyArrivals,
    DeterministicArrivals,
    OpenLoopDriver,
    PoissonArrivals,
    TenantLoad,
    TraceReplayArrivals,
)
from repro.node.soc import ManycoreSoc
from repro.node.traffic import RemoteEndEmulator
from repro.scenario.builder import MachineBuilder
from repro.scenario.registry import ARRIVALS
from repro.scenario.spec import ScenarioSpec
from repro.experiments.registry import get_spec
from helpers import small_config


def build_scenario(**spec_kwargs):
    spec_kwargs.setdefault("design", "split")
    spec_kwargs.setdefault("workload", "kvstore")
    return MachineBuilder(ScenarioSpec(**spec_kwargs)).build()


def run_driver(arrivals="poisson", rate=16.0, seed=1, scenario=None, **kwargs):
    scenario = scenario if scenario is not None else build_scenario()
    kwargs.setdefault("warmup_cycles", 2_000)
    kwargs.setdefault("measure_cycles", 10_000)
    return OpenLoopDriver(scenario, rate, arrivals=arrivals, seed=seed, **kwargs).run()


class TestArrivalRegistry:
    def test_builtins_registered(self):
        assert ARRIVALS.names() == ["bursty", "deterministic", "poisson", "trace"]

    def test_unknown_process_suggests(self):
        with pytest.raises(RegistryError, match="poisson"):
            ARRIVALS.get("poison")

    def test_unknown_parameter_fails_loudly(self):
        with pytest.raises(WorkloadError, match="on_cycles"):
            BurstyArrivals.from_params(1.0, onn_cycles=5)


class TestArrivalDeterminism:
    @pytest.mark.parametrize("cls", [DeterministicArrivals, PoissonArrivals, BurstyArrivals])
    def test_same_seed_same_schedule(self, cls):
        a = cls(4.0, seed=11)
        b = cls(4.0, seed=11)
        assert a.arrival_times(200) == b.arrival_times(200)
        assert a.schedule_fingerprint() == b.schedule_fingerprint()

    @pytest.mark.parametrize("cls", [PoissonArrivals, BurstyArrivals])
    def test_different_seed_different_schedule(self, cls):
        assert (cls(4.0, seed=1).schedule_fingerprint()
                != cls(4.0, seed=2).schedule_fingerprint())

    def test_iterating_twice_restarts_from_seed(self):
        process = PoissonArrivals(8.0, seed=3)
        first = [next(process.gaps()) for _ in range(5)]
        second = [next(process.gaps()) for _ in range(5)]
        assert first == second

    @pytest.mark.parametrize("cls", [DeterministicArrivals, PoissonArrivals, BurstyArrivals])
    def test_mean_rate_is_honoured(self, cls):
        process = cls(10.0, seed=5)  # 10 requests per kcycle
        times = process.arrival_times(4_000)
        measured = len(times) / times[-1] * 1000.0
        assert measured == pytest.approx(10.0, rel=0.15)

    def test_rate_must_be_positive(self):
        with pytest.raises(WorkloadError):
            PoissonArrivals(0.0)


class TestTraceReplay:
    def make_trace(self, tmp_path, records):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        return str(path)

    def test_absolute_times_replayed_and_rescaled(self, tmp_path):
        path = self.make_trace(tmp_path, [{"time": 100.0}, {"time": 150.0}, {"time": 400.0}])
        # Natural mean gap is 400/3 cycles; requesting 7.5/kcycle means a
        # mean gap of 1000/7.5, so the whole schedule scales by exactly 1.0x
        # the ratio while keeping the burst structure.
        process = TraceReplayArrivals(7.5, path=path)
        times = process.arrival_times(3)
        assert times[-1] == pytest.approx(3 * 1000.0 / 7.5)
        gaps = [times[0], times[1] - times[0], times[2] - times[1]]
        assert gaps[1] / gaps[0] == pytest.approx(50.0 / 100.0)

    def test_gap_records_and_looping(self, tmp_path):
        path = self.make_trace(tmp_path, [{"gap": 10.0}, {"gap": 30.0}])
        process = TraceReplayArrivals(50.0, path=path)  # mean gap 20 cycles
        times = process.arrival_times(4)
        assert times == pytest.approx([10.0, 40.0, 50.0, 80.0])

    def test_non_looping_trace_ends(self, tmp_path):
        path = self.make_trace(tmp_path, [{"gap": 10.0}, {"gap": 10.0}])
        process = TraceReplayArrivals(100.0, path=path, loop=False)
        assert len(list(process.gaps())) == 2

    def test_mixed_records_rejected(self, tmp_path):
        path = self.make_trace(tmp_path, [{"time": 5.0}, {"gap": 2.0}])
        with pytest.raises(WorkloadError, match="mixes"):
            TraceReplayArrivals(1.0, path=path)

    def test_decreasing_times_rejected(self, tmp_path):
        path = self.make_trace(tmp_path, [{"time": 5.0}, {"time": 2.0}])
        with pytest.raises(WorkloadError, match="non-decreasing"):
            TraceReplayArrivals(1.0, path=path)

    def test_missing_path_rejected(self):
        with pytest.raises(WorkloadError, match="path"):
            TraceReplayArrivals(1.0)


class TestScenarioSpecArrivals:
    def test_arrival_fields_round_trip(self):
        spec = ScenarioSpec(workload="kvstore", arrivals="bursty",
                            arrival_params={"on_cycles": 500.0})
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()

    def test_closed_loop_spec_serializes_as_before(self):
        # Specs without an arrival process must keep their pre-load-subsystem
        # dict shape (and therefore fingerprints / cached results).
        document = ScenarioSpec(workload="kvstore").to_dict()
        assert "arrivals" not in document
        assert "arrival_params" not in document

    def test_arrival_fields_are_fingerprinted(self):
        base = ScenarioSpec(workload="kvstore", arrivals="bursty")
        assert base.fingerprint() != ScenarioSpec(workload="kvstore").fingerprint()
        assert base.fingerprint() != base.replace(arrivals="poisson").fingerprint()
        assert base.fingerprint() != base.replace(
            arrival_params={"on_cycles": 500.0}).fingerprint()

    def test_unknown_arrivals_name_rejected(self):
        with pytest.raises(RegistryError, match="poisson"):
            ScenarioSpec(arrivals="poison")

    def test_arrival_params_without_process_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(arrival_params={"on_cycles": 5})


class TestRemoteEndEmulatorValidation:
    def test_rate_matching_without_region_fails_at_construction(self):
        soc = ManycoreSoc(small_config())
        with pytest.raises(WorkloadError, match="incoming_region_bytes"):
            RemoteEndEmulator(soc, rate_match_incoming=True)

    def test_non_positive_region_rejected(self):
        soc = ManycoreSoc(small_config())
        with pytest.raises(WorkloadError, match="positive"):
            RemoteEndEmulator(soc, rate_match_incoming=True, incoming_region_bytes=0)

    def test_no_rate_matching_needs_no_region(self):
        soc = ManycoreSoc(small_config())
        RemoteEndEmulator(soc, rate_match_incoming=False)


class TestOpenLoopDriver:
    def test_runs_and_reports_exact_tails(self):
        result = run_driver(rate=8.0)
        assert result.completed > 0
        assert result.dropped == 0
        latency = result.latency_cycles
        # The histogram also covers in-window completions of requests fed
        # just before the window (legitimate steady-state samples), while
        # `completed` attributes throughput to window-fed requests only.
        assert latency["count"] >= result.completed
        assert latency["p50"] <= latency["p95"] <= latency["p99"] <= latency["p99.9"]
        assert result.achieved_per_kcycle == pytest.approx(8.0, rel=0.4)

    def test_achieved_throughput_never_exceeds_injected(self):
        # Warm-up carryover completions must not be attributed to the window.
        for rate in (5.0, 20.0, 60.0):
            result = run_driver("poisson", rate=rate)
            assert result.completed <= result.injected
            assert result.achieved_per_kcycle <= result.injected_per_kcycle + 1e-9

    def test_deterministic_across_runs(self):
        first = run_driver(rate=16.0, seed=9)
        second = run_driver(rate=16.0, seed=9)
        assert first.to_dict() == second.to_dict()

    def test_seed_changes_schedule(self):
        assert (run_driver(rate=16.0, seed=1).to_dict()
                != run_driver(rate=16.0, seed=2).to_dict())

    def test_arrival_shape_changes_tail_not_mean_load(self):
        deterministic = run_driver("deterministic", rate=16.0)
        poisson = run_driver("poisson", rate=16.0)
        bursty = run_driver("bursty", rate=16.0)
        # Identical mean offered load...
        for result in (deterministic, poisson, bursty):
            assert result.rate_per_kcycle == 16.0
        # ...but increasingly heavy tails.
        assert poisson.latency_cycles["p99"] > deterministic.latency_cycles["p99"]
        assert bursty.latency_cycles["p99"] > poisson.latency_cycles["p99"]

    def test_overload_drops_and_accounts(self):
        result = run_driver(rate=200.0, queue_depth=4)
        assert result.dropped > 0
        assert 0.0 < result.drop_fraction < 1.0
        assert result.mean_queue_depth > 0.0
        # Every arrival is either fed to a core (injected) or dropped, and
        # only fed requests can complete.
        assert result.arrived == result.injected + result.dropped
        assert result.injected >= result.completed

    def test_queue_depth_bounds_backlog(self):
        result = run_driver(rate=200.0, queue_depth=2)
        scenario_cores = 8  # kvstore default active_cores
        assert result.final_backlog <= 2 * scenario_cores

    def test_multi_tenant_breakdown(self):
        result = run_driver(
            rate=16.0,
            tenants=[TenantLoad("batch", weight=3.0, arrivals="bursty"),
                     TenantLoad("interactive", weight=1.0)],
        )
        assert set(result.tenants) == {"batch", "interactive"}
        batch, interactive = result.tenants["batch"], result.tenants["interactive"]
        assert batch["cores"] + interactive["cores"] == 8
        assert batch["cores"] > interactive["cores"]
        assert batch["arrivals"] == "bursty"
        assert interactive["arrivals"] == "poisson"
        total = sum(t["completed"] for t in result.tenants.values())
        assert total == result.completed > 0

    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(WorkloadError, match="unique"):
            run_driver(tenants=[TenantLoad("a"), TenantLoad("a")])

    def test_more_tenants_than_cores_rejected(self):
        scenario = build_scenario(workload_params={"active_cores": 1})
        with pytest.raises(WorkloadError, match="tenant"):
            run_driver(scenario=scenario,
                       tenants=[TenantLoad("a"), TenantLoad("b")])

    def test_workload_without_request_stream_rejected(self):
        scenario = build_scenario(workload="graph_traversal")
        with pytest.raises(WorkloadError, match="open-loop"):
            run_driver(scenario=scenario)

    def test_from_spec_uses_spec_arrival_fields(self):
        spec = ScenarioSpec(design="split", workload="kvstore", arrivals="deterministic")
        driver = OpenLoopDriver.from_spec(spec, 8.0, warmup_cycles=1_000,
                                          measure_cycles=4_000)
        assert driver.arrivals == "deterministic"
        assert driver.run().completed > 0


class TestLoadSweepExperiment:
    SMALL = {"loads": (5.0, 40.0), "warmup_cycles": 1_000.0, "measure_cycles": 6_000.0}

    def test_reports_saturation_and_exact_tails(self):
        result = get_spec("load_sweep").run(**self.SMALL)
        assert len(result.rows) == 2
        assert result.metadata.events["requests_completed"] > 0
        slo_column = result.column("SLO ok")
        assert slo_column == [True, False]
        assert any(note.startswith("saturation throughput") for note in result.notes)
        p99 = result.column("p99 (ns)")
        assert p99[1] > p99[0]

    def test_rows_sorted_by_offered_load(self):
        result = get_spec("load_sweep").run(
            loads=(40.0, 5.0), warmup_cycles=1_000.0, measure_cycles=6_000.0)
        assert result.column("Offered (req/kcycle)") == [5.0, 40.0]

    def test_deterministic_across_runs_and_parallel_workers(self):
        request = RunRequest("load_sweep", dict(self.SMALL))
        serial = Campaign([request, request], max_workers=1).run()
        parallel = Campaign([request, request], max_workers=2).run()
        rows = [entry.result.rows for entry in serial.entries + parallel.entries]
        assert rows[0] == rows[1] == rows[2] == rows[3]

    def test_arrival_shape_is_a_sweepable_axis(self):
        spec = get_spec("load_sweep")
        deterministic = spec.run(arrivals="deterministic", **self.SMALL)
        poisson = spec.run(arrivals="poisson", **self.SMALL)
        # Same mean load, distinct tail curves.
        assert (poisson.column("p99 (ns)")[0]
                > deterministic.column("p99 (ns)")[0])

    def test_saturation_never_reached_warns(self):
        result = get_spec("load_sweep").run(
            loads=(2.0, 4.0), warmup_cycles=1_000.0, measure_cycles=6_000.0)
        assert result.column("SLO ok") == [True, True]
        assert any("extend the sweep" in warning for warning in result.metadata.warnings)


class TestReviewRegressions:
    def test_kvstore_open_loop_rejects_single_node_rack(self):
        # With one rack node every key is local: the stream could never
        # yield, so the driver must fail loudly instead of spinning forever.
        scenario = build_scenario(workload_params={"rack_nodes": 1})
        with pytest.raises(WorkloadError, match="rack_nodes"):
            run_driver(scenario=scenario, rate=5.0)

    def test_tenant_arrival_params_without_process_name_are_honoured(self):
        scenario = build_scenario()
        driver = OpenLoopDriver(
            scenario, 16.0, arrivals="bursty",
            arrival_params={"on_cycles": 2000.0},
            tenants=[TenantLoad("batch", arrival_params={"on_cycles": 500.0})],
        )
        process = driver._tenant_process(driver.tenants[0], 1.0)
        assert process.name == "bursty"
        assert process.on_cycles == 500.0

    def test_tenant_with_own_process_gets_its_defaults_not_driver_params(self):
        scenario = build_scenario()
        driver = OpenLoopDriver(
            scenario, 16.0, arrivals="bursty",
            arrival_params={"on_cycles": 2000.0},
            tenants=[TenantLoad("interactive", arrivals="poisson")],
        )
        process = driver._tenant_process(driver.tenants[0], 1.0)
        assert process.name == "poisson"

    def test_zero_completion_point_does_not_poison_slo_baseline(self):
        # The first load point is too sparse to complete anything inside the
        # window; the baseline must come from the next point instead of
        # becoming 0 (which would fail every healthy row).
        result = get_spec("load_sweep").run(
            arrivals="deterministic", loads=(0.005, 5.0),
            warmup_cycles=1_000.0, measure_cycles=6_000.0)
        counts = result.column("Achieved (req/kcycle)")
        assert counts[0] == 0.0
        assert result.column("SLO ok") == [False, True]
        assert any(note.startswith("saturation throughput:") for note in result.notes)

    def test_all_points_empty_warns_about_window(self):
        result = get_spec("load_sweep").run(
            arrivals="deterministic", loads=(0.001, 0.002),
            warmup_cycles=500.0, measure_cycles=2_000.0)
        assert any("lengthen measure_cycles" in warning
                   for warning in result.metadata.warnings)

    def test_finite_trace_fingerprint_truncates_instead_of_raising(self, tmp_path):
        path = tmp_path / "short.jsonl"
        path.write_text('{"gap": 10.0}\n{"gap": 20.0}\n{"gap": 30.0}\n')
        process = TraceReplayArrivals(1.0, path=str(path), loop=False)
        assert len(process.arrival_times(256)) == 3
        assert process.schedule_fingerprint() == process.schedule_fingerprint()

    def test_empty_loads_rejected(self):
        from repro.errors import ExperimentError
        with pytest.raises(ExperimentError, match="load point"):
            get_spec("load_sweep").run(loads=[])

    def test_negative_first_timestamp_rejected(self, tmp_path):
        path = tmp_path / "neg.jsonl"
        path.write_text('{"time": -100.0}\n{"time": 50.0}\n')
        with pytest.raises(WorkloadError, match="non-negative"):
            TraceReplayArrivals(1.0, path=str(path))

    def test_from_spec_arrivals_override_drops_spec_params(self):
        # Overriding the process must not leak the spec's (incompatible)
        # arrival params into it.
        spec = ScenarioSpec(design="split", workload="kvstore",
                            arrivals="bursty", arrival_params={"on_cycles": 100.0})
        driver = OpenLoopDriver.from_spec(spec, 8.0, arrivals="poisson",
                                          warmup_cycles=500, measure_cycles=2_000)
        assert driver.arrivals == "poisson"
        assert driver.arrival_params == {}
        assert driver.run().injected > 0

    def test_empty_point_is_not_counted_as_slo_violation(self):
        # A point too sparse to complete anything must neither suppress the
        # extend-the-sweep warning nor count as a violation.
        result = get_spec("load_sweep").run(
            arrivals="deterministic", loads=(0.005, 5.0),
            warmup_cycles=1_000.0, measure_cycles=6_000.0)
        warnings = result.metadata.warnings
        assert any("completed no requests" in warning for warning in warnings)
        assert any("extend the sweep" in warning for warning in warnings)
