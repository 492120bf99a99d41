"""Tests for repro.obs: probes, the stream channel, sampling, and watch.

The two contracts under test, straight from the subsystem's charter:

* **obs disabled** — running any experiment with no active session produces
  byte-identical results to a tree without the subsystem (sampling hooks
  cost one truthiness check and change nothing);
* **obs enabled** — a seeded run's stream is deterministic in *content*:
  re-running, or splitting the same campaign across ``--parallel`` worker
  counts, yields identical sorted streams (only interleaving varies).
"""

import io
import json

import pytest

from repro.campaign import Campaign, RunRequest, expand_grid
from repro.errors import ExperimentError, ObsError, RegistryError
from repro.experiments.registry import get_spec
from repro.obs import hooks
from repro.obs.probes import (
    FaultWindowsProbe,
    HeapHealthProbe,
    ProbeContext,
    QueueDepthProbe,
    RollingTailsProbe,
    TelemetryProbe,
    ThroughputProbe,
)
from repro.obs.sampler import Sampler
from repro.obs.session import DEFAULT_SAMPLE_CYCLES, ObsSession
from repro.obs.stream import (
    STREAM_SCHEMA,
    ObsStream,
    read_stream,
    validate_record,
)
from repro.obs.watch import WatchState, render, watch_command
from repro.scenario.registry import PROBES
from repro.sim.engine import Simulator

ALL_PROBES = ["fault_windows", "heap_health", "queue_depth", "rolling_tails",
              "throughput"]

#: A short but real open-loop sweep, used wherever a stream with actual
#: samples is needed.  Small windows keep each run around a dozen ticks.
SWEEP_PARAMS = {"loads": [5.0, 20.0], "warmup_cycles": 1000.0,
                "measure_cycles": 4000.0}


def _session(tmp_path, name="stream.jsonl", **kwargs):
    path = str(tmp_path / name)
    return ObsSession(ObsStream.open(path), **kwargs), path


class TestProbeRegistry:
    def test_probes_are_the_eighth_registry(self):
        assert PROBES.names() == ALL_PROBES

    def test_lookup_and_resolve(self):
        assert PROBES.get("throughput") is ThroughputProbe
        assert PROBES.resolve("rolling_tails") == "rolling_tails"

    def test_unknown_probe_rejected(self):
        with pytest.raises(RegistryError):
            PROBES.resolve("bogus_probe")

    def test_every_probe_declares_slots(self):
        # REP008 enforces this statically; here we prove it holds at runtime
        # (a slotted instance has no per-instance __dict__).
        for name in PROBES.names():
            probe = PROBES.get(name).from_params()
            assert not hasattr(probe, "__dict__"), name

    def test_from_params_rejects_unknown(self):
        with pytest.raises(ObsError, match="unknown parameter"):
            RollingTailsProbe.from_params(window=10)

    def test_from_params_applies_defaults_and_overrides(self):
        assert RollingTailsProbe.from_params().window_cycles == 500.0
        assert RollingTailsProbe.from_params(window_cycles=250.0).window_cycles == 250.0
        with pytest.raises(ObsError):
            RollingTailsProbe.from_params(window_cycles=0.0)

    def test_base_sample_is_abstract(self):
        class Dummy(TelemetryProbe):
            __slots__ = ()

        with pytest.raises(NotImplementedError):
            Dummy().sample(ProbeContext())


class TestProbeSampling:
    def test_probes_skip_when_source_missing(self):
        empty = ProbeContext()
        assert RollingTailsProbe().sample(empty) is None
        assert ThroughputProbe().sample(empty) is None
        assert QueueDepthProbe().sample(empty) is None
        assert FaultWindowsProbe().sample(empty) is None
        assert HeapHealthProbe().sample(empty) is None

    def test_heap_health_reads_kernel_counters(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        payload = HeapHealthProbe().sample(ProbeContext(sim=sim))
        assert payload == {"pending": 1, "peak_pending": 1, "executed": 0}

    def test_throughput_tracks_deltas(self):
        sim = Simulator()
        probe = ThroughputProbe()
        first = probe.sample(ProbeContext(sim=sim))
        assert first["delta_events"] == 0 and first["packets"] == 0
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        sim.run()
        second = probe.sample(ProbeContext(sim=sim))
        assert second["events"] == 3 and second["delta_events"] == 3

    def test_payloads_are_json_native(self):
        sim = Simulator()
        for probe_cls in (HeapHealthProbe, ThroughputProbe):
            payload = probe_cls().sample(ProbeContext(sim=sim))
            assert json.loads(json.dumps(payload)) == payload


class TestStreamSchema:
    def test_emit_stamps_schema_and_counts(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        stream = ObsStream.open(path)
        stream.emit({"event": "entry_started", "index": 0, "entry": "table1",
                     "fingerprint": "abc"})
        stream.close()
        records = read_stream(path)
        assert stream.records == 1 and len(records) == 1
        assert records[0]["schema"] == STREAM_SCHEMA

    def test_lines_are_compact_sorted_json(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        stream = ObsStream.open(path)
        stream.emit({"event": "explore_round", "round": 1, "proposed": 4,
                     "evaluated": 4})
        stream.close()
        with open(path) as handle:
            line = handle.read().strip()
        record = json.loads(line)
        assert line == json.dumps(record, sort_keys=True, separators=(",", ":"))

    def test_validate_rejects_non_objects_and_unknown_events(self):
        assert validate_record([1, 2]) == ["record is not a JSON object"]
        problems = validate_record({"schema": STREAM_SCHEMA, "event": "nope"})
        assert any("unknown event" in p for p in problems)

    def test_validate_requires_event_fields(self):
        problems = validate_record({"schema": STREAM_SCHEMA, "event": "sample"})
        missing = {p for p in problems if "missing field" in p}
        assert len(missing) == 5  # run, sim, t, probe, data

    def test_validate_type_checks(self):
        base = {"schema": STREAM_SCHEMA, "event": "sample", "run": "r",
                "sim": 0, "t": 10.0, "probe": "throughput", "data": {}}
        assert validate_record(base) == []
        for field, bad, fragment in [
            ("t", "10", "'t' must be sim time"),
            ("t", True, "'t' must be sim time"),
            ("sim", "0", "'sim' must be an integer"),
            ("probe", 3, "'probe' must be a string"),
            ("data", [1], "'data' must be an object"),
        ]:
            record = dict(base)
            record[field] = bad
            assert any(fragment in p for p in validate_record(record)), field

    def test_validate_ok_must_be_boolean(self):
        record = {"schema": STREAM_SCHEMA, "event": "entry_finished",
                  "index": 0, "fingerprint": "abc", "ok": 1}
        assert any("'ok' must be a boolean" in p for p in validate_record(record))

    def test_wall_clock_keys_banned_at_any_depth(self):
        record = {"schema": STREAM_SCHEMA, "event": "sample", "run": "r",
                  "sim": 0, "t": 1.0, "probe": "p",
                  "data": {"nested": [{"wall_s": 0.1}]}}
        problems = validate_record(record)
        assert any("data.nested[0].wall_s" in p for p in problems)
        top = {"schema": STREAM_SCHEMA, "event": "explore_round", "round": 1,
               "proposed": 1, "evaluated": 1, "timestamp": 12345}
        assert any("'timestamp'" in p for p in validate_record(top))

    def test_emit_refuses_invalid_records(self, tmp_path):
        stream = ObsStream.open(str(tmp_path / "s.jsonl"))
        with pytest.raises(ObsError, match="refusing to emit"):
            stream.emit({"event": "sample"})
        assert stream.records == 0
        stream.close()

    @pytest.mark.parametrize("run,sim,t,probe,data", [
        ("r", 0, 12345.0, "throughput", {"events": 7, "delta_events": 0}),
        ("fp-é\"\n", 3, 250, "fault_windows",
         {"active": True, "cascade": {"hits": 1, "triggered_by": "slow_node"},
          "mix": [1.5, None, "s", [2], (3, 4)], "p99": 1e-07}),
        ("r", 1, 0.1, "p", {}),
        # Not plain, but valid: these take the validated path.
        ("r", True, 5.0, "p", {"n": 1}),
        ("r", 0, float("inf"), "p", {"n": 1}),
    ])
    def test_write_sample_writes_the_bytes_emit_writes(self, tmp_path, run, sim, t,
                                                        probe, data):
        fast = ObsStream.open(str(tmp_path / "fast.jsonl"))
        fast.write_sample(run, sim, t, probe, data)
        fast.close()
        slow = ObsStream.open(str(tmp_path / "slow.jsonl"))
        slow.emit({"event": "sample", "run": run, "sim": sim, "t": t, "probe": probe,
                   "data": data})
        slow.close()
        assert fast.records == slow.records == 1
        assert (tmp_path / "fast.jsonl").read_bytes() == (tmp_path / "slow.jsonl").read_bytes()

    @pytest.mark.parametrize("run,sim,t,probe,data", [
        ("r", 0, 1.0, "p", {"nested": [{"wall_s": 0.1}]}),
        ("r", "0", 1.0, "p", {}),
        ("r", 0, True, "p", {}),
        ("r", 0, 1.0, 3, {}),
        ("r", 0, 1.0, "p", [1]),
    ])
    def test_write_sample_refuses_what_emit_refuses(self, tmp_path, run, sim, t, probe,
                                                     data):
        stream = ObsStream.open(str(tmp_path / "s.jsonl"))
        with pytest.raises(ObsError) as fast:
            stream.write_sample(run, sim, t, probe, data)
        with pytest.raises(ObsError) as slow:
            stream.emit({"event": "sample", "run": run, "sim": sim, "t": t, "probe": probe,
                         "data": data})
        stream.close()
        assert str(fast.value) == str(slow.value)
        assert stream.records == 0

    def test_read_stream_reports_bad_json_with_line_number(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as handle:
            handle.write('{"ok": true}\nnot json\n')
        with pytest.raises(ObsError, match=":2:"):
            read_stream(path)

    def test_open_truncates_but_attach_appends(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        record = {"event": "explore_round", "round": 1, "proposed": 1,
                  "evaluated": 1}
        first = ObsStream.open(path)
        first.emit(record)
        first.close()
        attached = ObsStream.attach(path)
        attached.emit(record)
        attached.close()
        assert len(read_stream(path)) == 2
        reopened = ObsStream.open(path)
        reopened.close()
        assert read_stream(path) == []


class TestHooksAndSession:
    def test_no_session_by_default(self):
        assert hooks.active() is None
        assert hooks.register_simulator(object()) is None

    def test_activate_pushes_and_pops(self, tmp_path):
        session, _ = _session(tmp_path)
        assert hooks.active() is None
        with session.activate(run="outer"):
            assert hooks.active() is session
        assert hooks.active() is None
        session.close()

    def test_nested_sessions_innermost_wins(self, tmp_path):
        outer, _ = _session(tmp_path, "a.jsonl")
        inner, _ = _session(tmp_path, "b.jsonl")
        with outer.activate():
            with inner.activate():
                assert hooks.active() is inner
            assert hooks.active() is outer
        outer.close()
        inner.close()

    def test_simulator_indices_restart_per_run(self, tmp_path):
        session, _ = _session(tmp_path)
        session.set_run("first")
        assert [session.register_simulator(object()) for _ in range(3)] == [0, 1, 2]
        session.set_run("second")
        assert session.register_simulator(object()) == 0
        assert session.run_label == "second"
        session.close()

    def test_simulator_self_registers_while_active(self, tmp_path):
        session, _ = _session(tmp_path)
        with session.activate(run="r"):
            assert Simulator()._obs_index == 0
            assert Simulator()._obs_index == 1
        assert Simulator()._obs_index is None
        session.close()

    def test_default_probe_set_and_cadence(self, tmp_path):
        session, _ = _session(tmp_path)
        assert session.probe_names == ALL_PROBES
        assert session.sample_cycles == DEFAULT_SAMPLE_CYCLES
        session.close()

    def test_probe_subset_resolved_and_validated(self, tmp_path):
        session, _ = _session(tmp_path, probes=["throughput"])
        assert session.probe_names == ["throughput"]
        session.close()
        with pytest.raises(RegistryError):
            _session(tmp_path, name="x.jsonl", probes=["bogus"])

    def test_cadence_must_be_positive(self, tmp_path):
        with pytest.raises(ObsError, match="cadence"):
            _session(tmp_path, sample_cycles=0.0)

    def test_worker_spec_round_trip(self, tmp_path):
        session, path = _session(tmp_path, probes=["heap_health"],
                                 sample_cycles=250.0)
        spec = session.worker_spec()
        assert spec == {"path": path, "probes": ["heap_health"],
                        "sample_cycles": 250.0}
        rebuilt = ObsSession.from_worker_spec(spec)
        assert rebuilt.probe_names == ["heap_health"]
        assert rebuilt.sample_cycles == 250.0
        rebuilt.close()
        session.close()

    def test_pathless_sink_has_no_worker_spec(self):
        session = ObsSession(ObsStream(io.StringIO()))
        assert session.worker_spec() is None


class TestSampler:
    def test_sample_now_emits_one_record_per_live_probe(self, tmp_path):
        session, path = _session(tmp_path, probes=["heap_health", "queue_depth"])
        with session.activate(run="r"):
            sim = Simulator()
            # queue_depth has no states here, so only heap_health fires.
            Sampler(session, sim, ProbeContext(sim=sim), horizon=0.0).sample_now()
        session.close()
        records = read_stream(path)
        assert [r["probe"] for r in records] == ["heap_health"]
        assert records[0]["run"] == "r" and records[0]["sim"] == 0

    def test_install_ticks_at_cadence_up_to_horizon(self, tmp_path):
        session, path = _session(tmp_path, probes=["heap_health"],
                                 sample_cycles=10.0)
        with session.activate(run="r"):
            sim = Simulator()
            sampler = Sampler(session, sim, ProbeContext(sim=sim), horizon=35.0)
            sampler.install()
            sim.schedule(100.0, lambda: None)  # keep the run going past it
            sim.run()
        session.close()
        # Ticks at t=10, 20, 30; t=40 would overshoot the horizon.
        assert [r["t"] for r in read_stream(path)] == [10.0, 20.0, 30.0]

    def test_sampler_never_keeps_a_drained_sim_alive(self, tmp_path):
        session, _ = _session(tmp_path, sample_cycles=10.0)
        with session.activate(run="r"):
            sim = Simulator()
            Sampler(session, sim, ProbeContext(sim=sim), horizon=1000.0).install()
            sim.run()  # no other work: must terminate, not tick forever
            assert sim.now <= 1000.0
        session.close()


class TestDriverIntegration:
    def test_load_sweep_stream_has_expected_probes(self, tmp_path):
        session, path = _session(tmp_path)
        with session.activate(run="load_sweep"):
            get_spec("load_sweep").run(**SWEEP_PARAMS)
        session.close()
        records = read_stream(path)
        assert records, "driver produced no samples"
        for record in records:
            assert validate_record(record) == []
        probes_seen = {r["probe"] for r in records}
        # Fault-free run: the sampler installs WindowedTails for
        # rolling_tails, and fault_windows correctly never fires.
        assert {"rolling_tails", "throughput", "queue_depth",
                "heap_health"} <= probes_seen
        assert "fault_windows" not in probes_seen
        assert all(r["run"] == "load_sweep" for r in records)

    def test_chaos_sweep_streams_fault_windows(self, tmp_path):
        session, path = _session(tmp_path, probes=["fault_windows"])
        with session.activate(run="chaos"):
            get_spec("chaos_sweep").run(
                faults="router_degrade", loads=(5.0,), intensities=(0.5,),
                warmup_cycles=1000.0, measure_cycles=4000.0)
        session.close()
        records = read_stream(path)
        assert records and all(r["probe"] == "fault_windows" for r in records)
        assert {r["data"]["model"] for r in records} == {"router_degrade"}

    def test_sample_times_follow_cadence(self, tmp_path):
        session, path = _session(tmp_path, probes=["heap_health"],
                                 sample_cycles=1000.0)
        with session.activate(run="r"):
            get_spec("load_sweep").run(loads=[5.0], warmup_cycles=1000.0,
                                       measure_cycles=3000.0)
        session.close()
        times = [r["t"] for r in read_stream(path)]
        assert times == [1000.0, 2000.0, 3000.0, 4000.0]


class TestObsOffEquivalence:
    """Obs disabled must be byte-identical to obs never having existed."""

    def _run(self, spec_name, obs, tmp_path, **params):
        if not obs:
            result = get_spec(spec_name).run(**params)
        else:
            session, _ = _session(tmp_path, name="eq-%s.jsonl" % spec_name)
            with session.activate(run=spec_name):
                result = get_spec(spec_name).run(**params)
            session.close()
        result.metadata.wall_time_s = 0.0
        result.metadata.perf = {}
        return result

    def _compare(self, tmp_path, spec_name, **params):
        on = self._run(spec_name, True, tmp_path, **params)
        off = self._run(spec_name, False, tmp_path, **params)
        assert on.to_csv() == off.to_csv()
        assert on.format() == off.format()
        assert json.dumps(on.to_dict(), sort_keys=True) == \
            json.dumps(off.to_dict(), sort_keys=True)

    def test_fig6_unperturbed_by_obs(self, tmp_path):
        self._compare(tmp_path, "fig6", sizes=(64, 1024), iterations=2, warmup=1)

    def test_table1_unperturbed_by_obs(self, tmp_path):
        self._compare(tmp_path, "table1")

    def test_load_sweep_unperturbed_by_obs(self, tmp_path):
        self._compare(tmp_path, "load_sweep", **SWEEP_PARAMS)

    def test_fingerprints_unperturbed_by_obs(self, tmp_path):
        on = self._run("load_sweep", True, tmp_path, **SWEEP_PARAMS)
        off = self._run("load_sweep", False, tmp_path, **SWEEP_PARAMS)
        assert on.metadata.config_fingerprint == off.metadata.config_fingerprint


class TestStreamDeterminism:
    def _sorted_stream(self, tmp_path, name, max_workers=1):
        session, path = _session(tmp_path, name)
        requests = expand_grid("load_sweep", {"loads": [[5.0], [20.0]],
                                              "warmup_cycles": [1000.0],
                                              "measure_cycles": [4000.0]})
        Campaign(requests, max_workers=max_workers, obs=session).run()
        session.close()
        with open(path) as handle:
            return sorted(line for line in handle if line.strip())

    def test_rerun_is_identical(self, tmp_path):
        assert self._sorted_stream(tmp_path, "a.jsonl") == \
            self._sorted_stream(tmp_path, "b.jsonl")

    def test_worker_count_only_permutes_the_stream(self, tmp_path):
        inline = self._sorted_stream(tmp_path, "inline.jsonl")
        pooled = self._sorted_stream(tmp_path, "pooled.jsonl", max_workers=2)
        assert inline and inline == pooled


class TestCampaignEvents:
    def test_started_and_finished_pairs(self, tmp_path):
        session, path = _session(tmp_path, probes=["heap_health"])
        requests = expand_grid("table1", {"hops": [1, 2]})
        Campaign(requests, obs=session).run()
        session.close()
        records = read_stream(path)
        events = [r["event"] for r in records]
        assert events.count("entry_started") == 2
        assert events.count("entry_finished") == 2
        finished = [r for r in records if r["event"] == "entry_finished"]
        assert all(r["ok"] for r in finished)
        fingerprints = {r.fingerprint() for r in requests}
        assert {r["fingerprint"] for r in finished} == fingerprints

    def test_cached_entries_emit_entry_cached(self, tmp_path):
        from repro.campaign import ResultCache

        cache = ResultCache()
        request = RunRequest("table1")
        Campaign([request], cache=cache).run()  # warm, unstreamed
        session, path = _session(tmp_path)
        Campaign([request], cache=cache, obs=session).run()
        session.close()
        events = [r["event"] for r in read_stream(path)]
        assert events == ["entry_cached"]

    def test_failed_entry_streams_error_with_fingerprint(self, tmp_path):
        session, path = _session(tmp_path, probes=["heap_health"])
        request = RunRequest("load_sweep", {"measure_cycles": -5.0,
                                            "loads": [5.0],
                                            "warmup_cycles": 100.0})
        Campaign([request], obs=session).run()
        session.close()
        finished = [r for r in read_stream(path)
                    if r["event"] == "entry_finished"]
        assert len(finished) == 1 and finished[0]["ok"] is False
        assert "[config %s]" % request.fingerprint() in finished[0]["error"]

    def test_sample_runs_are_labelled_by_fingerprint(self, tmp_path):
        session, path = _session(tmp_path, probes=["heap_health"])
        request = RunRequest("load_sweep", dict(SWEEP_PARAMS, loads=[5.0]))
        Campaign([request], obs=session).run()
        session.close()
        samples = [r for r in read_stream(path) if r["event"] == "sample"]
        assert samples
        assert {r["run"] for r in samples} == {request.fingerprint()}


class TestExploreEvents:
    def test_explore_streams_rounds_and_points(self, tmp_path):
        from repro.explore import Explorer, build_space

        session, path = _session(tmp_path, probes=["heap_health"])
        space = build_space(
            "load_sweep",
            ["design=edge,split"],
            {"loads": [6.0], "warmup_cycles": 1000.0, "measure_cycles": 2000.0},
        )
        Explorer(space, strategy="grid_screen", objectives=["p99"], seed=3,
                 budget=2, obs=session).run()
        session.close()
        records = read_stream(path)
        for record in records:
            assert validate_record(record) == []
        events = [r["event"] for r in records]
        assert events.count("explore_round") >= 1
        assert events.count("explore_point") == 2
        points = [r for r in records if r["event"] == "explore_point"]
        assert all("objectives" in r and r["fingerprint"] for r in points)


class TestWatch:
    def _sample(self, run="abc", t=100.0, probe="throughput", data=None):
        return {"schema": STREAM_SCHEMA, "event": "sample", "run": run,
                "sim": 0, "t": t, "probe": probe,
                "data": data if data is not None else {}}

    def test_state_folds_entries_and_runs(self):
        state = WatchState()
        state.feed({"schema": STREAM_SCHEMA, "event": "entry_started",
                    "index": 0, "entry": "load_sweep", "fingerprint": "abc"})
        state.feed(self._sample(t=100.0, data={"events": 5, "packets": 10}))
        state.feed(self._sample(t=200.0, data={"events": 9, "packets": 30}))
        state.feed(self._sample(t=200.0, probe="rolling_tails",
                                data={"p99": 42.0}))
        state.feed({"schema": STREAM_SCHEMA, "event": "entry_finished",
                    "index": 0, "fingerprint": "abc", "ok": True})
        assert state.entries[0]["status"] == "ok"
        run = state.runs["abc"]
        assert run["samples"] == 3 and run["t"] == 200.0
        assert run["p99"] == 42.0
        # 20 packets over 100 cycles = 200 per kilocycle.
        assert run["pk_per_kcycle"] == 200.0

    def test_render_contains_the_summary(self):
        state = WatchState()
        state.feed({"schema": STREAM_SCHEMA, "event": "entry_cached",
                    "index": 1, "entry": "table1", "fingerprint": "feed"})
        state.feed({"schema": STREAM_SCHEMA, "event": "explore_round",
                    "round": 0, "proposed": 4, "evaluated": 4})
        text = render(state)
        assert "repro-obs-stream/1: 2 record(s)" in text
        assert "[1] cached  feed table1" in text
        assert "explore: 1 round(s)" in text

    def test_failed_entry_renders_error(self):
        state = WatchState()
        state.feed({"schema": STREAM_SCHEMA, "event": "entry_finished",
                    "index": 0, "fingerprint": "abc", "ok": False,
                    "error": "boom [config abc]"})
        text = render(state)
        assert "failed" in text and "error: boom [config abc]" in text

    def test_feed_line_check_collects_problems(self):
        state = WatchState()
        state.feed_line("not json", check=True)
        state.feed_line(json.dumps({"schema": "wrong/9", "event": "sample"}),
                        check=True)
        assert len(state.invalid) >= 2
        assert state.records == 0

    def test_watch_command_ok_stream(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        stream = ObsStream.open(path)
        stream.emit({"event": "sample", "run": "r", "sim": 0, "t": 5.0,
                     "probe": "heap_health", "data": {"pending": 1}})
        stream.close()
        out = io.StringIO()
        assert watch_command(path, check=True, out=out) == 0
        assert "1 record(s)" in out.getvalue()

    def test_watch_command_flags_invalid_lines(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as handle:
            handle.write('{"schema": "repro-obs-stream/1", "event": "nope"}\n')
        out = io.StringIO()
        assert watch_command(path, check=True, out=out) == 1
        assert "INVALID records: 1" in out.getvalue()

    def test_watch_without_check_tolerates_schema_drift(self, tmp_path):
        # No --check: unparseable JSON still fails, schema problems do not.
        path = str(tmp_path / "drift.jsonl")
        with open(path, "w") as handle:
            handle.write('{"schema": "repro-obs-stream/99", "event": "sample"}\n')
        out = io.StringIO()
        assert watch_command(path, check=False, out=out) == 0


class TestCli:
    def test_list_probes(self, capsys):
        from repro.cli import main

        assert main(["list", "--probes"]) == 0
        output = capsys.readouterr().out
        for name in ALL_PROBES:
            assert name in output

    def test_json_catalog_includes_probes(self, capsys):
        from repro.cli import main

        assert main(["list", "--json"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        names = [item["name"] for item in catalog["registries"]["probes"]]
        assert names == ALL_PROBES

    def test_probes_flag_requires_stream(self, capsys):
        from repro.cli import main

        assert main(["run", "table1", "--probes", "heap_health"]) == 2
        assert "require --stream" in capsys.readouterr().err

    def test_run_with_stream_produces_valid_records(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "cli.jsonl")
        assert main(["run", "load_sweep", "--set", "loads=5",
                     "--set", "warmup_cycles=1000",
                     "--set", "measure_cycles=3000",
                     "--stream", path, "--probes", "heap_health,throughput",
                     "--sample-cycles", "1000"]) == 0
        capsys.readouterr()
        records = read_stream(path)
        assert records
        for record in records:
            assert validate_record(record) == []
        probes_seen = {r["probe"] for r in records if r["event"] == "sample"}
        assert probes_seen == {"heap_health", "throughput"}

    def test_watch_subcommand_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "w.jsonl")
        stream = ObsStream.open(path)
        stream.emit({"event": "entry_started", "index": 0, "entry": "table1",
                     "fingerprint": "abc"})
        stream.emit({"event": "entry_finished", "index": 0,
                     "fingerprint": "abc", "ok": True})
        stream.close()
        assert main(["watch", path, "--check"]) == 0
        output = capsys.readouterr().out
        assert "[0] ok" in output
