"""Tests for the fault-injection subsystem (repro.faults + chaos_sweep).

Covers the FAULT_MODELS registry, the seeded/fingerprinted FaultSchedule,
spec serialization compatibility (fault-free fingerprints unchanged), the
equivalence contract — an *empty* fault schedule is byte-identical to no
fault model at all — the queue-bound vs fault-induced drop split, resilience
metrics, chaos_sweep determinism across reruns and parallel campaign
workers, and the CLI/catalog surfacing.  ``tests/test_golden_outputs.py``
pins the bytes of faulted runs.
"""

import json

import pytest

from helpers import run_driver
from repro.analysis import render_fault_profile
from repro.campaign import Campaign, RunRequest
from repro.errors import FaultError, RegistryError, ScenarioError, WorkloadError
from repro.experiments.registry import get_spec
from repro.faults import (
    FaultCascade,
    FaultInjector,
    FaultSchedule,
    WindowedTails,
    build_fault_injector,
    derive_seed,
    recovery_transient_cycles,
    tail_amplification,
    validate_fault_params,
)
from repro.load import OpenLoopDriver
from repro.scenario.builder import MachineBuilder
from repro.scenario.registry import FAULT_MODELS
from repro.scenario.spec import ScenarioSpec


def build_scenario(**spec_kwargs):
    spec_kwargs.setdefault("design", "split")
    spec_kwargs.setdefault("workload", "kvstore")
    return MachineBuilder(ScenarioSpec(**spec_kwargs)).build()


class TestFaultRegistry:
    def test_builtins_registered(self):
        assert FAULT_MODELS.names() == [
            "directory_corrupt", "link_down", "ni_stall", "packet_loss",
            "router_degrade", "slow_node", "stale_owner_retry",
        ]

    def test_unknown_model_suggests(self):
        with pytest.raises(RegistryError, match="link_down"):
            FAULT_MODELS.get("link_dwn")

    def test_models_declare_param_defaults(self):
        for entry in FAULT_MODELS.entries():
            assert isinstance(dict(entry.component.param_defaults), dict)


class TestFaultSchedule:
    def test_same_seed_same_windows_and_fingerprint(self):
        a = FaultSchedule(seed=7)
        b = FaultSchedule(seed=7)
        assert a.windows(50_000.0) == b.windows(50_000.0)
        assert a.schedule_fingerprint() == b.schedule_fingerprint()

    def test_different_seed_different_fingerprint(self):
        assert (FaultSchedule(seed=1).schedule_fingerprint()
                != FaultSchedule(seed=2).schedule_fingerprint())

    def test_empty_schedule_yields_no_windows(self):
        schedule = FaultSchedule(max_windows=0, seed=3)
        assert schedule.windows(1e9) == []
        assert schedule.windows(None) == []

    def test_horizon_bounds_drawn_windows(self):
        for on, _off in FaultSchedule(seed=5).windows(20_000.0):
            assert on < 20_000.0

    def test_unbounded_schedule_requires_horizon(self):
        with pytest.raises(FaultError, match="horizon"):
            FaultSchedule(seed=1).windows(None)

    def test_max_windows_caps_the_draw(self):
        assert len(FaultSchedule(max_windows=3, seed=1).windows(None)) == 3

    def test_explicit_windows_override_the_draw(self):
        schedule = FaultSchedule(windows=((100.0, 200.0), (500.0, 900.0)))
        assert schedule.windows(None) == [(100.0, 200.0), (500.0, 900.0)]

    def test_overlapping_explicit_windows_rejected(self):
        with pytest.raises(FaultError, match="non-overlapping"):
            FaultSchedule(windows=((100.0, 300.0), (200.0, 400.0)))
        with pytest.raises(FaultError, match="non-overlapping"):
            FaultSchedule(windows=((300.0, 100.0),))

    def test_unknown_parameter_fails_loudly(self):
        with pytest.raises(FaultError, match="mtbf_cycles"):
            FaultSchedule.from_params(mtbf=100.0)

    def test_invalid_rates_rejected(self):
        with pytest.raises(FaultError):
            FaultSchedule(mtbf_cycles=0.0)
        with pytest.raises(FaultError):
            FaultSchedule(start_cycles=-1.0)


class TestFaultModels:
    def test_intensity_must_be_a_fraction(self):
        cls = FAULT_MODELS.get("router_degrade")
        with pytest.raises(FaultError, match="intensity"):
            cls(1.5)
        with pytest.raises(FaultError, match="intensity"):
            cls(-0.1)

    def test_unknown_parameter_lists_accepted(self):
        cls = FAULT_MODELS.get("router_degrade")
        with pytest.raises(FaultError, match="multiplier"):
            cls.from_params(0.5, multiplyer=2.0)

    def test_router_degrade_multiplier_validated(self):
        with pytest.raises(FaultError, match="multiplier"):
            FAULT_MODELS.get("router_degrade").from_params(0.5, multiplier=0.5)

    def test_slow_node_penalty_must_be_a_number_of_cycles(self):
        cls = FAULT_MODELS.get("slow_node")
        for penalty in (-5.0, float("nan")):
            with pytest.raises(FaultError, match="penalty_cycles"):
                cls.from_params(0.5, penalty_cycles=penalty)

    def test_zero_intensity_selects_no_targets(self):
        scenario = build_scenario()
        model = FAULT_MODELS.get("router_degrade").from_params(0.0, seed=1)
        model.bind(scenario.machine, [0, 1, 2, 3])
        assert model.routers == frozenset()

    def test_target_selection_is_seed_deterministic(self):
        scenario = build_scenario()
        picks = []
        for _ in range(2):
            model = FAULT_MODELS.get("link_down").from_params(0.25, seed=9)
            model.bind(scenario.machine, [])
            picks.append(model.routers)
        assert picks[0] == picks[1] != frozenset()

    def test_packet_loss_decisions_are_hash_deterministic(self):
        model = FAULT_MODELS.get("packet_loss").from_params(
            0.3, seed=4, retransmit_cycles=100.0
        )
        first = [model.loss_delay(None, pid) for pid in range(200)]
        second = [model.loss_delay(None, pid) for pid in range(200)]
        assert first == second
        assert 0.0 < sum(1 for d in first if d) < 200


class TestPacketIdsPerFabric:
    """Packets are numbered per fabric, so hashed faults ignore process history."""

    def test_packet_loss_run_ignores_earlier_machines(self):
        params = {"intensity": 0.5, "mtbf_cycles": 1200.0, "mttr_cycles": 600.0}
        first = run_driver(faults="packet_loss", fault_params=params)
        build_scenario().run()  # another machine sends packets in this process
        second = run_driver(faults="packet_loss", fault_params=params)
        assert first.fault_hits > 0
        assert json.dumps(first.to_dict(), sort_keys=True) == \
            json.dumps(second.to_dict(), sort_keys=True)


class TestInjector:
    def test_fingerprint_pins_model_and_schedule(self):
        scenario = build_scenario()
        make = lambda seed: build_fault_injector(
            scenario.machine, "router_degrade", {"intensity": 0.5}, seed=seed
        )
        assert make(1).fingerprint() == make(1).fingerprint()
        assert make(1).fingerprint() != make(2).fingerprint()

    def test_double_install_rejected(self):
        scenario = build_scenario()
        injector = build_fault_injector(
            scenario.machine, "router_degrade", {"max_windows": 1}, seed=1
        )
        injector.install(horizon=10_000.0)
        with pytest.raises(FaultError, match="already installed"):
            injector.install(horizon=10_000.0)

    def test_cancel_detaches_state(self):
        scenario = build_scenario()
        machine = scenario.machine
        injector = build_fault_injector(
            machine, "router_degrade", {"max_windows": 1}, seed=1
        )
        injector.install(horizon=10_000.0)
        assert machine.fabric.faults is injector.state
        assert machine.fault_state is injector.state
        injector.cancel()
        assert machine.fabric.faults is None
        assert machine.fault_state is None

    def test_cancel_disarms_pending_windows(self):
        machine = build_scenario().machine
        injector = build_fault_injector(
            machine, "router_degrade",
            {"windows": ((500.0, 900.0),), "cascade": "slow_node",
             "cascade_probability": 1.0},
            seed=1,
        )
        injector.install(horizon=10_000.0)
        assert injector.windows and injector.cascade_windows
        injector.cancel()
        states = (injector.state.primary, injector.state.cascade)
        seen = []
        machine.sim.schedule_at(700.0, lambda: seen.extend(s.active for s in states))
        # The disarmed toggles stay queued and fire as no-ops.
        machine.sim.run()
        assert machine.sim.now >= 900.0
        assert seen == [False, False]
        assert [(state.active, state.windows) for state in states] == [(False, 0)] * 2

    def test_unknown_fault_param_fails_loudly(self):
        scenario = build_scenario()
        with pytest.raises(FaultError, match="penalty_cycles"):
            build_fault_injector(
                scenario.machine, "slow_node", {"penalty": 10.0}, seed=1
            )

    def test_derive_seed_decorrelates_purposes(self):
        assert derive_seed(1, "model", "link_down") != \
            derive_seed(1, "schedule", "link_down")
        assert derive_seed(1, "model", "link_down") != \
            derive_seed(1, "model", "ni_stall")


class TestSpecSerialization:
    def test_fault_free_spec_serializes_without_fault_keys(self):
        document = ScenarioSpec(workload="kvstore").to_dict()
        assert "faults" not in document
        assert "fault_params" not in document
        # The exact pre-fault key set: fingerprints of existing cached
        # results must not move.
        assert set(document) == {
            "design", "topology", "workload", "workload_params", "config_overrides",
        }

    def test_faulted_spec_round_trips(self):
        spec = ScenarioSpec(
            workload="kvstore", arrivals="poisson",
            faults="router_degrade", fault_params={"intensity": 0.5},
        )
        assert spec == ScenarioSpec.from_dict(spec.to_dict())
        assert spec.to_dict()["faults"] == "router_degrade"

    def test_fault_params_without_model_rejected(self):
        with pytest.raises(ScenarioError, match="fault model"):
            ScenarioSpec(fault_params={"intensity": 0.5})

    def test_unknown_fault_name_suggests(self):
        with pytest.raises(RegistryError, match="router_degrade"):
            ScenarioSpec(faults="router_degrad")

    def test_driver_rejects_params_without_model(self):
        scenario = build_scenario()
        with pytest.raises(WorkloadError, match="fault model"):
            OpenLoopDriver(scenario, 8.0, fault_params={"intensity": 0.5})

    def test_from_spec_inherits_spec_faults(self):
        spec = ScenarioSpec(
            workload="kvstore", faults="ni_stall", fault_params={"intensity": 1.0},
        )
        driver = OpenLoopDriver.from_spec(spec, 8.0)
        assert driver.faults == "ni_stall"
        assert driver.fault_params == {"intensity": 1.0}


def routing(o1turn):
    """The ``run_driver`` routing of a test parametrized over ``o1turn``.

    O1Turn picks each packet's route from its id, where the default extended
    CDR routes by message class: a fault state that disturbed packet
    numbering would move O1Turn packets onto other links.
    """
    return "o1turn" if o1turn else None


class TestNoFaultEquivalence:
    """An installed-but-empty fault schedule must be invisible, under
    class-based routing and under O1Turn."""

    _COMPARED = (
        "arrived", "injected", "completed", "dropped", "final_backlog",
        "mean_queue_depth", "latency_cycles", "tenants",
    )

    @pytest.mark.parametrize("o1turn", [False, True])
    def test_empty_schedule_matches_no_fault_run(self, o1turn):
        baseline = run_driver(routing=routing(o1turn))
        empty = run_driver(
            routing=routing(o1turn),
            faults="router_degrade",
            fault_params={"intensity": 1.0, "max_windows": 0},
        )
        assert empty.fault_windows == 0
        assert empty.fault_hits == 0
        for name in self._COMPARED:
            baseline_value = getattr(baseline, name)
            empty_value = getattr(empty, name)
            if name == "tenants":
                # The faulted result's tenant dicts add the fault keys; the
                # shared keys must match exactly.
                for tenant, stats in baseline_value.items():
                    assert {k: empty_value[tenant][k] for k in stats} == stats
            else:
                assert empty_value == baseline_value, name

    @pytest.mark.parametrize("o1turn", [False, True])
    def test_never_triggered_cascade_matches_no_fault_run(self, o1turn):
        # A configured cascade whose primary schedule realizes no windows
        # can never trigger: the run must be indistinguishable from one
        # with no injector at all (beyond the extra serialized fault keys).
        baseline = run_driver(routing=routing(o1turn))
        cascading = run_driver(
            routing=routing(o1turn),
            faults="router_degrade",
            fault_params={
                "intensity": 1.0, "max_windows": 0,
                "cascade": "slow_node", "cascade_probability": 1.0,
            },
        )
        assert cascading.fault_windows == 0
        assert cascading.fault_hits == 0
        assert cascading.fault_profile["cascade"]["triggered"] == 0
        assert cascading.fault_profile["cascade"]["windows"] == []
        for name in self._COMPARED:
            baseline_value = getattr(baseline, name)
            cascading_value = getattr(cascading, name)
            if name == "tenants":
                for tenant, stats in baseline_value.items():
                    assert {k: cascading_value[tenant][k] for k in stats} == stats
            else:
                assert cascading_value == baseline_value, name

    def test_idle_directory_fault_leaves_split_run_untouched(self):
        # On the split design kvstore cores only touch their local WQ/CQ
        # blocks (every access is an L1 hit), so the directory never acts
        # and a coherence fault model has nothing to perturb: even with an
        # always-open window the run must match the fault-free baseline.
        baseline = run_driver()
        faulted = run_driver(
            faults="directory_corrupt",
            fault_params={"intensity": 1.0, "windows": ((0.0, 1e9),)},
        )
        assert faulted.fault_hits == 0
        assert faulted.fault_profile["directory_retries"] == 0
        for name in self._COMPARED:
            baseline_value = getattr(baseline, name)
            faulted_value = getattr(faulted, name)
            if name == "tenants":
                for tenant, stats in baseline_value.items():
                    assert {k: faulted_value[tenant][k] for k in stats} == stats
            else:
                assert faulted_value == baseline_value, name


class TestFaultCascade:
    PRIMARY = ((1_000.0, 2_000.0), (4_000.0, 5_000.0), (7_000.0, 8_000.0))

    def test_windows_are_seed_deterministic(self):
        a = FaultCascade(probability=0.6, seed=11)
        b = FaultCascade(probability=0.6, seed=11)
        assert a.windows(self.PRIMARY) == b.windows(self.PRIMARY)
        assert a.cascade_fingerprint(self.PRIMARY) == \
            b.cascade_fingerprint(self.PRIMARY)
        assert FaultCascade(probability=0.6, seed=12).cascade_fingerprint(
            self.PRIMARY) != a.cascade_fingerprint(self.PRIMARY)

    def test_zero_probability_triggers_nothing(self):
        cascade = FaultCascade(probability=0.0, seed=3)
        assert cascade.windows(self.PRIMARY) == []

    def test_certain_trigger_fires_after_every_window(self):
        cascade = FaultCascade(
            probability=1.0, delay_cycles=100.0, mttr_cycles=400.0, seed=5
        )
        realized = cascade.windows(self.PRIMARY)
        assert len(realized) == len(self.PRIMARY)
        previous_off = 0.0
        for (primary_on, _), (on, off) in zip(self.PRIMARY, realized):
            assert on >= primary_on + 100.0
            assert on >= previous_off  # clamped non-overlapping
            assert off > on
            previous_off = off

    def test_invalid_cascade_params_rejected(self):
        with pytest.raises(FaultError, match="probability"):
            FaultCascade(probability=1.5)
        with pytest.raises(FaultError, match="delay"):
            FaultCascade(delay_cycles=-1.0)
        with pytest.raises(FaultError, match="MTTR"):
            FaultCascade(mttr_cycles=0.0)

    def test_build_injector_wires_cascade(self):
        scenario = build_scenario()
        make = lambda params: build_fault_injector(
            scenario.machine, "router_degrade", params, seed=1
        )
        plain = make({"intensity": 0.5})
        cascading = make({"intensity": 0.5, "cascade": "slow_node",
                          "cascade_probability": 0.75})
        assert cascading.cascade_model.name == "slow_node"
        assert cascading.cascade.probability == 0.75
        # The cascade spec extends the fingerprint payload.
        assert plain.fingerprint() != cascading.fingerprint()
        assert cascading.fingerprint() == make(
            {"intensity": 0.5, "cascade": "slow_node", "cascade_probability": 0.75}
        ).fingerprint()

    def test_cascade_params_without_model_rejected(self):
        scenario = build_scenario()
        with pytest.raises(FaultError, match="without a 'cascade' model"):
            build_fault_injector(
                scenario.machine, "router_degrade",
                {"intensity": 0.5, "cascade_probability": 0.5}, seed=1,
            )

    def test_cascading_run_reports_profile(self):
        result = run_driver(
            faults="router_degrade",
            fault_params={
                "intensity": 0.5, "windows": ((1_000.0, 2_000.0), (4_000.0, 5_000.0)),
                "cascade": "slow_node", "cascade_probability": 1.0,
                "cascade_delay_cycles": 200.0, "cascade_mttr_cycles": 800.0,
            },
        )
        doc = result.fault_profile["cascade"]
        assert doc["model"] == "slow_node"
        assert doc["probability"] == 1.0
        assert doc["triggered"] == 2
        assert doc["windows"]
        assert doc["fingerprint"]
        # Primary activations plus cascade activations both count.
        assert result.fault_windows > 2

    @pytest.mark.parametrize("o1turn", [False, True])
    def test_cascading_runs_reproduce_exactly(self, o1turn):
        params = {
            "intensity": 0.5, "mtbf_cycles": 1_500.0, "mttr_cycles": 600.0,
            "cascade": "slow_node", "cascade_probability": 0.75,
            "cascade_delay_cycles": 150.0,
        }
        first = run_driver(routing=routing(o1turn),
                           faults="router_degrade", fault_params=params)
        second = run_driver(routing=routing(o1turn),
                            faults="router_degrade", fault_params=params)
        assert json.dumps(first.to_dict(), sort_keys=True) == \
            json.dumps(second.to_dict(), sort_keys=True)

    def test_certain_cascade_after_one_window_triggers_once(self):
        params = {
            "intensity": 0.5, "windows": ((1_000.0, 3_000.0),),
            "cascade": "slow_node", "cascade_probability": 1.0,
            "cascade_delay_cycles": 250.0,
        }
        result = run_driver(faults="router_degrade", fault_params=params)
        assert result.fault_profile["cascade"]["triggered"] == 1


class TestBlastRadius:
    def _bind(self, scenario, name, seed=9, intensity=0.25, **params):
        model = FAULT_MODELS.get(name).from_params(intensity, seed=seed, **params)
        model.bind(scenario.machine, list(range(16)))
        return model

    def test_decay_zero_matches_legacy_uniform_draw(self):
        scenario = build_scenario()
        legacy = self._bind(scenario, "link_down")
        explicit = self._bind(scenario, "link_down", blast_decay=0.0)
        assert legacy.routers == explicit.routers != frozenset()

    def test_blast_targets_cluster_around_epicenter(self):
        scenario = build_scenario()
        hop = scenario.machine.fabric.topology.hop_count
        uniform = self._bind(scenario, "link_down", intensity=0.5)
        blast = self._bind(scenario, "link_down", intensity=0.5,
                           blast_decay=0.05, blast_epicenter=0)
        origin = sorted(scenario.machine.fabric.topology.nodes(), key=repr)[0]
        mean = lambda targets: sum(hop(origin, node) for node in targets) \
            / len(targets)
        assert origin in blast.routers
        assert mean(blast.routers) < mean(uniform.routers)

    @pytest.mark.parametrize("topology", ["mesh", "noc_out", "torus3d"])
    def test_blast_deterministic_across_machine_rebuilds(self, topology):
        picks = []
        for _ in range(2):
            scenario = build_scenario(topology=topology)
            model = self._bind(scenario, "router_degrade",
                               blast_decay=0.4, blast_epicenter=2)
            picks.append(model.routers)
        assert picks[0] == picks[1] != frozenset()

    def test_core_blast_pins_epicenter(self):
        scenario = build_scenario()
        uniform = self._bind(scenario, "slow_node", intensity=0.5)
        blast = self._bind(scenario, "slow_node", intensity=0.5,
                           blast_decay=0.05, blast_epicenter=3)
        assert 3 in blast.cores
        assert blast.cores != uniform.cores

    def test_invalid_decay_rejected(self):
        cls = FAULT_MODELS.get("link_down")
        with pytest.raises(FaultError, match="blast_decay"):
            cls.from_params(0.5, blast_decay=1.5)
        with pytest.raises(FaultError, match="blast_decay"):
            cls.from_params(0.5, blast_decay=-0.1)

    def test_blast_run_perturbs_the_run(self):
        params = {
            "intensity": 0.5, "windows": ((1_000.0, 3_000.0),),
            "blast_decay": 0.6, "blast_epicenter": 2,
        }
        result = run_driver(faults="router_degrade", fault_params=params)
        assert result.fault_hits > 0


class TestFaultEffects:
    def test_ni_stall_splits_drop_accounting(self):
        result = run_driver(
            rate=8.0,
            faults="ni_stall",
            fault_params={"intensity": 1.0, "windows": ((0.0, 1e9),)},
        )
        assert result.fault_dropped == result.arrived > 0
        assert result.dropped == 0
        assert result.injected == 0
        for stats in result.tenants.values():
            assert stats["fault_dropped"] == stats["arrived"]
            assert stats["fault_drop_fraction"] == 1.0
            assert stats["dropped"] == 0

    @pytest.mark.parametrize("model,params", [
        ("router_degrade", {"multiplier": 8.0}),
        ("slow_node", {"penalty_cycles": 200.0}),
        ("link_down", {}),
    ])
    def test_faults_amplify_the_tail(self, model, params):
        # Recover mid-run: a window covering the whole run would let nothing
        # complete under link_down (empty tail instead of an amplified one).
        window = {"windows": ((500.0, 3_000.0),), "intensity": 1.0}
        window.update(params)
        baseline = run_driver(rate=8.0)
        faulted = run_driver(rate=8.0, faults=model, fault_params=window)
        assert faulted.fault_hits > 0
        amplification = tail_amplification(
            faulted.latency_cycles["p99"], baseline.latency_cycles["p99"]
        )
        assert amplification > 1.0

    def test_fault_profile_reports_identity_and_windows(self):
        result = run_driver(
            faults="router_degrade",
            fault_params={"intensity": 0.5, "windows": ((1_000.0, 3_000.0),)},
        )
        profile = result.fault_profile
        assert profile["model"] == "router_degrade"
        assert profile["intensity"] == 0.5
        assert profile["windows"] == [[1_000.0, 3_000.0]]
        assert profile["window_p99"]
        assert result.faults == "router_degrade"
        assert result.to_dict()["fault_profile"]["fingerprint"] == \
            profile["fingerprint"]

    def test_fault_free_result_serializes_without_fault_keys(self):
        document = run_driver().to_dict()
        assert "faults" not in document
        assert "fault_profile" not in document


class TestCoherenceFaults:
    """Directory fault models, driven on the edge design (the only design
    whose kvstore accesses produce remote coherence transactions)."""

    WINDOW = {"windows": ((500.0, 6_000.0),), "intensity": 1.0}

    def test_directory_corrupt_forces_bounded_retries(self):
        baseline = run_driver(design="edge", rate=8.0)
        faulted = run_driver(
            design="edge", rate=8.0,
            faults="directory_corrupt", fault_params=dict(self.WINDOW),
        )
        profile = faulted.fault_profile
        assert profile["directory_retries"] > 0
        assert profile["retry_backoff_cycles"] > 0.0
        # The model only perturbs via the directory hook, so every hit is a
        # forced retry.
        assert faulted.fault_hits == profile["directory_retries"]
        assert tail_amplification(
            faulted.latency_cycles["p99"], baseline.latency_cycles["p99"]
        ) > 1.0

    def test_stale_owner_retry_accounts_exponential_backoff(self):
        flat = run_driver(
            design="edge", rate=8.0,
            faults="directory_corrupt",
            fault_params=dict(self.WINDOW, retry_cycles=20.0, max_retries=3),
        )
        storm = run_driver(
            design="edge", rate=8.0,
            faults="stale_owner_retry",
            fault_params=dict(self.WINDOW, backoff_cycles=20.0, max_retries=3),
        )
        assert storm.fault_profile["directory_retries"] > 0
        # Exponential backoff (20 * 2**attempt) charges more cycles per
        # retry than the flat 20-cycle re-lookup.
        assert storm.fault_profile["retry_backoff_cycles"] / \
            storm.fault_profile["directory_retries"] > \
            flat.fault_profile["retry_backoff_cycles"] / \
            flat.fault_profile["directory_retries"]

    @pytest.mark.parametrize("name,params", [
        ("directory_corrupt", {"retry_cycles": 40.0, "max_retries": 2}),
        ("stale_owner_retry", {"backoff_cycles": 20.0, "max_retries": 3}),
    ])
    def test_retries_stop_at_max_retries(self, name, params):
        model = FAULT_MODELS.get(name).from_params(1.0, seed=4, **params)
        affected = next(addr for addr in range(4096) if model._block_affected(addr))
        limit = params["max_retries"]
        assert all(model.directory_retry(None, affected, attempt) > 0.0
                   for attempt in range(limit))
        assert model.directory_retry(None, affected, limit) == 0.0

    def test_block_selection_is_hash_deterministic(self):
        make = lambda seed: FAULT_MODELS.get("directory_corrupt").from_params(
            0.3, seed=seed
        )
        first = [make(7)._block_affected(addr) for addr in range(512)]
        second = [make(7)._block_affected(addr) for addr in range(512)]
        assert first == second
        assert 0 < sum(first) < 512
        assert [make(8)._block_affected(addr) for addr in range(512)] != first

    def test_invalid_parameters_rejected(self):
        with pytest.raises(FaultError, match="retry_cycles"):
            FAULT_MODELS.get("directory_corrupt").from_params(0.5, retry_cycles=-1.0)
        with pytest.raises(FaultError, match="max_retries"):
            FAULT_MODELS.get("stale_owner_retry").from_params(0.5, max_retries=0)

    def test_directory_corrupt_run_retries(self):
        result = run_driver(design="edge", rate=8.0,
                            faults="directory_corrupt", fault_params=dict(self.WINDOW))
        assert result.fault_profile["directory_retries"] > 0


class TestFaultParamValidation:
    """Unknown fault_params fail at spec-resolution time, with suggestions."""

    def test_spec_rejects_typo_with_suggestion(self):
        with pytest.raises(FaultError, match="did you mean 'penalty_cycles'"):
            ScenarioSpec(
                workload="kvstore", faults="slow_node",
                fault_params={"penalty_cycle": 30.0},
            )

    def test_driver_rejects_typo_before_running(self):
        scenario = build_scenario()
        with pytest.raises(FaultError, match="did you mean 'multiplier'"):
            OpenLoopDriver(
                scenario, 8.0, faults="router_degrade",
                fault_params={"multiplyer": 2.0},
            )

    def test_unknown_cascade_model_suggests(self):
        with pytest.raises(RegistryError, match="slow_node"):
            ScenarioSpec(
                workload="kvstore", faults="router_degrade",
                fault_params={"cascade": "slow_nod"},
            )

    def test_validate_accepts_every_namespace(self):
        assert validate_fault_params("router_degrade", {
            "intensity": 0.5, "mtbf_cycles": 1_000.0, "multiplier": 2.0,
            "blast_decay": 0.3, "cascade": "slow_node",
            "cascade_probability": 0.5, "tail_window_cycles": 250.0,
        }) == "router_degrade"

    def test_validate_lists_accepted_names(self):
        with pytest.raises(FaultError, match="accepted:"):
            validate_fault_params("link_down", {"bogus_knob": 1})


class TestFaultProfileFigure:
    ROWS = [(0.0, 12, 80.0), (500.0, 10, 400.0), (1_000.0, 11, 90.0)]

    def test_marks_fault_and_cascade_overlap(self):
        lines = render_fault_profile(
            self.ROWS, [(600.0, 900.0)], 500.0,
            cascade_windows=[(1_100.0, 1_300.0)],
        )
        assert lines[0].startswith("per-window p99")
        assert lines[1].startswith("         0    |")
        assert lines[2].startswith("       500 *  |")
        assert lines[3].startswith("      1000  + |")
        assert "p99      400.0  n=10" in lines[2]
        # Bars scale to the peak window.
        assert lines[2].count("#") == 32
        assert 0 < lines[1].count("#") < 32

    def test_recovery_transient_footer(self):
        degraded = render_fault_profile(
            self.ROWS, [(600.0, 900.0)], 500.0, baseline_p99=80.0
        )
        assert degraded[-1].startswith("recovery transient: mean")
        never_recovered = render_fault_profile(
            [(0.0, 10, 400.0), (500.0, 10, 400.0)], [(600.0, 900.0)], 500.0,
            baseline_p99=80.0,
        )
        assert never_recovered[-1].startswith("recovery transient: none")

    def test_empty_rows_render_placeholder(self):
        assert render_fault_profile([], [(0.0, 1.0)], 500.0) == \
            ["no completions recorded in any tail window"]

    def test_rendering_is_deterministic(self):
        first = render_fault_profile(self.ROWS, [(600.0, 900.0)], 500.0,
                                     baseline_p99=80.0)
        second = render_fault_profile(self.ROWS, [(600.0, 900.0)], 500.0,
                                      baseline_p99=80.0)
        assert first == second


class TestResilienceMetrics:
    def test_windowed_tails_buckets_by_time(self):
        tails = WindowedTails(100.0)
        tails.record(50.0, 10.0)
        tails.record(150.0, 20.0)
        tails.record(151.0, 30.0)
        rows = tails.window_percentiles(99.0)
        assert [(start, count) for start, count, _ in rows] == [(0.0, 1), (100.0, 2)]
        assert len(tails) == 2

    def test_merged_range_is_boundary_exclusive(self):
        tails = WindowedTails(100.0)
        tails.record(50.0, 10.0)
        tails.record(150.0, 20.0)
        assert tails.merged_range(0.0, 100.0).count == 1
        assert tails.merged_range(0.0, 200.0).count == 2
        assert tails.merged_range(200.0, 100.0).count == 0

    def test_tail_amplification_guards_empty_baseline(self):
        assert tail_amplification(100.0, 0.0) == 0.0
        assert tail_amplification(150.0, 100.0) == 1.5

    def test_recovery_transient_scans_past_recovery(self):
        rows = [(0.0, 10, 50.0), (100.0, 10, 500.0), (200.0, 10, 60.0)]
        transient = recovery_transient_cycles(
            rows, [(80.0, 120.0)], 100.0, baseline_p99=50.0, tolerance=1.5
        )
        # Recovery at 120; the window [100, 200) is still degraded, the
        # window [200, 300) is healthy -> transient to its end: 300 - 120.
        assert transient == pytest.approx(180.0)

    def test_recovery_transient_none_when_never_healthy(self):
        rows = [(0.0, 10, 500.0)]
        assert recovery_transient_cycles(
            rows, [(10.0, 20.0)], 100.0, baseline_p99=50.0
        ) is None
        assert recovery_transient_cycles([], [(10.0, 20.0)], 100.0, 50.0) is None


class TestChaosSweepDeterminism:
    PARAMS = dict(
        loads=(8.0,), intensities=(0.5,), warmup_cycles=1000.0,
        measure_cycles=3000.0, mtbf_cycles=1200.0, mttr_cycles=600.0,
    )

    def _run(self):
        result = get_spec("chaos_sweep").run(**self.PARAMS)
        result.metadata.wall_time_s = 0.0
        result.metadata.perf = {}
        return result

    def test_reruns_are_byte_identical(self):
        first = self._run()
        second = self._run()
        assert first.to_csv() == second.to_csv()
        assert json.dumps(first.to_dict(), sort_keys=True) == \
            json.dumps(second.to_dict(), sort_keys=True)

    def test_fault_counters_surface_in_metadata(self):
        result = get_spec("chaos_sweep").run(**self.PARAMS)
        assert result.metadata.events["requests_completed"] > 0
        assert result.metadata.events["fault_windows"] > 0
        assert result.metadata.perf["fault_windows"] > 0
        assert result.metadata.perf["fault_hits"] > 0

    def test_parallel_campaign_workers_match_serial_run(self):
        request_params = {key: list(value) if isinstance(value, tuple) else value
                          for key, value in self.PARAMS.items()}

        def requests():
            return [
                RunRequest("chaos_sweep", dict(request_params)),
                RunRequest("chaos_sweep", dict(request_params, intensities=[1.0])),
            ]

        serial = Campaign(requests()).run()
        parallel = Campaign(requests(), max_workers=2).run()
        assert serial.succeeded == parallel.succeeded == 2
        for entry_s, entry_p in zip(serial.entries, parallel.entries):
            assert entry_s.result.rows == entry_p.result.rows
            assert entry_s.result.notes == entry_p.result.notes

    # A cascading + blast-targeted configuration, as repeated key=value
    # strings the way the CLI carries fault_params.
    CASCADE_FAULT_PARAMS = [
        "cascade=slow_node", "cascade_probability=0.75",
        "cascade_delay_cycles=150", "blast_decay=0.6",
    ]

    def test_cascade_blast_sweep_reruns_byte_identical(self):
        def run():
            result = get_spec("chaos_sweep").run(
                fault_params=self.CASCADE_FAULT_PARAMS, **self.PARAMS
            )
            result.metadata.wall_time_s = 0.0
            result.metadata.perf = {}
            return result

        first = run()
        second = run()
        assert first.to_csv() == second.to_csv()
        assert json.dumps(first.to_dict(), sort_keys=True) == \
            json.dumps(second.to_dict(), sort_keys=True)
        assert any(note.startswith("fault_profile:") for note in first.notes)

    def test_cascade_blast_parallel_workers_match_serial(self):
        request_params = {key: list(value) if isinstance(value, tuple) else value
                          for key, value in self.PARAMS.items()}
        request_params["fault_params"] = list(self.CASCADE_FAULT_PARAMS)

        def requests():
            return [
                RunRequest("chaos_sweep", dict(request_params)),
                RunRequest("chaos_sweep", dict(request_params, intensities=[1.0])),
            ]

        serial = Campaign(requests()).run()
        parallel = Campaign(requests(), max_workers=2).run()
        assert serial.succeeded == parallel.succeeded == 2
        for entry_s, entry_p in zip(serial.entries, parallel.entries):
            assert entry_s.result.rows == entry_p.result.rows
            # Notes include the rendered fault_profile figure; it must be
            # byte-identical across worker counts.
            assert entry_s.result.notes == entry_p.result.notes
            assert any(note.startswith("fault_profile:")
                       for note in entry_s.result.notes)

    def test_campaign_report_digests_resilience(self):
        report = Campaign([
            RunRequest("chaos_sweep", {
                "loads": [8.0], "intensities": [0.5], "warmup_cycles": 1000.0,
                "measure_cycles": 3000.0, "mtbf_cycles": 1200.0,
                "mttr_cycles": 600.0, "faults": faults,
            })
            for faults in ("router_degrade", "slow_node")
        ]).run()
        assert report.succeeded == 2
        assert len(report.resilience_points) > 1
        assert report.fault_windows > 0
        formatted = report.format()
        assert "resilience:" in formatted
        assert "fault window(s)" in report.summary()


class TestChaosSweepSloWalk:
    """chaos_sweep judges its grid by load_sweep's SLO rule and walk."""

    # Fault-free ladder: load 3 completes nothing, 6 passes, 9 violates and
    # 12 passes again (a non-monotone tail).
    DRIFT = dict(design="edge", arrivals="bursty", loads=(3.0, 6.0, 9.0, 12.0),
                 slo_factor=2.0, warmup_cycles=1000.0, measure_cycles=5000.0)

    def test_saturation_walk_matches_load_sweep(self):
        from repro.explore import OBJECTIVES

        load = get_spec("load_sweep").run(**self.DRIFT)
        chaos = get_spec("chaos_sweep").run(faults="router_degrade",
                                            intensities=(0.5,), **self.DRIFT)
        saturation = OBJECTIVES["saturation"]
        assert saturation.extract(load) == saturation.extract(chaos) == 2.2
        assert any(warning.startswith("fault-free: ") and "non-monotone" in warning
                   for warning in chaos.metadata.warnings)
        # The (3.0, 0.5) cell completed requests below the reference load;
        # it is judged against the grid's one SLO reference, not against none.
        cells = {(row[0], row[1]): row for row in chaos.rows}
        assert cells[3.0, 0.5][chaos.headers.index("SLO ok")] is True

    def test_unmet_baseline_reads_as_zero_saturation(self):
        from repro.explore import OBJECTIVES

        chaos = get_spec("chaos_sweep").run(slo_factor=1.0, loads=(5.0, 20.0), intensities=(0.5,),
                                            warmup_cycles=1000.0, measure_cycles=3000.0)
        assert ("resilience baseline: fault-free saturation not met at any measured load"
                in chaos.notes)
        assert OBJECTIVES["saturation"].extract(chaos) == 0.0


class TestCliSurfacing:
    def test_list_faults_flag(self, capsys):
        from repro.cli import main
        assert main(["list", "--faults"]) == 0
        output = capsys.readouterr().out
        assert "Fault models:" in output
        for name in FAULT_MODELS.names():
            assert name in output
        assert "NI designs:" not in output

    def test_json_catalog_includes_faults(self, capsys):
        from repro.cli import main
        assert main(["list", "--json"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        assert catalog["schema"] == "repro-catalog/1"
        faults = catalog["registries"]["faults"]
        assert [item["name"] for item in faults] == FAULT_MODELS.names()
        by_name = {item["name"]: item for item in faults}
        assert by_name["router_degrade"]["parameters"] == {
            "multiplier": 4.0, "blast_decay": 0.0, "blast_epicenter": -1,
        }
        assert by_name["directory_corrupt"]["parameters"] == {
            "retry_cycles": 40.0, "max_retries": 2,
        }
        assert "chaos_sweep" in [item["name"] for item in catalog["experiments"]]
