"""Tests for the repro.scenario subsystem.

Covers the component registries (decorator registration, duplicate/unknown
handling, resolve normalization), ScenarioSpec serialization/fingerprinting,
MachineBuilder composition for every registered workload, and the
equivalence guarantee: registry-built machines produce byte-identical
results to the direct (pre-refactor) construction path for fig6/table1.
"""

import enum
import json
import os

import pytest

from helpers import small_config

from repro.config import NIDesign, SystemConfig
from repro.errors import (
    ConfigurationError,
    RegistryError,
    ScenarioError,
    WorkloadError,
)
from repro.experiments.spec import get_spec
from repro.node.soc import ManycoreSoc
from repro.numa.machine import NumaMachine
from repro.scenario.builder import MachineBuilder, Scenario, ScenarioResult
from repro.scenario.registry import (
    NI_DESIGNS,
    REGISTRIES,
    TOPOLOGIES,
    WORKLOADS,
    ComponentRegistry,
    register_workload,
)
from repro.scenario.spec import ScenarioSpec
from repro.scenario.workload import Workload
from repro.workloads.hotspot import HotspotReadWorkload
from repro.workloads.microbench import UniformRandomReadWorkload
from repro.workloads.rwmix import ReadWriteMixWorkload

#: Stands in for any caller-side enum: ``resolve`` accepts a string ``.value``.
ChipTopology = enum.Enum("ChipTopology", {"MESH": "mesh", "NOC_OUT": "noc_out"})

SMALL = {"cores.count": 16}


class TestComponentRegistry:
    def test_builtin_inventory(self):
        assert set(NI_DESIGNS.names()) >= {"edge", "per_tile", "split", "numa"}
        assert set(TOPOLOGIES.names()) >= {"mesh", "noc_out", "torus3d"}
        assert set(WORKLOADS.names()) >= {
            "uniform_random", "kvstore", "graph_traversal", "hotspot", "rw_mix",
        }

    def test_metadata_filters(self):
        assert NI_DESIGNS.names(messaging=True) == ["edge", "per_tile", "split"]
        assert "torus3d" not in TOPOLOGIES.names(scope="chip")

    def test_duplicate_registration_fails_loudly(self):
        registry = ComponentRegistry("widget", populate=None)
        registry.register("one")(object())
        with pytest.raises(RegistryError, match="already registered"):
            registry.register("one")(object())

    def test_unknown_lookup_lists_names_and_suggests(self):
        with pytest.raises(RegistryError) as excinfo:
            NI_DESIGNS.get("splt")
        message = str(excinfo.value)
        assert "edge" in message and "per_tile" in message and "split" in message
        assert "did you mean 'split'" in message

    def test_registry_error_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            WORKLOADS.get("no_such_workload")

    def test_resolve_accepts_name_enum_and_component(self):
        assert NI_DESIGNS.resolve("edge") == "edge"
        assert NI_DESIGNS.resolve(NIDesign.EDGE) == "edge"
        assert TOPOLOGIES.resolve(ChipTopology.NOC_OUT) == "noc_out"
        assert WORKLOADS.resolve(HotspotReadWorkload) == "hotspot"
        workload = HotspotReadWorkload(small_config())
        assert WORKLOADS.resolve(workload) == "hotspot"

    def test_resolve_rejects_unknowns(self):
        with pytest.raises(RegistryError):
            TOPOLOGIES.resolve("hypercube")
        with pytest.raises(RegistryError):
            NI_DESIGNS.resolve(42)

    def test_config_coerce_goes_through_registry(self):
        config = SystemConfig.paper_defaults()
        assert config.with_design("per_tile").ni.design == "per_tile"
        with pytest.raises(ConfigurationError, match="did you mean 'per_tile'"):
            config.with_design("per-tile")
        assert config.with_topology(ChipTopology.MESH).noc.topology == "mesh"
        with pytest.raises(ConfigurationError, match="registered"):
            config.with_topology("hypercube")

    def test_registries_table_has_one_row_per_register_function(self):
        from repro.scenario import registry as registry_module

        decorators = sorted(name for name in vars(registry_module) if name.startswith("register_"))
        assert sorted(row[3] for row in REGISTRIES) == decorators
        assert len({row[0] for row in REGISTRIES}) == len(REGISTRIES)
        registries = [value for value in vars(registry_module).values()
                      if isinstance(value, ComponentRegistry)]
        assert sorted(map(id, registries)) == sorted(id(row[1]) for row in REGISTRIES)
        for _key, registry, _noun, decorator in REGISTRIES:
            getattr(registry_module, decorator)("table_row_check")(object())
            try:
                assert "table_row_check" in registry, decorator
            finally:
                registry.unregister("table_row_check")

    def test_unregister_allows_throwaway_plugins(self):
        @register_workload("throwaway_test_workload")
        class Throwaway(UniformRandomReadWorkload):
            name = "throwaway_test_workload"

        try:
            assert "throwaway_test_workload" in WORKLOADS.names()
        finally:
            WORKLOADS.unregister("throwaway_test_workload")
        assert "throwaway_test_workload" not in WORKLOADS.names()


class TestScenarioSpec:
    def test_dict_round_trip(self):
        spec = ScenarioSpec(design="edge", topology="noc_out", workload="kvstore",
                            workload_params={"active_cores": 2},
                            config_overrides={"cores.count": 16})
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_and_fingerprint_stability(self):
        spec = ScenarioSpec(workload="rw_mix",
                            workload_params={"write_fraction": 0.25, "active_cores": 2})
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()
        # Key order in the input must not matter.
        shuffled = ScenarioSpec.from_dict(dict(reversed(list(spec.to_dict().items()))))
        assert shuffled.fingerprint() == spec.fingerprint()

    def test_fingerprint_covers_every_field(self):
        base = ScenarioSpec()
        assert base.fingerprint() != base.replace(design="edge").fingerprint()
        assert base.fingerprint() != base.replace(
            workload_params={"ops_per_core": 4}).fingerprint()
        assert base.fingerprint() != base.replace(
            config_overrides={"cores.count": 16}).fingerprint()

    def test_enum_inputs_are_canonicalized(self):
        spec = ScenarioSpec(design=NIDesign.EDGE, topology=ChipTopology.MESH)
        assert spec.design == "edge" and spec.topology == "mesh"

    def test_unknown_names_fail_with_inventory(self):
        with pytest.raises(RegistryError, match="registered"):
            ScenarioSpec(design="bogus")
        with pytest.raises(RegistryError, match="did you mean"):
            ScenarioSpec(workload="hotspt")

    def test_resolve_config_applies_design_topology_and_overrides(self):
        spec = ScenarioSpec(design="edge", topology="noc_out",
                            config_overrides={"ni.rrpp_count": 4, "memory.latency_ns": 60})
        config = spec.resolve_config()
        assert config.ni.design == "edge"
        assert config.noc.topology == "noc_out"
        assert config.ni.rrpp_count == 4
        assert config.memory.latency_ns == 60.0

    def test_rack_topology_leaves_chip_topology_alone(self):
        config = ScenarioSpec(topology="torus3d").resolve_config()
        assert config.noc.topology == "mesh"

    def test_registry_only_chip_topology_resolves_to_its_raw_name(self):
        from repro.core.placement import _mesh_placement
        from repro.scenario.registry import register_topology

        register_topology("test_ring", scope="chip")(_mesh_placement)
        try:
            config = ScenarioSpec(topology="test_ring").resolve_config()
            assert config.noc.topology == "test_ring"
            # The registry dispatch (not the enum) drives placement, so the
            # machine still builds.
            machine = MachineBuilder(ScenarioSpec(
                topology="test_ring", config_overrides=SMALL)).build_machine()
            assert isinstance(machine, ManycoreSoc)
            assert "test_ring" in config.describe()
        finally:
            TOPOLOGIES.unregister("test_ring")

    def test_bad_override_paths_are_rejected(self):
        with pytest.raises(ScenarioError, match="no field"):
            ScenarioSpec(config_overrides={"cores.freq": 3}).resolve_config()
        with pytest.raises(ScenarioError, match="unknown config section"):
            ScenarioSpec(config_overrides={"gpu.count": 1}).resolve_config()


class TestMachineBuilder:
    def test_resolved_config_matches_legacy_with_design_path(self):
        spec = ScenarioSpec(design="edge")
        legacy = SystemConfig.paper_defaults().with_design("edge")
        assert MachineBuilder(spec).resolve_config().fingerprint() == legacy.fingerprint()

    def test_builder_accepts_raw_dicts(self):
        builder = MachineBuilder({"design": "split", "workload": "hotspot"})
        assert builder.spec.workload == "hotspot"

    def test_numa_design_builds_the_numa_machine(self):
        machine = MachineBuilder(ScenarioSpec(design="numa")).build_machine()
        assert isinstance(machine, NumaMachine)
        assert machine.remote_read_cycles() == 395

    def test_numa_design_cannot_carry_workloads(self):
        with pytest.raises(ScenarioError, match="messaging designs"):
            MachineBuilder(ScenarioSpec(design="numa")).build()

    def test_unknown_workload_param_fails_before_build(self):
        spec = ScenarioSpec(workload="hotspot", workload_params={"op_per_core": 4})
        with pytest.raises(WorkloadError, match="accepted"):
            MachineBuilder(spec).build_workload()

    @pytest.mark.parametrize("workload,params", [
        ("uniform_random", {"active_cores": 2, "ops_per_core": 4}),
        ("kvstore", {"active_cores": 2, "gets_per_core": 4, "rack_nodes": 16}),
        ("graph_traversal", {"active_cores": 2, "max_vertices": 12, "rack_nodes": 16,
                             "graph_vertices": 128, "graph_edges_per_vertex": 4}),
        ("hotspot", {"active_cores": 2, "ops_per_core": 4}),
        ("rw_mix", {"active_cores": 2, "ops_per_core": 4}),
    ])
    def test_every_registered_workload_runs_from_a_spec(self, workload, params):
        spec = ScenarioSpec(workload=workload, workload_params=params,
                            config_overrides=SMALL)
        result = MachineBuilder(spec).run()
        assert isinstance(result, ScenarioResult)
        assert result.scenario_fingerprint == spec.fingerprint()
        assert result.metrics["elapsed_cycles"] > 0
        json.dumps(result.to_dict())  # metrics must be JSON-native

    def test_scenario_object_exposes_machine_and_workload(self):
        scenario = MachineBuilder(ScenarioSpec(
            workload="rw_mix",
            workload_params={"active_cores": 2, "ops_per_core": 4},
            config_overrides=SMALL,
        )).build()
        assert isinstance(scenario, Scenario)
        assert isinstance(scenario.machine, ManycoreSoc)
        assert isinstance(scenario.workload, ReadWriteMixWorkload)
        metrics = scenario.run().metrics
        assert metrics["reads_issued"] + metrics["writes_issued"] == 8


class TestWorkloadProtocol:
    def test_lifecycle_on_externally_built_machine(self):
        config = small_config()
        workload = UniformRandomReadWorkload(config, active_cores=2, ops_per_core=4)
        metrics = workload.run_on(ManycoreSoc(config))
        assert metrics["completed_ops"] == 8

    def test_hotspot_concentrates_load(self):
        config = small_config()
        hot = HotspotReadWorkload(config, active_cores=4, ops_per_core=8, hot_blocks=4)
        uniform = UniformRandomReadWorkload(config, active_cores=4, ops_per_core=8)
        hot_metrics = hot.run_on(ManycoreSoc(config))
        uniform_metrics = uniform.run_on(ManycoreSoc(config))
        # All hotspot offsets fall inside the hot window, which a single
        # RRPP/LLC row serves; mean latency must suffer relative to uniform.
        assert hot_metrics["mean_latency_ns"] > uniform_metrics["mean_latency_ns"]

    def test_rw_mix_issues_both_operation_kinds(self):
        config = small_config()
        workload = ReadWriteMixWorkload(config, active_cores=2, ops_per_core=16,
                                        write_fraction=0.5)
        metrics = workload.run_on(ManycoreSoc(config))
        assert metrics["reads_issued"] > 0 and metrics["writes_issued"] > 0
        assert metrics["completed_ops"] == 32

    def test_write_fraction_extremes(self):
        config = small_config()
        pure_writes = ReadWriteMixWorkload(config, active_cores=1, ops_per_core=4,
                                           write_fraction=1.0)
        metrics = pure_writes.run_on(ManycoreSoc(config))
        assert metrics["writes_issued"] == 4 and metrics["reads_issued"] == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(WorkloadError):
            HotspotReadWorkload(small_config(), hot_blocks=0)
        with pytest.raises(WorkloadError):
            ReadWriteMixWorkload(small_config(), write_fraction=1.5)
        with pytest.raises(WorkloadError):
            UniformRandomReadWorkload(small_config(), ops_per_core=0)


class TestEquivalence:
    """Registry-built machines match the direct construction path exactly."""

    def test_machine_level_byte_identical_metrics(self):
        spec = ScenarioSpec(design="edge", workload="uniform_random",
                            workload_params={"active_cores": 2, "ops_per_core": 4},
                            config_overrides=SMALL)
        builder = MachineBuilder(spec)
        registry_machine = builder.build_machine()
        direct_machine = ManycoreSoc(small_config("edge"))
        assert registry_machine.config.fingerprint() == direct_machine.config.fingerprint()
        via_registry = builder.build_workload().run_on(registry_machine)
        direct = UniformRandomReadWorkload(
            direct_machine.config, active_cores=2, ops_per_core=4).run_on(direct_machine)
        assert json.dumps(via_registry, sort_keys=True) == json.dumps(direct, sort_keys=True)

    def test_fig6_rows_byte_identical(self):
        params = dict(sizes=(64, 4096), iterations=2, warmup=1)
        direct = get_spec("fig6").run(config=small_config(), **params)
        via_spec = get_spec("fig6").run(
            config=MachineBuilder(ScenarioSpec(config_overrides=SMALL)).resolve_config(),
            **params)
        assert json.dumps(direct.rows) == json.dumps(via_spec.rows)
        assert list(direct.headers) == list(via_spec.headers)

    def test_table1_rows_byte_identical(self):
        direct = get_spec("table1").run()
        via_spec = get_spec("table1").run(
            config=MachineBuilder(ScenarioSpec()).resolve_config())
        assert json.dumps(direct.rows) == json.dumps(via_spec.rows)
        assert direct.metadata.config_fingerprint == via_spec.metadata.config_fingerprint


class TestScenarioExperiment:
    def test_scenario_experiment_runs_through_the_campaign_spec(self):
        result = get_spec("scenario").run(
            config=small_config(),
            workload="hotspot",
            params=("active_cores=2", "ops_per_core=4"),
        )
        metrics = dict(zip(result.column("Metric"), result.column("Value")))
        assert metrics["completed_ops"] == 8
        assert result.metadata.params["workload"] == "hotspot"

    def test_scenario_experiment_rejects_unknown_workload(self):
        from repro.errors import ExperimentError
        with pytest.raises(ExperimentError, match="must be one of"):
            get_spec("scenario").run(workload="bogus")

    def test_late_registered_workload_is_runnable_and_listed(self):
        """Choices are late-bound: plugins registered after import still run."""
        @register_workload("late_plugin")
        class LatePlugin(UniformRandomReadWorkload):
            name = "late_plugin"

        try:
            spec = get_spec("scenario")
            assert "late_plugin" in spec.parameter("workload").choice_values()
            result = spec.run(config=small_config(), workload="late_plugin",
                              params=("active_cores=1", "ops_per_core=2"))
            metrics = dict(zip(result.column("Metric"), result.column("Value")))
            assert metrics["completed_ops"] == 2
        finally:
            WORKLOADS.unregister("late_plugin")


class TestRegistryManifest:
    """The checked-in manifest pins the component inventory for CI."""

    MANIFEST = os.path.join(os.path.dirname(__file__), "data", "registry_manifest.json")

    def test_inventory_matches_checked_in_manifest(self):
        from repro.experiments.registry import list_specs

        with open(self.MANIFEST, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        actual = {key: registry.names() for key, registry, _noun, _decorator in REGISTRIES}
        actual["experiments"] = list_specs()
        assert actual == {key: names for key, names in manifest.items() if key != "schema"}, (
            "component inventory drifted from tests/data/registry_manifest.json; "
            "update the manifest if the change is intentional"
        )
