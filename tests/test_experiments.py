"""Tests for the experiment harness (tables/figures regeneration)."""

import json

import pytest

from helpers import small_config

from repro.config import RoutingAlgorithm, SystemConfig
from repro.errors import ExperimentError
from repro.experiments import (
    run_fig6,
    run_fig7,
    run_owned_state_ablation,
    run_routing_ablation,
    run_table1,
    run_table2,
    run_table3,
)
from repro.experiments.base import ExperimentResult, ResultMetadata
from repro.experiments.registry import get_spec, iter_specs, list_specs
from repro.experiments.spec import Parameter, experiment, unregister


class TestResultContainer:
    def test_add_row_and_format(self):
        result = ExperimentResult("X", "desc", headers=["a", "b"])
        result.add_row(1, 2.0)
        result.add_note("note text")
        text = result.format()
        assert "== X ==" in text and "note text" in text

    def test_add_row_rejects_wrong_width(self):
        result = ExperimentResult("X", "desc", headers=["a", "b"])
        with pytest.raises(ExperimentError):
            result.add_row(1)

    def test_column_extraction(self):
        result = ExperimentResult("X", "desc", headers=["a", "b"])
        result.add_row(1, 2)
        result.add_row(3, 4)
        assert result.column("b") == [2, 4]

    def test_unknown_column_error_lists_headers(self):
        result = ExperimentResult("X", "desc", headers=["a", "b"])
        with pytest.raises(ExperimentError, match=r"missing.*'a', 'b'"):
            result.column("missing")

    def test_units_derived_from_headers(self):
        result = ExperimentResult("X", "desc", headers=["Transfer (B)", "Latency (ns)", "Design"])
        assert result.unit("Transfer (B)") == "B"
        assert result.unit("Latency (ns)") == "ns"
        assert result.unit("Design") is None

    def test_json_round_trip(self):
        result = ExperimentResult("X", "desc", headers=["a (ns)", "b"])
        result.add_row(1, "s")
        result.add_row(2.5, "t")
        result.add_note("n")
        result.metadata = ResultMetadata(
            experiment="x", params={"k": [1, 2]}, config_fingerprint="abc",
            wall_time_s=0.25, row_count=2, events={"runs": 2},
        )
        restored = ExperimentResult.from_json(result.to_json())
        assert restored.to_dict() == result.to_dict()
        assert restored.column("a (ns)") == [1, 2.5]
        assert restored.metadata.events == {"runs": 2}

    def test_csv_export(self):
        result = ExperimentResult("X", "desc", headers=["a", "b"])
        result.add_row(1, 2)
        lines = result.to_csv().strip().splitlines()
        assert lines == ["a,b", "1,2"]


class TestSpec:
    def test_every_experiment_has_a_spec(self):
        for name in list_specs():
            spec = get_spec(name)
            assert spec.name == name and callable(spec.runner)

    def test_run_stamps_metadata(self):
        result = get_spec("table1").run()
        assert result.metadata.experiment == "table1"
        assert result.metadata.params == {"hops": 1}
        assert result.metadata.config_fingerprint == SystemConfig.paper_defaults().fingerprint()
        assert result.metadata.row_count == len(result.rows)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ExperimentError, match="no parameter"):
            get_spec("table1").run(bogus=3)

    def test_choice_validation(self):
        with pytest.raises(ExperimentError, match="must be one of"):
            get_spec("fig6").resolve({"design": "numa"})

    def test_type_validation(self):
        with pytest.raises(ExperimentError, match="expects a int"):
            get_spec("fig6").resolve({"hops": "two"})

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_float_rejected(self, text):
        spec = get_spec("fig7")
        with pytest.raises(ExperimentError, match="'measure_cycles' expects a finite float"):
            spec.parse_overrides(["measure_cycles=%s" % text])
        with pytest.raises(ExperimentError, match="'warmup_cycles' expects a finite float"):
            spec.resolve({"warmup_cycles": float(text)})

    def test_parse_overrides_set_syntax(self):
        spec = get_spec("fig6")
        overrides = spec.parse_overrides(["sizes=64,4096", "design=edge", "iterations=2"])
        assert overrides == {"sizes": (64, 4096), "design": "edge", "iterations": 2}

    def test_parse_overrides_bool(self):
        spec = get_spec("table3")
        assert spec.parse_overrides(["simulate=true"]) == {"simulate": True}
        assert spec.parse_overrides(["simulate=0"]) == {"simulate": False}

    def test_malformed_set_rejected(self):
        with pytest.raises(ExperimentError, match="param=value"):
            get_spec("fig6").parse_overrides(["sizes"])

    def test_duplicate_registration_rejected(self):
        def runner(config=None):
            return ExperimentResult("d", "", headers=[])
        try:
            experiment(name="dup-test", title="d", description="")(runner)
            with pytest.raises(ExperimentError, match="already registered"):
                experiment(name="dup-test", title="d", description="")(runner)
        finally:
            unregister("dup-test")

    def test_parameter_parse_repeated(self):
        parameter = Parameter("sizes", int, default=(), repeated=True)
        assert parameter.parse("64,128") == (64, 128)
        assert parameter.parse("64:128", list_separator=":") == (64, 128)
        with pytest.raises(ExperimentError):
            parameter.parse("64,oops")


class TestAnalyticalExperiments:
    def test_table1_totals(self):
        result = run_table1()
        text = result.format()
        assert "710" in text and "395" in text and "79.7%" in text
        totals = [row for row in result.rows if str(row[0]).startswith("Total")]
        assert totals and totals[0][1] == 710 and totals[0][3] == 395

    def test_table2_lists_parameters(self):
        result = run_table2()
        text = result.format()
        assert "MESI" in text and "3D torus" in text.replace("3d", "3D")
        assert any("MESI" in str(row[1]) for row in result.rows)

    def test_table3_rows_cover_all_designs(self):
        result = run_table3()
        designs = result.column("Design")
        assert set(designs) == {"edge", "per_tile", "split", "numa"}
        assert result.column("Analytical cycles") == [710, 445, 447, 395]

    def test_fig5_series_shapes(self):
        result = get_spec("fig5").run()
        assert result.metadata.experiment == "fig5"
        assert result.column("Hops") == list(range(13))
        edge_overhead = result.column("NIedge overhead (%)")
        assert edge_overhead == sorted(edge_overhead, reverse=True)
        split_overhead = result.column("NIsplit overhead (%)")
        # Paper: 28.6% vs 4.7% at six hops, 16.2% vs 2.6% at the torus diameter.
        assert edge_overhead[6] == pytest.approx(28.6, abs=0.5)
        assert split_overhead[6] == pytest.approx(4.7, abs=0.3)
        assert edge_overhead[12] == pytest.approx(16.2, abs=0.5)
        assert split_overhead[12] == pytest.approx(2.6, abs=0.3)


class TestSimulatedExperiments:
    """Scaled-down runs of the simulator-backed experiments."""

    def test_fig6_small_sweep_preserves_design_ordering(self):
        result = run_fig6(config=small_config(), sizes=(64, 4096), iterations=2, warmup=1)
        sizes = result.column("Transfer (B)")
        assert sizes == [64, 4096]
        edge = result.column("NIedge (ns)")
        split = result.column("NIsplit (ns)")
        numa = result.column("NUMA projection (ns)")
        assert edge[0] > split[0] > numa[0]

    def test_fig6_default_columns_keep_paper_order(self):
        result = run_fig6(config=small_config(), sizes=(64,), iterations=1, warmup=0)
        assert list(result.headers) == [
            "Transfer (B)", "NIedge (ns)", "NIsplit (ns)", "NIper-tile (ns)",
            "NUMA projection (ns)",
        ]

    def test_fig9_fingerprint_matches_effective_config(self):
        # Both NOC-Out figures simulate noc_out_defaults() with only the
        # caller's calibration, NI and rack, and stamp that config.
        config = small_config()
        merged = SystemConfig.noc_out_defaults().replace(
            calibration=config.calibration, ni=config.ni, rack=config.rack
        )
        runs = {
            "fig9": dict(sizes=(64,), iterations=1, warmup=0),
            "fig10": dict(design="split", sizes=(64,), warmup_cycles=200, measure_cycles=300),
        }
        for name, params in runs.items():
            result = get_spec(name).run(config=config, **params)
            assert result.metadata.config_fingerprint == merged.fingerprint(), name
            assert result.metadata.config_fingerprint != config.fingerprint(), name

    def test_latency_figures_state_their_hop_count(self):
        for name in ("fig6", "fig9"):
            result = get_spec(name).run(config=small_config(), design="split", hops=2,
                                        sizes=(64,), iterations=1, warmup=0)
            assert "2 network hops per direction" in result.description, name

    def test_fig6_single_design_restricts_columns(self):
        result = run_fig6(config=small_config(), design="edge", sizes=(64,),
                          iterations=1, warmup=0)
        assert list(result.headers) == ["Transfer (B)", "NIedge (ns)", "NUMA projection (ns)"]

    def test_fig7_small_sweep_runs(self):
        result = run_fig7(config=small_config(), sizes=(512,), warmup_cycles=500, measure_cycles=2000)
        assert len(result.rows) == 1
        for header in ("NIedge (GBps)", "NIsplit (GBps)", "NIper-tile (GBps)"):
            assert result.column(header)[0] > 0

    def test_table3_with_simulation_column(self):
        result = run_table3(config=small_config(), simulate=True, iterations=2)
        simulated = result.column("Simulated cycles")
        assert all(value > 0 for value in simulated)

    def test_routing_ablation_covers_requested_policies(self):
        result = run_routing_ablation(
            config=small_config(),
            transfer_bytes=512,
            policies=(RoutingAlgorithm.XY, RoutingAlgorithm.CDR_EXTENDED),
            warmup_cycles=500,
            measure_cycles=1500,
        )
        assert result.column("Routing") == ["xy", "cdr_extended"]
        assert all(value > 0 for value in result.column("Application (GBps)"))

    def test_routing_ablation_accepts_string_policies(self):
        result = run_routing_ablation(
            config=small_config(),
            transfer_bytes=512,
            policies=("xy",),
            warmup_cycles=500,
            measure_cycles=1500,
        )
        assert result.column("Routing") == ["xy"]

    def test_owned_state_ablation_shows_a_penalty(self):
        # Disabling the owned state adds an LLC round trip to every CQ poll
        # of a dirty block, so it can never be faster, on the small chip or
        # on the paper's.
        for config, iterations in ((small_config(), 2), (None, 4)):
            result = run_owned_state_ablation(config=config, iterations=iterations)
            rows = {(row[0], row[1]): row[2] for row in result.rows}
            assert rows[("split", "off")] >= rows[("split", "on")]
            assert rows[("per_tile", "off")] >= rows[("per_tile", "on")]


class TestRegistry:
    def test_every_table_and_figure_is_registered(self):
        names = list_specs()
        for expected in ("table1", "table2", "table3", "fig5", "fig6", "fig7", "fig9", "fig10"):
            assert expected in names

    def test_get_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            get_spec("fig99")

    def test_registry_values_are_callable(self):
        assert all(callable(spec.runner) for spec in iter_specs())

    def test_legacy_runner_attribute_matches_spec(self):
        assert get_spec("fig6").runner is run_fig6
        assert run_fig6.spec is get_spec("fig6")

    def test_fast_experiments_are_analytical(self):
        fast = {spec.name for spec in iter_specs() if spec.fast}
        assert fast == {"table1", "table2", "table3", "fig5"}

    def test_run_experiments_applies_applicable_overrides(self, capsys):
        from repro.cli import main

        assert main(["run", "table1", "table3", "--set", "hops=2",
                     "--set", "simulate=false", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)["entries"]
        params = {entry["request"]["experiment"]: entry["request"]["params"]
                  for entry in entries}
        assert params == {"table1": {"hops": 2}, "table3": {"hops": 2, "simulate": False}}


class TestRegistryOnlyDesign:
    """A design that only the registry knows runs in every design-swept figure."""

    def test_split_copy_reproduces_split_rows(self):
        from repro.core.split import NISplitDesign
        from repro.scenario.registry import NI_DESIGNS, register_ni_design
        from repro.scenario.spec import ScenarioSpec

        # Registered after repro.experiments was imported, so the figures'
        # design choices must be evaluated late.
        @register_ni_design("split_copy", label="NIsplit-copy", messaging=True)
        class SplitCopyDesign(NISplitDesign):
            """An exact copy of NIsplit under another name."""

        window = dict(warmup_cycles=500.0, measure_cycles=1000.0)
        runs = {
            "fig6": dict(sizes=(64, 1024), iterations=2, warmup=1),
            "fig7": dict(sizes=(256,), **window),
            "routing": dict(transfer_bytes=256, policies=("xy", "cdr"), **window),
        }
        try:
            for name, params in runs.items():
                split = get_spec(name).run(config=small_config(), design="split", **params)
                copy = get_spec(name).run(config=small_config(), design="split_copy", **params)
                assert copy.rows == split.rows, name
                assert [header.replace("NIsplit-copy", "NIsplit") for header in copy.headers] \
                    == split.headers, name
                if name != "routing":
                    assert any("NIsplit-copy" in header for header in copy.headers), name
            table2 = run_table2(ScenarioSpec(design="split_copy").resolve_config())
            assert "design=split_copy" in dict(table2.rows)["NI"]
        finally:
            NI_DESIGNS.unregister("split_copy")
