"""Tests for the command-line interface."""

import json

import pytest

from repro.campaign import load_report, load_results
from repro.cli import build_parser, main
from repro.scenario.registry import REGISTRIES


class TestParser:
    def test_run_collects_experiment_names(self):
        args = build_parser().parse_args(["run", "table1", "fig5"])
        assert args.command == "run" and args.experiments == ["table1", "fig5"]

    def test_sweep_collects_assignments(self):
        args = build_parser().parse_args(
            ["sweep", "fig6", "--set", "design=edge,split", "--parallel", "4"])
        assert args.experiment == "fig6"
        assert args.assignments == ["design=edge,split"] and args.parallel == 4

    def test_subcommand_is_required(self, capsys):
        for argv in (["--list"], ["table1"], ["--fast"], []):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
        capsys.readouterr()


class TestList:
    def test_list_prints_experiment_names(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "table1" in output and "fig7" in output

    def test_list_json_catalog(self, capsys):
        assert main(["list", "--json"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        assert catalog["schema"] == "repro-catalog/1"
        by_name = {item["name"]: item for item in catalog["experiments"]}
        assert by_name["fig6"]["parameters"][0]["choices"] == ["edge", "per_tile", "split"]
        assert by_name["table1"]["fast"] is True

    def test_list_json_registries(self, capsys):
        assert main(["list", "--json"]) == 0
        registries = json.loads(capsys.readouterr().out)["registries"]
        assert len(registries["designs"]) >= 4
        assert len(registries["topologies"]) >= 3
        assert len(registries["workloads"]) >= 5
        designs = {item["name"]: item for item in registries["designs"]}
        assert designs["numa"]["messaging"] is False
        assert designs["split"]["label"] == "NIsplit"
        workloads = {item["name"]: item for item in registries["workloads"]}
        assert "transfer_bytes" in workloads["hotspot"]["parameters"]

    def test_list_registry_flags(self, capsys):
        headings = {key: noun[0].upper() + noun[1:] + ":"
                    for key, _registry, noun, _decorator in REGISTRIES}
        for key, registry, _noun, _decorator in REGISTRIES:
            assert main(["list", "--" + key.replace("_", "-")]) == 0
            output = capsys.readouterr().out
            lines = output.splitlines()
            assert [line for line in lines if line in headings.values()] == [headings[key]]
            listed = [line.split()[0] for line in lines if line.startswith("  ")]
            assert listed and listed == registry.names(), key
            assert "fig6" not in output  # experiments suppressed by the flag
        assert main(["list", "--workloads"]) == 0
        output = capsys.readouterr().out
        assert "Workloads:" in output and "hotspot" in output and "rw_mix" in output

    def test_scenario_run_with_workload_override(self, capsys):
        assert main(["run", "scenario", "--set", "workload=hotspot",
                     "--set", "params=active_cores=2,ops_per_core=4"]) == 0
        output = capsys.readouterr().out
        assert "hotspot@split/mesh" in output
        assert "application_gbps" in output


class TestRun:
    def test_run_named_analytical_experiments(self, capsys):
        assert main(["run", "table1", "table3"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output and "Table 3" in output

    def test_fast_flag_runs_only_analytical_experiments(self, capsys):
        assert main(["run", "--fast"]) == 0
        output = capsys.readouterr().out
        assert "Figure 5" in output and "Figure 7" not in output

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "results.txt"
        assert main(["run", "table1", "--output", str(target)]) == 0
        capsys.readouterr()
        assert "Table 1" in target.read_text()

    def test_set_overrides_apply_to_declaring_experiments(self, capsys):
        assert main(["run", "table1", "table2", "--set", "hops=3", "--json"]) == 0
        report_doc = json.loads(capsys.readouterr().out)
        params = {entry["request"]["experiment"]: entry["request"]["params"]
                  for entry in report_doc["entries"]}
        assert params["table1"] == {"hops": 3}
        assert params["table2"] == {}  # table2 declares no hops parameter

    def test_json_output_round_trips(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        assert main(["run", "table1", "--json", str(target)]) == 0
        results = load_results(str(target))
        assert len(results) == 1 and results[0].name == "Table 1"

    def test_csv_output(self, capsys):
        assert main(["run", "table3", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("experiment,")
        assert any(line.startswith("table3,") for line in lines[1:])

    def test_unknown_experiment_reports_error(self, capsys):
        assert main(["run", "not-an-experiment"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_bad_set_value_reports_error(self, capsys):
        assert main(["run", "table1", "--set", "hops=x"]) == 2
        assert "hops" in capsys.readouterr().err

    def test_set_matching_no_experiment_reports_error(self, capsys):
        assert main(["run", "table1", "--set", "bogus=1"]) == 2
        assert "matches no parameter" in capsys.readouterr().err


class TestSweep:
    def test_sweep_expands_axis(self, tmp_path, capsys):
        target = tmp_path / "sweep.json"
        assert main(["sweep", "table1", "--set", "hops=1,2,3", "--json", str(target)]) == 0
        report = load_report(str(target))
        assert report.succeeded == 3
        assert [entry.request.params["hops"] for entry in report.entries] == [1, 2, 3]

    def test_sweep_results_round_trip(self, tmp_path, capsys):
        target = tmp_path / "sweep.json"
        assert main(["sweep", "table3", "--set", "hops=1,2", "--json", str(target)]) == 0
        results = load_results(str(target))
        assert len(results) == 2
        assert results[0].column("Design") == results[1].column("Design")

    def test_sweep_rejects_unknown_parameter(self, capsys):
        assert main(["sweep", "table1", "--set", "bogus=1"]) == 2
        assert "no parameter" in capsys.readouterr().err


class TestReport:
    def test_report_rerenders_saved_json(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        assert main(["sweep", "table1", "--set", "hops=1,2", "--json", str(target)]) == 0
        capsys.readouterr()
        assert main(["report", str(target)]) == 0
        output = capsys.readouterr().out
        assert output.count("== Table 1 ==") == 2 and "campaign:" in output

    def test_report_missing_file_reports_error(self, capsys):
        assert main(["report", "does-not-exist.json"]) == 2
        assert "cannot read campaign report" in capsys.readouterr().err

    def test_report_csv(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        assert main(["run", "table1", "--json", str(target)]) == 0
        capsys.readouterr()
        assert main(["report", str(target), "--csv"]) == 0
        assert capsys.readouterr().out.startswith("experiment,")

    def test_report_csv_still_honors_output(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        text_target = tmp_path / "report.txt"
        assert main(["run", "table1", "--json", str(target)]) == 0
        capsys.readouterr()
        assert main(["report", str(target), "--csv", "-", "--output", str(text_target)]) == 0
        capsys.readouterr()
        assert "== Table 1 ==" in text_target.read_text()


class TestCacheDir:
    def test_cache_dir_reuses_results_across_invocations(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "table1", "--cache-dir", cache_dir, "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert [entry["cached"] for entry in first["entries"]] == [False]
        assert main(["run", "table1", "--cache-dir", cache_dir, "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert [entry["cached"] for entry in second["entries"]] == [True]
