"""Tests of the benchmark itself: exact repeatability, tracing and the reference check.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import cProfile
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import points  # noqa: E402
import run  # noqa: E402


def _round(workload, profiler=None):
    with points.Capture() as capture:
        runs = [points.run_point(point, capture, profiler)
                for point in workload.points(points.REFERENCE_SEED)]
    assert all(r.error is None for r in runs), [r.error for r in runs]
    return {r.name: r for r in runs}


@pytest.mark.parametrize("name", sorted(points.WORKLOADS))
def test_counts_repeat_exactly_across_runs_and_under_tracing(name):
    workload = points.WORKLOADS[name]
    first = _round(workload)
    second = _round(workload)
    traced = _round(workload, cProfile.Profile())
    reference = points.load_reference()[name]["points"]
    for point_name, run_ in first.items():
        for other in (second[point_name], traced[point_name]):
            assert other.counts == run_.counts, point_name
            assert other.outputs == run_.outputs, point_name
        assert run.first_difference(run_.reference_entry(), reference[point_name]) is None


def test_every_reported_layer_has_counts_on_a_workload_that_runs_it():
    counts = {}
    for name in ("lat_zero_load", "rw_open"):
        for run_ in _round(points.WORKLOADS[name]).values():
            for key, value in run_.counts.items():
                counts[key] = counts.get(key, 0) + value
    missing = [key for key in run.LAYER_COUNTS if key not in counts]
    assert not missing


def test_checker_names_the_diverging_point_and_field():
    good = points.PointRun("split/64B", outputs={"mean_cycles": 459.5}, counts={"qp.posts": 10})
    bad = points.PointRun("split/64B", outputs={"mean_cycles": 460.0}, counts={"qp.posts": 10})
    reference = {"split/64B": good.reference_entry()}
    checker = run.Checker()
    checker.check(good, 1, reference)
    checker.check(bad, 1, reference)
    checker.check(points.PointRun("edge/64B", error="WorkloadError: boom"), 1, reference)
    assert checker.attempted == 3
    assert len(checker.failures) == 2
    assert "split/64B" in checker.failures[0] and "outputs.mean_cycles" in checker.failures[0]
    assert "WorkloadError: boom" in checker.failures[1]


def test_execution_counts_may_change_without_failing_the_reference():
    base = points.PointRun("p", counts={"sim.events": 5, "qp.posts": 1})
    faster = points.PointRun("p", counts={"sim.events": 3, "qp.posts": 1})
    assert run.first_difference(faster.reference_entry(), base.reference_entry()) is None
    changed = points.PointRun("p", counts={"sim.events": 5, "qp.posts": 2})
    assert "qp.posts" in run.first_difference(changed.reference_entry(), base.reference_entry())


def test_builtin_time_is_charged_to_the_calling_layer(tmp_path):
    package = tmp_path / "repro" / "sim"
    package.mkdir(parents=True)
    source = package / "busy.py"
    source.write_text(
        "def work():\n"
        "    total = 0\n"
        "    for _ in range(200):\n"
        "        total += len(sorted(range(2000), reverse=True))\n"
        "    return total\n"
    )
    spec = importlib.util.spec_from_file_location("busy_for_layers_test", source)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    profiler = cProfile.Profile()
    profiler.enable()
    module.work()
    profiler.disable()
    owned, total = layers.self_time_by_owner(profiler, str(tmp_path / "repro"), str(BENCH_DIR))
    # sorted() and len() are builtins: their time belongs to the sim layer.
    assert owned["sim"] > 0.9 * total


def _bench(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_traced_runs_repeat_their_counts():
    args = ["--workload", "lat_zero_load", "--seed", "7", "--seconds", "1", "--trace", "1"]
    results = []
    for _ in range(2):
        done = _bench(args, BENCH_DIR.parent)
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert result["metrics"]["numa.self_s"]["value"] > 0
    counts = [{name: metric["value"] for name, metric in result["metrics"].items()
               if not name.endswith("_s") and not name.startswith(("trace.", "sim.us_"))}
              for result in results]
    assert counts[0] == counts[1]


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(["--workload", "lat_zero_load", "--seconds", "1"], tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
