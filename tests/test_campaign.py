"""Tests for the campaign subsystem (grid expansion, cache, parallel runs)."""

import os
import shutil

import pytest

from repro.campaign import cache as cache_module
from repro.campaign import (
    Campaign,
    CampaignReport,
    ResultCache,
    RunRequest,
    expand_grid,
    load_report,
    load_results,
    parse_sweep_axes,
)
from repro.errors import ExperimentError
from repro.experiments.base import ExperimentResult
from repro.experiments.spec import Parameter, experiment, unregister


@pytest.fixture
def counting_experiment():
    """A throwaway registered experiment that counts its executions."""
    calls = {"count": 0}

    @experiment(
        name="counting-test",
        title="Counting",
        description="test-only experiment",
        parameters=(Parameter("scale", int, default=1),),
    )
    def run_counting(config=None, scale=1):
        calls["count"] += 1
        result = ExperimentResult("Counting", "test", headers=["x", "y"])
        result.add_row(scale, scale * 2)
        return result

    yield calls
    unregister("counting-test")


class TestRunRequest:
    def test_fingerprint_stable_and_param_sensitive(self):
        base = RunRequest("table1")
        assert base.fingerprint() == RunRequest("table1").fingerprint()
        # An override equal to the declared default hashes like no override.
        assert base.fingerprint() == RunRequest("table1", {"hops": 1}).fingerprint()
        assert base.fingerprint() != RunRequest("table1", {"hops": 2}).fingerprint()

    def test_params_normalized_to_json_native(self):
        request = RunRequest("fig6", {"sizes": (64, 128)})
        assert request.params["sizes"] == [64, 128]

    def test_round_trip(self):
        request = RunRequest("fig6", {"design": "edge", "sizes": (64,)})
        assert RunRequest.from_dict(request.to_dict()) == request

    def test_execute_validates(self):
        with pytest.raises(ExperimentError):
            RunRequest("table1", {"bogus": 1}).execute()


class TestGrid:
    def test_expand_grid_cartesian_product(self):
        requests = expand_grid("fig6", {"design": ["edge", "split"], "hops": [1, 2]})
        assert len(requests) == 4
        assert {(r.params["design"], r.params["hops"]) for r in requests} == {
            ("edge", 1), ("edge", 2), ("split", 1), ("split", 2),
        }

    def test_expand_empty_grid_is_single_default_run(self):
        requests = expand_grid("table1", {})
        assert requests == [RunRequest("table1")]

    def test_expand_grid_validates_values(self):
        with pytest.raises(ExperimentError):
            expand_grid("fig6", {"design": ["edge", "bogus"]})
        with pytest.raises(ExperimentError):
            expand_grid("fig6", {"design": []})

    def test_parse_sweep_axes(self):
        axes = parse_sweep_axes("fig6", ["design=edge,split", "sizes=64:128,4096"])
        assert axes["design"] == ["edge", "split"]
        assert axes["sizes"] == [(64, 128), (4096,)]

    def test_parse_sweep_axes_unknown_parameter(self):
        with pytest.raises(ExperimentError, match="no parameter"):
            parse_sweep_axes("fig6", ["bogus=1"])


class TestCache:
    def test_second_identical_run_touches_no_simulator(self, counting_experiment):
        cache = ResultCache()
        requests = [RunRequest("counting-test", {"scale": 3})]
        first = Campaign(requests, cache=cache).run()
        assert counting_experiment["count"] == 1 and first.cache_hits == 0
        second = Campaign(requests, cache=cache).run()
        assert counting_experiment["count"] == 1  # runner not invoked again
        assert second.cache_hits == 1
        assert second.results[0].column("y") == [6]

    def test_different_params_miss(self, counting_experiment):
        cache = ResultCache()
        Campaign([RunRequest("counting-test", {"scale": 1})], cache=cache).run()
        Campaign([RunRequest("counting-test", {"scale": 2})], cache=cache).run()
        assert counting_experiment["count"] == 2

    def test_disk_cache_survives_new_instance(self, counting_experiment, tmp_path):
        directory = str(tmp_path / "cache")
        request = RunRequest("counting-test", {"scale": 5})
        Campaign([request], cache=ResultCache(directory)).run()
        assert counting_experiment["count"] == 1
        report = Campaign([request], cache=ResultCache(directory)).run()
        assert counting_experiment["count"] == 1
        assert report.cache_hits == 1 and report.results[0].column("x") == [5]

    def test_failed_write_keeps_previous_entry(self, counting_experiment, tmp_path,
                                               monkeypatch):
        directory = tmp_path / "cache"
        request = RunRequest("counting-test", {"scale": 5})
        cache = ResultCache(str(directory))
        Campaign([request], cache=cache).run()
        # Entries live under the digest of the model's sources.
        directory = directory / cache_module.source_digest()
        entries = sorted(os.listdir(directory))
        previous = (directory / entries[0]).read_text()
        real_fdopen = os.fdopen

        class HalfWriter:
            """Writes half of the text, then fails like a full disk."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[: len(text) // 2])
                self.handle.flush()
                raise OSError("disk full")

        monkeypatch.setattr(os, "fdopen",
                            lambda fd, *args, **kwargs: HalfWriter(real_fdopen(fd, *args, **kwargs)))
        replacement = ExperimentResult("Counting", "test", headers=["x", "y"])
        replacement.add_row(9, 9)
        with pytest.raises(OSError, match="disk full"):
            cache.put(request, replacement)
        monkeypatch.undo()
        assert sorted(os.listdir(directory)) == entries
        assert (directory / entries[0]).read_text() == previous
        assert ResultCache(str(directory.parent)).get(request).column("x") == [5]

    def test_disk_entries_are_kept_per_model_source_digest(self, counting_experiment, tmp_path,
                                                            monkeypatch):
        directory = str(tmp_path / "cache")
        request = RunRequest("counting-test", {"scale": 5})

        def run_under(digest):
            monkeypatch.setattr(cache_module, "source_digest", lambda: digest)
            return Campaign([request], cache=ResultCache(directory)).run()

        assert run_under("a" * 16).cache_hits == 0
        assert os.listdir(directory) == ["a" * 16]
        assert os.listdir(os.path.join(directory, "a" * 16)) == [
            "%s.json" % request.fingerprint()]
        # Other model code misses and computes again; the same code hits.
        assert run_under("b" * 16).cache_hits == 0
        assert counting_experiment["count"] == 2
        hit = run_under("a" * 16)
        assert hit.cache_hits == 1 and hit.results[0].column("x") == [5]
        assert counting_experiment["count"] == 2

    def test_source_digest_covers_every_byte_of_every_module(self, tmp_path):
        copy = tmp_path / "repro"
        shutil.copytree(cache_module.PACKAGE_DIR, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        digest = cache_module.package_digest(copy)
        assert digest == cache_module.source_digest()
        module = copy / "sim" / "engine.py"
        original = module.read_bytes()
        module.write_bytes(original[:-1] + bytes([original[-1] ^ 1]))
        assert cache_module.package_digest(copy) != digest
        module.write_bytes(original)
        assert cache_module.package_digest(copy) == digest
        (copy / "sim" / "engine_copy.py").write_bytes(original)
        assert cache_module.package_digest(copy) != digest


class TestCampaign:
    def test_sequential_run_collects_results(self):
        report = Campaign([RunRequest("table1"), RunRequest("table3")]).run()
        assert report.succeeded == 2 and report.failed == 0
        assert [r.name for r in report.results] == ["Table 1", "Table 3"]

    def test_unknown_experiment_fails_fast(self):
        with pytest.raises(ExperimentError):
            Campaign([RunRequest("fig99")])

    def test_failure_captured_per_entry(self, counting_experiment):
        # hops=0 is fine for table1, but a bogus param type fails validation
        # at execute() time when the request is built directly.
        report = Campaign([RunRequest("table1", {"hops": 1}),
                           RunRequest("counting-test", {"scale": "x"})]).run()
        assert report.succeeded == 1 and report.failed == 1
        failing = [entry for entry in report.entries if not entry.ok]
        assert "scale" in failing[0].error

    def test_failure_error_includes_config_fingerprint(self):
        # Failed grid points must be identifiable from the report/stream:
        # the error text carries the entry's config fingerprint (or a raw
        # request hash when the request is too malformed to resolve).
        request = RunRequest(
            "load_sweep",
            {"measure_cycles": -5.0, "loads": [5.0], "warmup_cycles": 100.0},
        )
        report = Campaign([request]).run()
        failing = [entry for entry in report.entries if not entry.ok]
        assert len(failing) == 1
        assert "[config %s]" % request.fingerprint() in failing[0].error

    def test_malformed_failure_gets_raw_fingerprint(self, counting_experiment):
        report = Campaign([RunRequest("counting-test", {"scale": "x"})]).run()
        failing = [entry for entry in report.entries if not entry.ok]
        assert "[config raw-" in failing[0].error

    def test_pool_failure_error_matches_inline(self, counting_experiment):
        # Same wording on both paths, so stream contents and reports do not
        # depend on the worker count.
        requests = [
            RunRequest("table1", {"hops": 1}),
            RunRequest(
                "load_sweep",
                {"measure_cycles": -5.0, "loads": [5.0], "warmup_cycles": 100.0},
            ),
        ]
        inline = Campaign(requests).run()
        pooled = Campaign(requests, max_workers=2).run()
        inline_errors = [entry.error for entry in inline.entries if not entry.ok]
        pooled_errors = [entry.error for entry in pooled.entries if not entry.ok]
        assert inline_errors == pooled_errors
        assert inline_errors and "[config " in inline_errors[0]

    def test_parallel_run_over_processes(self):
        requests = expand_grid("table3", {"hops": [1, 2, 3, 4]})
        report = Campaign(requests, max_workers=2).run()
        assert report.succeeded == 4
        hops_totals = {entry.request.params["hops"]: entry.result.column("Analytical cycles")
                       for entry in report.entries}
        # More hops means strictly larger QP-design latency.
        assert hops_totals[2][0] > hops_totals[1][0]

    def test_broken_pool_entry_retried_once(self, monkeypatch, counting_experiment):
        # A BrokenProcessPool (OOM-killed or crashed worker) is transient:
        # the stranded entry is resubmitted exactly once on a fresh pool and
        # the retry is recorded in the result metadata.  Entries that
        # completed in the first round keep their results and stay
        # warning-free.
        import repro.campaign.runner as runner_module
        from concurrent.futures.process import BrokenProcessPool

        pools = []

        class FakePool:
            def __init__(self, max_workers=None):
                self.first_round = not pools
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, request, obs_spec):
                break_this = self.first_round and request.params.get("scale") == 2

                class FakeFuture:
                    def result(self):
                        if break_this:
                            raise BrokenProcessPool("worker died")
                        return fn(request, obs_spec)

                return FakeFuture()

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", FakePool)
        report = Campaign([
            RunRequest("counting-test", {"scale": 1}),
            RunRequest("counting-test", {"scale": 2}),
        ], max_workers=2).run()
        assert report.succeeded == 2 and report.failed == 0
        assert len(pools) == 2  # one retry round on a fresh pool
        survivor, retried = report.entries
        assert survivor.error is None and retried.error is None
        assert survivor.result.metadata.warnings == []
        assert any("retried once" in warning and "BrokenProcessPool" in warning
                   for warning in retried.result.metadata.warnings)

    def test_twice_broken_pool_entry_reports_error(self, monkeypatch,
                                                   counting_experiment):
        # A second worker death on the retry round is the entry's error.
        import repro.campaign.runner as runner_module
        from concurrent.futures.process import BrokenProcessPool

        class AlwaysBrokenPool:
            def __init__(self, max_workers=None):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, request, obs_spec):
                class FakeFuture:
                    def result(self):
                        raise BrokenProcessPool("worker died")

                return FakeFuture()

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", AlwaysBrokenPool)
        report = Campaign([RunRequest("counting-test", {"scale": 3})],
                          max_workers=2).run()
        assert report.failed == 1
        assert "BrokenProcessPool" in report.entries[0].error

    def test_report_json_round_trip(self, tmp_path):
        report = Campaign(expand_grid("table1", {"hops": [1, 2]})).run()
        path = str(tmp_path / "report.json")
        report.write_json(path)
        restored = load_report(path)
        assert restored.to_dict()["entries"] == report.to_dict()["entries"]
        assert [r.name for r in load_results(path)] == ["Table 1", "Table 1"]

    def test_report_csv_merges_param_columns(self):
        report = Campaign(expand_grid("table1", {"hops": [1, 2]})).run()
        lines = report.to_csv().strip().splitlines()
        assert lines[0].startswith("experiment,hops,")
        assert lines[1].startswith("table1,1,")
        assert any(line.startswith("table1,2,") for line in lines)
