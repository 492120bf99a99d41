"""Lookahead hop fusion must be behaviourally invisible.

The hard requirement of the fused fast path: every figure, table, scenario
and load sweep produces byte-identical output whether fusion is enabled or
force-disabled (``REPRO_HOP_FUSION=0``), and the *number of hops fused* is
itself deterministic — pinned across repeated runs and across ``--parallel``
campaign workers, so performance counters can be compared between machines
and runs.
"""

import json

from repro.campaign import Campaign, RunRequest
from repro.experiments.registry import get_spec


def _strip_timing(result):
    """Wall-clock and throughput metadata legitimately differ run to run."""
    result.metadata.wall_time_s = 0.0
    result.metadata.perf = {}
    return result


def _run(monkeypatch, fusion, spec_name, **params):
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_HOP_FUSION", "1" if fusion else "0")
        return get_spec(spec_name).run(**params)


class TestByteIdenticalOutputs:
    """Fusion on vs force-disabled, over every simulated output family."""

    def _compare(self, monkeypatch, spec_name, **params):
        fused = _strip_timing(_run(monkeypatch, True, spec_name, **params))
        unfused = _strip_timing(_run(monkeypatch, False, spec_name, **params))
        assert fused.to_csv() == unfused.to_csv()
        assert fused.format() == unfused.format()
        assert json.dumps(fused.to_dict(), sort_keys=True) == \
            json.dumps(unfused.to_dict(), sort_keys=True)

    def test_fig6_byte_identical(self, monkeypatch):
        self._compare(monkeypatch, "fig6", sizes=(64, 1024), iterations=2, warmup=1)

    def test_table1_byte_identical(self, monkeypatch):
        self._compare(monkeypatch, "table1")

    def test_kvstore_scenario_byte_identical(self, monkeypatch):
        self._compare(
            monkeypatch, "scenario", workload="kvstore",
            params=("active_cores=4", "gets_per_core=6"),
        )

    def test_load_sweep_byte_identical(self, monkeypatch):
        self._compare(
            monkeypatch, "load_sweep", loads=(5.0, 40.0),
            warmup_cycles=1000.0, measure_cycles=4000.0,
        )


class TestFusedHopDeterminism:
    """The fused-hop count is part of the reproducibility contract."""

    def test_fig6_pins_fused_hop_count_across_runs(self, monkeypatch):
        params = dict(sizes=(64, 1024), iterations=2, warmup=1)
        first = _run(monkeypatch, True, "fig6", **params)
        second = _run(monkeypatch, True, "fig6", **params)
        assert first.metadata.perf["fused_hops"] > 0
        assert first.metadata.perf["fused_hops"] == second.metadata.perf["fused_hops"]
        assert first.metadata.perf["events"] == second.metadata.perf["events"]

    def test_load_sweep_pins_fused_hop_count_across_runs(self, monkeypatch):
        params = dict(loads=(8.0,), warmup_cycles=1000.0, measure_cycles=4000.0)
        first = _run(monkeypatch, True, "load_sweep", **params)
        second = _run(monkeypatch, True, "load_sweep", **params)
        assert first.metadata.perf["fused_hops"] > 0
        assert first.metadata.perf["fused_hops"] == second.metadata.perf["fused_hops"]

    def test_disabled_fusion_reports_zero_fused_hops(self, monkeypatch):
        result = _run(monkeypatch, False, "fig6", sizes=(64,), iterations=1, warmup=0)
        assert result.metadata.perf["fused_hops"] == 0
        assert result.metadata.perf["events"] > 0

    def test_parallel_campaign_workers_match_serial_run(self):
        """--parallel fans entries over processes; counters must not move."""
        def requests():
            return [
                RunRequest("fig6", {"sizes": [64], "iterations": 1, "warmup": 0}),
                RunRequest("fig6", {"sizes": [1024], "iterations": 1, "warmup": 0}),
            ]

        serial = Campaign(requests()).run()
        parallel = Campaign(requests(), max_workers=2).run()
        assert serial.succeeded == parallel.succeeded == 2
        for entry_s, entry_p in zip(serial.entries, parallel.entries):
            assert entry_s.result.rows == entry_p.result.rows
            assert entry_s.result.metadata.perf["fused_hops"] == \
                entry_p.result.metadata.perf["fused_hops"]
            assert entry_s.result.metadata.perf["fused_hops"] > 0
        assert serial.fused_hops == parallel.fused_hops


class TestCampaignFusedHopSurfacing:
    def test_report_aggregates_and_prints_fused_hops(self):
        report = Campaign(
            [RunRequest("fig6", {"sizes": [64], "iterations": 1, "warmup": 0})]
        ).run()
        assert report.fused_hops > 0
        summary = report.summary()
        assert "hop(s) fused" in summary


class TestPinnedEventCounts:
    """Exact execution counters of small runs.

    Any change that moves an event, a hop or a fused hop changes these
    numbers; a refactor of the kernel or the NOC must leave them alone.
    Table 1 is analytical and runs no events (its empty perf block is
    checked in test_perf.py), so the simulated Table 3 cross-check stands
    in for the tables.
    """

    @staticmethod
    def _counts(result):
        perf = result.metadata.perf
        return perf["events"], perf["fused_hops"], perf["peak_pending_events"]

    def test_fig6_point(self, monkeypatch):
        params = dict(sizes=(64,), iterations=1, warmup=0)
        assert self._counts(_run(monkeypatch, True, "fig6", **params)) == (146, 37, 2)
        # Unfused, every fused hop is an event of its own.
        assert self._counts(_run(monkeypatch, False, "fig6", **params)) == (146 + 37, 0, 2)

    def test_table3_simulated(self, monkeypatch):
        result = _run(monkeypatch, True, "table3", simulate=True)
        assert self._counts(result) == (739, 184, 2)

    def test_load_sweep_point(self, monkeypatch):
        result = _run(monkeypatch, True, "load_sweep", loads=(8.0,),
                      warmup_cycles=1000.0, measure_cycles=4000.0)
        assert self._counts(result) == (14523, 10, 93)
