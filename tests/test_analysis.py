"""Tests for the analytical models (Tables 1/3, Figure 5, bandwidth bounds)."""

import pytest

from repro.analysis.bandwidth_model import BandwidthModel
from repro.analysis.breakdown import LatencyBreakdownModel
from repro.analysis.projection import HopProjection
from repro.analysis.report import format_table
from repro.config import SystemConfig
from repro.errors import ConfigurationError, ExperimentError


class TestBreakdown:
    def test_totals_match_table3(self):
        model = LatencyBreakdownModel()
        assert model.breakdown("edge").total_cycles == 710
        assert model.breakdown("per_tile").total_cycles == 445
        assert model.breakdown("split").total_cycles == 447
        assert model.breakdown("numa").total_cycles == 395

    def test_overheads_match_paper(self):
        model = LatencyBreakdownModel()
        assert 100 * model.overhead_over_numa("edge") == pytest.approx(79.7, abs=0.1)
        assert 100 * model.overhead_over_numa("per_tile") == pytest.approx(12.7, abs=0.1)
        assert 100 * model.overhead_over_numa("split") == pytest.approx(13.2, abs=0.1)

    def test_table1_view(self):
        table = LatencyBreakdownModel().table1()
        assert table["qp_based"].total_cycles == 710
        assert table["numa"].total_cycles == 395
        assert table["qp_based"].overhead_over(table["numa"]) == pytest.approx(0.797, abs=0.001)

    def test_all_breakdowns_cover_every_design(self):
        breakdowns = LatencyBreakdownModel().all_breakdowns()
        assert list(breakdowns) == ["edge", "per_tile", "split", "numa"]

    def test_uncalibrated_design_rejected(self):
        with pytest.raises(ConfigurationError, match="no latency breakdown"):
            LatencyBreakdownModel().breakdown("split_copy")

    def test_network_component_scales_with_hops(self):
        model = LatencyBreakdownModel()
        assert model.breakdown("split", hops=3).total_cycles == 447 + 2 * 140

    def test_negative_hops_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyBreakdownModel().breakdown("split", hops=-1)

    def test_as_dict_exposes_components(self):
        components = LatencyBreakdownModel().breakdown("split").as_dict()
        assert components["RRPP servicing"] == 208
        assert components["WQ write software overhead"] == 13


class TestProjection:
    def test_six_hop_overheads_match_paper(self):
        projection = HopProjection()
        point = projection.point(6)
        assert 100 * point.overhead_over_numa["edge"] == pytest.approx(28.6, abs=0.5)
        assert 100 * point.overhead_over_numa["split"] == pytest.approx(4.7, abs=0.3)

    def test_diameter_overheads_match_paper(self):
        point = HopProjection().point(12)
        assert 100 * point.overhead_over_numa["edge"] == pytest.approx(16.2, abs=0.5)
        assert 100 * point.overhead_over_numa["split"] == pytest.approx(2.6, abs=0.3)

    def test_sweep_covers_zero_to_diameter(self):
        points = HopProjection().sweep()
        assert points[0].hops == 0
        assert points[-1].hops == 12
        assert len(points) == 13

    def test_overhead_decreases_with_distance(self):
        projection = HopProjection()
        overheads = [projection.point(h).overhead_over_numa["edge"] for h in range(1, 13)]
        assert overheads == sorted(overheads, reverse=True)

    def test_latency_is_monotonic_in_hops(self):
        projection = HopProjection()
        latencies = [projection.point(h).latency_ns["split"] for h in range(13)]
        assert latencies == sorted(latencies)

    def test_torus_statistics(self):
        projection = HopProjection()
        assert projection.max_hops() == 12
        assert projection.average_hops() == pytest.approx(6.0)


class TestBandwidthModel:
    def test_bisection_limit_below_raw_bisection(self):
        model = BandwidthModel()
        assert model.bisection_limit_gbps() < SystemConfig.paper_defaults().noc_bisection_bandwidth_gbps
        assert model.bisection_limit_gbps() == pytest.approx(512 / 2.7, rel=0.01)

    def test_memory_never_binds(self):
        model = BandwidthModel()
        assert model.memory_limit_gbps() > model.bisection_limit_gbps()

    def test_edge_small_transfers_are_issue_limited(self):
        model = BandwidthModel()
        estimate = model.estimate("edge", 64)
        assert estimate.limiting_factor == "issue_rate"
        assert estimate.limit_gbps < model.bisection_limit_gbps()

    def test_edge_large_transfers_reach_the_bisection_limit(self):
        model = BandwidthModel()
        estimate = model.estimate("edge", 8192)
        assert estimate.limiting_factor == "bisection"

    def test_split_beats_edge_for_small_transfers(self):
        model = BandwidthModel()
        split = model.issue_rate_limit_gbps("split", 64)
        edge = model.issue_rate_limit_gbps("edge", 64)
        assert split > edge

    def test_per_tile_bound_is_below_the_bisection_for_bulk(self):
        model = BandwidthModel()
        per_tile = model.estimate("per_tile", 8192)
        edge = model.estimate("edge", 8192)
        assert per_tile.limit_gbps < edge.limit_gbps

    def test_invalid_inputs_rejected(self):
        model = BandwidthModel()
        with pytest.raises(ConfigurationError):
            model.issue_rate_limit_gbps("edge", 0)
        with pytest.raises(ConfigurationError):
            model.issue_rate_limit_gbps("numa", 64)


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", "y"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "2.5" in lines[2]

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ExperimentError):
            format_table(["a"], [[1, 2]])
