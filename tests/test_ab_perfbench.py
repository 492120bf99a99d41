"""Tests for the A/B summary of ``tools/ab_perfbench.py`` on synthetic runs."""

from __future__ import annotations

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "ab_perfbench.py")
_spec = importlib.util.spec_from_file_location("ab_perfbench", TOOL)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

RUN_S = {"name": "run_s", "unit": "s", "better": "lower"}
OPS = {"name": "ops_per_s", "unit": "1/s", "better": "higher"}


def runs(name, series):
    return [None if value is None else {name: value} for value in series]


def only_row(metric, parent, change):
    [row] = ab.summarize([metric], runs(metric["name"], parent), runs(metric["name"], change))
    return row


class TestSummary:
    def test_quartiles_are_inclusive(self):
        assert ab.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
        assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)

    def test_claim_holds_with_nine_of_ten_and_a_gap_past_the_iqr(self):
        parent = [3.0, 3.1, 3.0, 3.2, 3.1, 3.0, 3.1, 3.2, 3.0, 3.1]
        change = [2.7, 2.8, 2.7, 2.8, 2.7, 2.8, 2.7, 2.8, 2.7, 3.3]
        row = only_row(RUN_S, parent, change)
        assert row["won"] == 9 and row["pairs"] == 10
        assert row["parent"] == (3.0, 3.1, 3.1)
        assert row["change"] == pytest.approx((2.7, 2.75, 2.8))
        assert row["ratio"] == pytest.approx(2.75 / 3.1)
        assert row["claim"] is True

    def test_eight_of_ten_is_no_claim(self):
        parent = [3.0] * 10
        change = [2.0] * 8 + [3.5, 3.5]
        row = only_row(RUN_S, parent, change)
        assert row["won"] == 8
        assert row["claim"] is False

    def test_gap_inside_the_parent_iqr_is_no_claim(self):
        parent = [2.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0, 4.0]
        change = [value - 0.1 for value in parent]
        row = only_row(RUN_S, parent, change)
        assert row["won"] == 10
        assert row["claim"] is False

    def test_ties_count_for_neither(self):
        row = only_row(RUN_S, [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        assert row["won"] == 0 and row["ratio"] == 1.0 and row["claim"] is False

    def test_higher_is_better_metrics_win_upwards(self):
        row = only_row(OPS, [100.0] * 10, [120.0] * 10)
        assert row["won"] == 10 and row["claim"] is True
        row = only_row(OPS, [100.0] * 10, [80.0] * 10)
        assert row["won"] == 0 and row["claim"] is False

    def test_a_run_without_metrics_drops_its_pair(self):
        row = only_row(RUN_S, [3.0, None, 3.0], [2.0, 2.0, None])
        assert row["pairs"] == 1 and row["won"] == 1

    def test_no_complete_pair_reports_nothing(self):
        row = only_row(RUN_S, [None], [2.0])
        assert row["pairs"] == 0 and row["parent"] is None and row["claim"] is False
        assert "0/0" in ab.format_rows([row])

    def test_table_names_every_metric_with_its_unit(self):
        rows = ab.summarize([RUN_S, OPS], [{"run_s": 3.0, "ops_per_s": 10.0}],
                            [{"run_s": 2.0, "ops_per_s": 12.0}])
        table = ab.format_rows(rows)
        assert "run_s" in table and "ops_per_s" in table and "1/s" in table
        assert table.count("1/1") == 2
