"""Tests for ``tools/ab_perfbench.py``: its summary on synthetic runs and its two trees."""

from __future__ import annotations

import os
import subprocess

import pytest

from helpers import load_tool

ab = load_tool("ab_perfbench")

RUN_S = {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}
OPS = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
RSS = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}


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

    def test_no_claim_below_ten_pairs(self):
        # Every pair won, by far more than the parent's spread.
        parent = [3.0, 3.1] * 5
        change = [2.0] * 10
        five = only_row(RUN_S, parent[:5], change[:5])
        assert five["won"] == 5 and five["claim"] is False
        assert "n/a (<10 pairs)" in ab.format_rows([five])
        ten = only_row(RUN_S, parent, change)
        assert ab.MIN_CLAIM_PAIRS == 10
        assert ten["won"] == 10 and ten["claim"] is True
        assert "n/a" not in ab.format_rows([ten]) and " yes " in ab.format_rows([ten])

    def test_gap_inside_the_parent_iqr_is_no_claim(self):
        parent = [2.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0, 4.0]
        change = [value - 0.1 for value in parent]
        row = only_row(RUN_S, parent, change)
        assert row["won"] == 10
        assert row["claim"] is False

    def test_ties_count_for_neither(self):
        row = only_row(RUN_S, [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        assert row["won"] == 0 and row["lost"] == 0
        assert row["ratio"] == 1.0 and row["claim"] is False

    def test_pairs_lost_are_counted_apart_from_ties(self):
        row = only_row(RUN_S, [3.0, 3.0, 3.0, 3.0], [2.0, 3.0, 4.0, 4.0])
        assert (row["won"], row["lost"], row["pairs"]) == (1, 2, 4)
        assert "1/4" in ab.format_rows([row])

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


class TestRegression:
    def test_twice_as_slow_on_every_pair_regressed(self):
        row = only_row(RUN_S, [3.0, 3.1, 2.9, 3.0, 3.2], [6.0, 6.2, 5.8, 6.0, 6.4])
        assert row["regressed"] is True
        assert "YES" in ab.format_rows([row])

    def test_identical_runs_do_not_regress(self):
        row = only_row(RUN_S, [3.0, 3.1, 2.9, 3.0, 3.2], [3.0, 3.1, 2.9, 3.0, 3.2])
        assert row["regressed"] is False

    def test_a_slowdown_inside_the_bound_does_not_regress(self):
        row = only_row(RUN_S, [3.0] * 5, [3.6] * 5)
        assert row["won"] == 0 and row["regressed"] is False

    def test_a_slowdown_past_the_bound_with_one_pair_won_does_not_regress(self):
        row = only_row(RUN_S, [3.0] * 5, [4.0, 4.0, 4.0, 4.0, 2.9])
        assert row["won"] == 1 and row["regressed"] is False

    def test_higher_is_better_metrics_regress_downwards(self):
        assert only_row(OPS, [100.0] * 5, [70.0] * 5)["regressed"] is True
        assert only_row(OPS, [100.0] * 5, [130.0] * 5)["regressed"] is False

    def test_each_metric_uses_its_own_bound(self):
        parent, change = [30.0] * 5, [34.5] * 5  # 15% worse on every pair
        assert only_row(RSS, parent, change)["regressed"] is True
        assert only_row(dict(RSS, bound=0.25), parent, change)["regressed"] is False


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=ab", "-c", "user.email=ab@example.com"]
                   + list(args), check=True, capture_output=True)


class TestTrees:
    def test_both_sides_are_fresh_copies_of_their_code(self, tmp_path):
        repo = tmp_path / "repo"
        (repo / "pkg").mkdir(parents=True)
        (repo / "pkg" / "code.py").write_text("VALUE = 1\n")
        (repo / "kept.txt").write_text("kept\n")
        (repo / ".gitignore").write_text("*.log\n")
        git(repo, "init", "--quiet")
        git(repo, "add", "-A")
        git(repo, "commit", "--quiet", "-m", "parent")
        (repo / "pkg" / "code.py").write_text("VALUE = 2\n")
        (repo / "pkg" / "new.py").write_text("NEW = True\n")
        (repo / "run.log").write_text("ignored\n")
        scratch = tmp_path / "scratch"
        scratch.mkdir()

        sides = ab.build_trees(str(repo), "HEAD", str(scratch))

        parent, change = sides["parent"], sides["change"]
        assert os.path.dirname(parent) == os.path.dirname(change) == str(scratch)
        with open(os.path.join(parent, "pkg", "code.py")) as handle:
            assert handle.read() == "VALUE = 1\n"
        with open(os.path.join(change, "pkg", "code.py")) as handle:
            assert handle.read() == "VALUE = 2\n"
        for side in (parent, change):
            with open(os.path.join(side, "kept.txt")) as handle:
                assert handle.read() == "kept\n"
            assert not os.path.exists(os.path.join(side, "run.log"))
            assert not os.path.exists(os.path.join(side, ".git"))
        assert os.path.exists(os.path.join(change, "pkg", "new.py"))
        assert not os.path.exists(os.path.join(parent, "pkg", "new.py"))
