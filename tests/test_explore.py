"""Tests for the design-space exploration subsystem (repro.explore)."""

import json

import pytest

from repro.errors import ExperimentError, ExploreError
from repro.experiments.base import ExperimentResult
from repro.experiments.spec import Parameter, experiment, unregister
from repro.explore import (
    Explorer,
    ExploreReport,
    OBJECTIVES,
    ParetoEntry,
    ParetoFront,
    SearchDimension,
    SearchSpace,
    build_space,
    default_dimensions,
    dominates,
    load_explore_report,
    main_effects,
    parse_dimension,
    resolve_objectives,
)
from repro.explore.engine import Evaluation
from repro.explore.strategies import (
    EvolveStrategy,
    GridScreenStrategy,
    RandomStrategy,
    fractional_factorial,
    latin_hypercube,
    strategy_seed,
)
from repro.explore.surrogate import QuadraticSurrogate, quadratic_features
from repro.campaign import ResultCache, RunRequest
from repro.experiments.open_loop_sweeps import degraded_saturation_points, worst_degraded_saturation
from repro.scenario.registry import EXPLORE_STRATEGIES

#: Fixed overrides that make a real load_sweep evaluation fast enough for
#: tests: one offered load and tiny warmup/measure windows.
TINY_SWEEP = {"loads": [4.0], "measure_cycles": 2000.0, "warmup_cycles": 300.0}
TINY_DIMS = ["design=edge,split", "arrivals=poisson,deterministic"]


@pytest.fixture
def synthetic_experiment():
    """A throwaway experiment with a deterministic saturation landscape."""
    calls = {"count": 0}

    @experiment(
        name="explore-test",
        title="ExploreTest",
        description="test-only exploration target",
        parameters=(
            Parameter("alpha", int, default=0),
            Parameter("beta", int, default=0),
        ),
    )
    def run_explore_test(config=None, alpha=0, beta=0):
        calls["count"] += 1
        result = ExperimentResult(
            "ExploreTest", "test", headers=["load (req/kcycle)", "p99 (ns)"]
        )
        result.add_row(1.0, 100.0 + 10.0 * alpha + beta * beta)
        result.add_note(
            "saturation throughput: %.2f req/kcycle" % (2.0 + alpha - 0.25 * beta)
        )
        return result

    yield calls
    unregister("explore-test")


def synthetic_space(alphas=(0, 1, 2), betas=(0, 1, 2, 3)):
    return SearchSpace(
        experiment="explore-test",
        dimensions=(
            SearchDimension("alpha", "int", tuple(alphas)),
            SearchDimension("beta", "int", tuple(betas)),
        ),
    )


def front_from_report(report):
    """Rebuild a live ParetoFront from a report's serialized Pareto set."""
    objectives = resolve_objectives([o["name"] for o in report.objectives])
    front = ParetoFront(objectives)
    for entry in report.pareto:
        front.offer(ParetoEntry(
            index=entry["index"], point=entry["point"],
            objectives=entry["objectives"], fingerprint=entry["fingerprint"],
        ))
    return front


# ----------------------------------------------------------------------
# Search space
# ----------------------------------------------------------------------
class TestSearchDimension:
    def test_needs_two_levels(self):
        with pytest.raises(ExploreError):
            SearchDimension("x", "int", (1,))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ExploreError):
            SearchDimension("x", "bogus", (1, 2))

    def test_unit_and_clamp(self):
        dim = SearchDimension("x", "int", (10, 20, 30))
        assert dim.unit(0) == 0.0
        assert dim.unit(2) == 1.0
        assert dim.clamp(-3) == 0
        assert dim.clamp(99) == 2


class TestParseDimension:
    def test_categorical_levels(self):
        dim = parse_dimension("load_sweep", "design=edge,split")
        assert dim.kind == "categorical"
        assert dim.levels == ("edge", "split")

    def test_categorical_levels_validated(self):
        with pytest.raises(ExperimentError):
            parse_dimension("load_sweep", "design=edge,bogus")

    def test_numeric_range_int(self):
        dim = parse_dimension("load_sweep", "queue_depth=16:64:3")
        assert dim.kind == "int"
        assert dim.levels == (16, 40, 64)

    def test_numeric_range_float_default_steps(self):
        dim = parse_dimension("load_sweep", "slo_factor=2:4")
        assert dim.kind == "float"
        assert len(dim.levels) == 5
        assert dim.levels[0] == 2.0 and dim.levels[-1] == 4.0

    def test_repeated_parameter_uses_colon_joined_levels(self):
        # For a repeated parameter, ':' joins one level's values (the sweep
        # convention), so 'loads=2:5,5:20' is two list levels, not a range.
        dim = parse_dimension("load_sweep", "loads=2:5,5:20")
        assert dim.kind == "categorical"
        assert dim.levels == ([2.0, 5.0], [5.0, 20.0])

    def test_malformed_assignment(self):
        with pytest.raises(ExploreError):
            parse_dimension("load_sweep", "design")
        with pytest.raises(ExploreError):
            parse_dimension("load_sweep", "queue_depth=1:2:3:4")


class TestSearchSpace:
    def test_size_and_enumeration_order(self, synthetic_experiment):
        space = synthetic_space()
        assert len(space) == 12
        indices = list(space.enumerate_indices())
        assert len(indices) == 12
        assert indices[0] == (0, 0)
        assert indices[1] == (0, 1)  # last dimension varies fastest
        assert indices[-1] == (2, 3)

    def test_point_indices_round_trip(self, synthetic_experiment):
        space = synthetic_space()
        point = space.point((1, 2))
        assert point == {"alpha": 1, "beta": 2}
        assert space.indices(point) == (1, 2)
        with pytest.raises(ExploreError):
            space.indices({"alpha": 99, "beta": 0})

    def test_point_key_is_order_insensitive(self):
        assert SearchSpace.point_key({"a": 1, "b": 2}) == \
            SearchSpace.point_key({"b": 2, "a": 1})

    def test_unknown_dimension_rejected(self, synthetic_experiment):
        with pytest.raises(ExperimentError):
            SearchSpace("explore-test",
                        (SearchDimension("bogus", "int", (1, 2)),))

    def test_dimension_level_values_validated(self, synthetic_experiment):
        with pytest.raises(ExperimentError):
            SearchSpace("explore-test",
                        (SearchDimension("alpha", "categorical", ("a", "b")),))

    def test_fixed_overlap_rejected(self, synthetic_experiment):
        with pytest.raises(ExploreError):
            SearchSpace("explore-test",
                        (SearchDimension("alpha", "int", (0, 1)),),
                        fixed={"alpha": 2})

    def test_to_request_merges_fixed_under_point(self, synthetic_experiment):
        space = SearchSpace("explore-test",
                            (SearchDimension("alpha", "int", (0, 1)),),
                            fixed={"beta": 3})
        request = space.to_request({"alpha": 1})
        assert request == RunRequest("explore-test", {"alpha": 1, "beta": 3})

    def test_serialization_round_trip(self, synthetic_experiment):
        space = synthetic_space()
        assert SearchSpace.from_dict(space.to_dict()) == space

    def test_default_dimensions_for_load_sweep(self):
        names = [dim.name for dim in default_dimensions("load_sweep")]
        assert names == ["design", "topology", "arrivals"]

    def test_build_space_with_fixed(self):
        space = build_space("load_sweep", TINY_DIMS, TINY_SWEEP)
        assert len(space) == 4
        assert space.fixed["loads"] == [4.0]


# ----------------------------------------------------------------------
# Objectives
# ----------------------------------------------------------------------
class TestObjectives:
    def test_resolve_preserves_order_and_rejects_unknown(self):
        objectives = resolve_objectives(["p99", "saturation"])
        assert [o.name for o in objectives] == ["p99", "saturation"]
        with pytest.raises(ExploreError):
            resolve_objectives(["bogus"])
        with pytest.raises(ExploreError):
            resolve_objectives(["p99", "p99"])
        with pytest.raises(ExploreError):
            resolve_objectives([])

    def test_saturation_from_note(self):
        result = ExperimentResult("t", "t", headers=["x"])
        result.add_note("saturation throughput: 4.93 req/kcycle (offered 5.00)")
        assert OBJECTIVES["saturation"].extract(result) == 4.93

    def test_saturation_not_met_is_zero(self):
        result = ExperimentResult("t", "t", headers=["x"])
        result.add_note("saturation throughput: not met at any measured load")
        assert OBJECTIVES["saturation"].extract(result) == 0.0

    def test_saturation_absent_is_none(self):
        result = ExperimentResult("t", "t", headers=["x"])
        assert OBJECTIVES["saturation"].extract(result) is None

    def test_p99_takes_lowest_load_row(self):
        result = ExperimentResult("t", "t", headers=["load", "p99 (ns)"])
        result.add_row(1.0, 120.0)
        result.add_row(2.0, 480.0)
        assert OBJECTIVES["p99"].extract(result) == 120.0

    def test_cost_from_perf_events(self):
        result = ExperimentResult("t", "t", headers=["x"])
        assert OBJECTIVES["cost"].extract(result) is None
        result.metadata.perf["events"] = 1234.0
        assert OBJECTIVES["cost"].extract(result) == 1234.0

    def test_degraded_saturation_from_chaos_notes(self):
        result = ExperimentResult("t", "t", headers=["x"])
        result.add_note("resilience: link_down intensity 0.25: degraded "
                        "saturation 4.00 req/kcycle (offered 5.00)")
        result.add_note("resilience: link_down intensity 0.50: degraded "
                        "saturation 2.50 req/kcycle (offered 5.00)")
        assert OBJECTIVES["degraded_saturation"].extract(result) == 2.5

    def test_oriented_flips_min_objectives(self):
        assert OBJECTIVES["saturation"].oriented(3.0) == 3.0
        assert OBJECTIVES["p99"].oriented(3.0) == -3.0


class TestFaultMetricsNotes:
    def test_degraded_points_parse_intensity_map(self):
        notes = [
            "resilience baseline: fault-free saturation 5.00 req/kcycle",
            "resilience: ni_stall intensity 0.25: degraded saturation "
            "4.00 req/kcycle (offered 5.00); tail x1.2",
            "resilience: ni_stall intensity 0.75: SLO not met at any measured load",
            "unrelated note",
        ]
        assert degraded_saturation_points(notes) == {0.25: 4.0, 0.75: 0.0}

    def test_worst_degraded_saturation(self):
        notes = [
            "resilience: f intensity 0.25: degraded saturation 4.00 req/kcycle",
            "resilience: f intensity 0.50: degraded saturation 3.00 req/kcycle",
        ]
        assert worst_degraded_saturation(notes) == 3.0
        assert worst_degraded_saturation(["no resilience here"]) is None


# ----------------------------------------------------------------------
# Pareto front
# ----------------------------------------------------------------------
class TestPareto:
    def objectives(self):
        return resolve_objectives(["saturation", "p99"])

    def test_dominates_orients_senses(self):
        objectives = self.objectives()
        better = {"saturation": 5.0, "p99": 100.0}
        worse = {"saturation": 4.0, "p99": 200.0}
        mixed = {"saturation": 6.0, "p99": 300.0}
        assert dominates(better, worse, objectives)
        assert not dominates(worse, better, objectives)
        assert not dominates(better, mixed, objectives)
        assert not dominates(better, dict(better), objectives)  # tie

    def test_offer_evicts_dominated_and_keeps_ties(self):
        front = ParetoFront(self.objectives())
        assert front.offer(ParetoEntry(0, {"a": 0}, {"saturation": 4.0, "p99": 200.0}))
        assert front.offer(ParetoEntry(1, {"a": 1}, {"saturation": 5.0, "p99": 100.0}))
        assert len(front) == 1  # entry 0 evicted
        assert not front.offer(ParetoEntry(2, {"a": 2}, {"saturation": 4.5, "p99": 150.0}))
        assert front.offer(ParetoEntry(3, {"a": 3}, {"saturation": 5.0, "p99": 100.0}))
        assert [entry.index for entry in front.entries()] == [1, 3]

    def test_offer_requires_every_objective(self):
        front = ParetoFront(self.objectives())
        with pytest.raises(ExploreError):
            front.offer(ParetoEntry(0, {"a": 0}, {"saturation": 4.0}))

    def test_weak_domination(self):
        objectives = self.objectives()
        strong = ParetoFront(objectives)
        strong.offer(ParetoEntry(0, {}, {"saturation": 5.0, "p99": 100.0}))
        weak = ParetoFront(objectives)
        weak.offer(ParetoEntry(0, {}, {"saturation": 4.0, "p99": 150.0}))
        assert strong.weakly_dominates(weak)
        assert not weak.weakly_dominates(strong)
        # Equal fronts weakly dominate each other.
        twin = ParetoFront(objectives)
        twin.offer(ParetoEntry(9, {}, {"saturation": 5.0, "p99": 100.0}))
        assert strong.weakly_dominates(twin) and twin.weakly_dominates(strong)


# ----------------------------------------------------------------------
# Surrogate
# ----------------------------------------------------------------------
class TestSurrogate:
    def test_feature_vector_shape(self):
        assert len(quadratic_features([0.5])) == 3
        assert len(quadratic_features([0.1, 0.2, 0.3])) == 1 + 3 + 3 + 3

    def test_recovers_quadratic(self):
        target = lambda x: 2.0 + 3.0 * x - 4.0 * x * x
        xs = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        surrogate = QuadraticSurrogate()
        surrogate.fit([[x] for x in xs], [target(x) for x in xs])
        for x in (0.1, 0.5, 0.9):
            assert surrogate.predict([x]) == pytest.approx(target(x), abs=1e-4)

    def test_predict_requires_fit(self):
        with pytest.raises(ExploreError):
            QuadraticSurrogate().predict([0.5])

    def test_underdetermined_fit_is_regularized_not_singular(self):
        surrogate = QuadraticSurrogate()
        surrogate.fit([[0.0, 0.0], [1.0, 1.0]], [0.0, 1.0])
        assert surrogate.fitted
        assert surrogate.predict([1.0, 1.0]) > surrogate.predict([0.0, 0.0])


# ----------------------------------------------------------------------
# Sensitivity
# ----------------------------------------------------------------------
class TestSensitivity:
    def test_dominant_dimension_ranks_first(self, synthetic_experiment):
        space = synthetic_space(alphas=(0, 1), betas=(0, 1))
        objectives = resolve_objectives(["saturation"])
        evaluations = []
        for index, indices in enumerate(space.enumerate_indices()):
            point = space.point(indices)
            # alpha swings saturation by 10, beta by 1.
            value = 10.0 * point["alpha"] + 1.0 * point["beta"]
            evaluations.append(Evaluation(
                index=index, point=point, fingerprint="f%d" % index,
                objectives={"saturation": value},
            ))
        rows = main_effects(space, objectives, evaluations)
        assert [row.dimension for row in rows] == ["alpha", "beta"]
        assert rows[0].effect > rows[1].effect
        assert rows[0].levels_observed == 2
        assert rows[0].per_objective["saturation"] == pytest.approx(10.0 / 11.0)

    def test_unvaried_dimension_has_zero_effect(self, synthetic_experiment):
        space = synthetic_space(alphas=(0, 1), betas=(0, 1))
        objectives = resolve_objectives(["saturation"])
        evaluations = [
            Evaluation(index=i, point={"alpha": i, "beta": 0}, fingerprint="f%d" % i,
                       objectives={"saturation": float(i)})
            for i in range(2)
        ]
        rows = {row.dimension: row for row in main_effects(space, objectives, evaluations)}
        assert rows["beta"].effect == 0.0
        assert rows["beta"].levels_observed == 1


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
class TestStrategyPlumbing:
    def test_registry_holds_builtins(self):
        assert EXPLORE_STRATEGIES.names() == ["evolve", "grid_screen", "random"]

    def test_strategy_seed_mixes_name(self):
        assert strategy_seed(7, "a") != strategy_seed(7, "b")
        assert strategy_seed(7, "a") == strategy_seed(7, "a")

    def test_unknown_strategy_param_rejected(self, synthetic_experiment):
        space = synthetic_space()
        objectives = resolve_objectives(["saturation"])
        with pytest.raises(ExploreError):
            GridScreenStrategy(space, objectives, 0, 4, bogus=1)
        with pytest.raises(ExploreError):
            GridScreenStrategy(space, objectives, 0, 4, screen_levels="three")

    def test_budget_must_be_positive(self, synthetic_experiment):
        with pytest.raises(ExploreError):
            GridScreenStrategy(synthetic_space(),
                               resolve_objectives(["saturation"]), 0, 0)


class TestSamplingHelpers:
    def test_fractional_factorial_covers_extremes_within_budget(self, synthetic_experiment):
        space = synthetic_space(alphas=(0, 1, 2), betas=(0, 1, 2, 3))
        plan = fractional_factorial(space, budget=6)
        assert len(plan) == 6
        keys = {space.point_key(point) for point in plan}
        assert len(keys) == 6  # no duplicates
        assert space.point((0, 0)) in plan  # the low corner survives striding

    def test_fractional_factorial_small_space_is_exhaustive(self, synthetic_experiment):
        space = synthetic_space(alphas=(0, 1), betas=(0, 1))
        plan = fractional_factorial(space, budget=10)
        assert len(plan) == 4

    def test_latin_hypercube_is_seeded(self, synthetic_experiment):
        import random as random_module

        space = synthetic_space()
        first = latin_hypercube(space, 5, random_module.Random(7))
        second = latin_hypercube(space, 5, random_module.Random(7))
        different = latin_hypercube(space, 5, random_module.Random(8))
        assert first == second
        assert first != different


class TestExplorerWithSyntheticExperiment:
    def objectives(self):
        return ["saturation", "p99"]

    def run(self, strategy, seed=7, budget=8, **kwargs):
        space = synthetic_space()
        return Explorer(space, strategy=strategy, objectives=self.objectives(),
                        seed=seed, budget=budget, **kwargs).run()

    @pytest.mark.parametrize("strategy", ["grid_screen", "random", "evolve"])
    def test_budget_respected_and_no_duplicate_points(self, synthetic_experiment, strategy):
        report = self.run(strategy, budget=6)
        assert report.totals["evaluations"] <= 6
        keys = [SearchSpace.point_key(e["point"]) for e in report.evaluations]
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("strategy", ["grid_screen", "random", "evolve"])
    def test_same_seed_reproduces_report_bytes(self, synthetic_experiment, strategy):
        first = self.run(strategy).to_json()
        second = self.run(strategy).to_json()
        assert first == second

    def test_different_seeds_change_random_walk(self, synthetic_experiment):
        first = [e["point"] for e in self.run("random", seed=1).evaluations]
        second = [e["point"] for e in self.run("random", seed=2).evaluations]
        assert first != second

    def test_budget_at_space_size_is_exhaustive_for_adaptive_strategies(self, synthetic_experiment):
        # random and evolve top up from the enumeration order, so with budget
        # >= |space| they cover everything; grid_screen stops at its one-shot
        # screening plan (3 screen levels of the 4-level beta axis: 9 points).
        for strategy in ("random", "evolve"):
            report = self.run(strategy, budget=12)
            assert report.totals["evaluations"] == 12, strategy
        screen = self.run("grid_screen", budget=12)
        assert screen.totals["evaluations"] == 9

    def test_evolve_finds_the_optimum(self, synthetic_experiment):
        # Saturation is maximized at alpha=2, beta=0 on the synthetic
        # landscape; with budget for 2/3 of the space evolve must find it.
        report = self.run("evolve", budget=8)
        best = max(report.evaluations,
                   key=lambda e: e["objectives"]["saturation"])
        assert best["point"]["alpha"] == 2
        assert best["point"]["beta"] == 0

    def test_warm_cache_rerun_evaluates_zero_new_points(self, synthetic_experiment, tmp_path):
        cache = ResultCache(str(tmp_path))
        space = synthetic_space()
        cold = Explorer(space, strategy="evolve", objectives=self.objectives(),
                        seed=7, budget=8, cache=cache).run()
        executed_after_cold = synthetic_experiment["count"]
        warm = Explorer(space, strategy="evolve", objectives=self.objectives(),
                        seed=7, budget=8, cache=cache).run()
        assert cold.totals["new_evaluations"] == 8
        assert warm.totals["new_evaluations"] == 0
        assert warm.totals["cached"] == 8
        assert synthetic_experiment["count"] == executed_after_cold
        # Same evaluation sequence and Pareto set either way.
        assert [e["point"] for e in warm.evaluations] == \
            [e["point"] for e in cold.evaluations]
        assert warm.pareto == cold.pareto

    def test_infeasible_points_stay_off_the_front(self, synthetic_experiment):
        # 'cost' needs perf events the synthetic experiment never produces,
        # so every evaluation is infeasible and the front stays empty.
        space = synthetic_space()
        report = Explorer(space, strategy="grid_screen",
                          objectives=["saturation", "cost"],
                          seed=7, budget=4).run()
        assert report.totals["feasible"] == 0
        assert report.totals["infeasible"] == 4
        assert report.pareto == []

    def test_unknown_strategy_fails_fast(self, synthetic_experiment):
        with pytest.raises(Exception):
            Explorer(synthetic_space(), strategy="bogus")


# ----------------------------------------------------------------------
# Report document
# ----------------------------------------------------------------------
class TestExploreReport:
    def report(self, synthetic=True):
        space = synthetic_space()
        return Explorer(space, strategy="evolve",
                        objectives=["saturation", "p99"], seed=7, budget=6).run()

    def test_json_round_trip(self, synthetic_experiment):
        report = self.report()
        assert ExploreReport.from_json(report.to_json()).to_json() == report.to_json()

    def test_schema_is_required(self, synthetic_experiment):
        report = self.report()
        payload = json.loads(report.to_json())
        payload["schema"] = "repro-explore-report/99"
        with pytest.raises(ExploreError):
            ExploreReport.from_dict(payload)
        with pytest.raises(ExploreError):
            ExploreReport.from_json("not json")

    def test_no_wall_clock_fields(self, synthetic_experiment):
        # The byte-identity contract forbids any wall-time field anywhere.
        assert "wall" not in self.report().to_json()

    def test_write_and_load(self, synthetic_experiment, tmp_path):
        report = self.report()
        path = str(tmp_path / "explore.json")
        report.write_json(path)
        assert load_explore_report(path).to_json() == report.to_json()
        with pytest.raises(ExploreError):
            load_explore_report(str(tmp_path / "missing.json"))

    def test_format_renders_tables(self, synthetic_experiment):
        text = self.report().format()
        assert "Pareto front" in text
        assert "sensitivity (normalized main effects):" in text
        assert "explore: explore-test via evolve (seed 7, budget 6)" in text


# ----------------------------------------------------------------------
# Determinism against the real simulator (the acceptance contract)
# ----------------------------------------------------------------------
class TestRealExperimentDeterminism:
    def run(self, strategy="evolve", seed=7, budget=5, workers=1, cache=None):
        space = build_space("load_sweep", TINY_DIMS, TINY_SWEEP)
        return Explorer(space, strategy=strategy, seed=seed, budget=budget,
                        max_workers=workers, cache=cache).run()

    def test_repeat_runs_are_byte_identical(self):
        assert self.run().to_json() == self.run().to_json()

    def test_worker_count_does_not_change_report_bytes(self):
        assert self.run(workers=1).to_json() == self.run(workers=4).to_json()

    def test_evolve_weakly_dominates_grid_screen_on_same_budget(self):
        budget = 4  # the smoke space has 4 points; same budget for both
        evolve = self.run(strategy="evolve", budget=budget)
        assert evolve.totals["evaluations"] == evolve.totals["feasible"] == budget
        assert evolve.pareto
        screen = self.run(strategy="grid_screen", budget=budget)
        assert front_from_report(evolve).weakly_dominates(front_from_report(screen))


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCLIExplore:
    def explore_args(self, *extra):
        args = ["explore", "load_sweep", "--seed", "7", "--budget", "4"]
        for dim in TINY_DIMS:
            args += ["--dim", dim]
        args += ["--set", "loads=4", "--set", "measure_cycles=2000",
                 "--set", "warmup_cycles=300"]
        return args + list(extra)

    def test_text_output(self, capsys):
        from repro.cli import main

        assert main(self.explore_args()) == 0
        out = capsys.readouterr().out
        assert "Pareto front" in out
        assert "sensitivity" in out

    def test_json_output_parses_and_round_trips(self, capsys):
        from repro.cli import main

        assert main(self.explore_args("--json")) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-explore-report/1"
        assert payload["strategy"] == "evolve"
        assert payload["totals"]["evaluations"] == 4

    def test_seeded_cli_runs_are_byte_identical_across_parallelism(self, tmp_path):
        from repro.cli import main

        paths = [str(tmp_path / name) for name in
                 ("a.json", "b.json", "c.json")]
        assert main(self.explore_args("--json", paths[0])) == 0
        assert main(self.explore_args("--json", paths[1])) == 0
        assert main(self.explore_args("--parallel", "4", "--json", paths[2])) == 0
        blobs = [open(path, "rb").read() for path in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_strategy_and_objectives_flags(self, capsys):
        from repro.cli import main

        assert main(self.explore_args(
            "--strategy", "grid_screen", "--objectives", "saturation,p99",
            "--strategy-param", "screen_levels=2")) == 0
        assert "Pareto front" in capsys.readouterr().out

    def test_malformed_strategy_param_is_an_error(self, capsys):
        from repro.cli import main

        assert main(self.explore_args("--strategy-param", "nonsense")) == 2
        assert "strategy-param" in capsys.readouterr().err

    def test_unknown_strategy_is_an_error(self, capsys):
        from repro.cli import main

        assert main(self.explore_args("--strategy", "bogus")) == 2
        assert "bogus" in capsys.readouterr().err

    def test_list_strategies(self, capsys):
        from repro.cli import main

        assert main(["list", "--strategies"]) == 0
        out = capsys.readouterr().out
        assert "Search strategies:" in out
        for name in ("evolve", "grid_screen", "random"):
            assert name in out
        assert "screen_fraction" in out  # tunables are surfaced

    def test_list_json_includes_strategies_registry(self, capsys):
        from repro.cli import main

        assert main(["list", "--json"]) == 0
        registries = json.loads(capsys.readouterr().out)["registries"]
        strategies = {item["name"]: item for item in registries["strategies"]}
        assert set(strategies) == {"evolve", "grid_screen", "random"}
        assert "screen_levels" in strategies["grid_screen"]["parameters"]


class TestCampaignSaturationDigest:
    def test_single_saturation_point_still_printed(self):
        # Regression: the cross-run digest used to be dropped when the
        # campaign held exactly one load sweep.
        from repro.campaign.report import CampaignEntry, CampaignReport

        result = ExperimentResult("t", "t", headers=["x"])
        result.add_row(1.0)
        result.add_note("saturation throughput: 4.00 req/kcycle (offered 5.00)")
        report = CampaignReport(entries=[
            CampaignEntry(request=RunRequest("load_sweep"), result=result),
        ])
        text = report.format()
        assert "load_sweep: saturation throughput: 4.00 req/kcycle" in text

    def test_single_resilience_point_still_printed(self):
        from repro.campaign.report import CampaignEntry, CampaignReport

        result = ExperimentResult("t", "t", headers=["x"])
        result.add_row(1.0)
        result.add_note("resilience: link_down intensity 0.50: degraded "
                        "saturation 2.50 req/kcycle (offered 5.00)")
        report = CampaignReport(entries=[
            CampaignEntry(request=RunRequest("chaos_sweep"), result=result),
        ])
        assert "chaos_sweep: resilience: link_down intensity 0.50" in report.format()
