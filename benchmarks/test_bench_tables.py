"""Benchmarks regenerating Tables 1, 2 and 3 (analytical, sub-second)."""

from bench_params import run_spec


def test_bench_table1(benchmark):
    """Table 1: QP-based model vs load/store NUMA, single-block remote read."""
    result = benchmark.pedantic(run_spec, args=("table1",), rounds=1, iterations=1)
    totals = [row for row in result.rows if str(row[0]).startswith("Total")]
    assert totals and totals[0][1] == 710 and totals[0][3] == 395


def test_bench_table2(benchmark):
    """Table 2: modelled system parameters."""
    result = benchmark.pedantic(run_spec, args=("table2",), rounds=1, iterations=1)
    assert any("MESI" in str(row[1]) for row in result.rows)


def test_bench_table3(benchmark):
    """Table 3: zero-load latency breakdown per NI design."""
    result = benchmark.pedantic(run_spec, args=("table3",), rounds=1, iterations=1)
    analytical = dict(zip(result.column("Design"), result.column("Analytical cycles")))
    assert analytical == {"edge": 710, "per_tile": 445, "split": 447, "numa": 395}


def test_bench_table3_simulated_cross_check(benchmark):
    """Table 3 cross-checked against the discrete-event simulator."""
    result = benchmark.pedantic(
        run_spec, args=("table3",), kwargs={"simulate": True, "iterations": 3},
        rounds=1, iterations=1,
    )
    simulated = dict(zip(result.column("Design"), result.column("Simulated cycles")))
    paper = dict(zip(result.column("Design"), result.column("Paper cycles")))
    # The simulated end-to-end latency must stay within 20% of the paper's
    # detailed-model numbers for every design, and preserve the ordering.
    for design in ("edge", "per_tile", "split", "numa"):
        assert abs(simulated[design] - paper[design]) / paper[design] < 0.20
    assert simulated["edge"] > simulated["split"]
    assert simulated["edge"] > simulated["per_tile"]
