"""The paper's shape claims, checked on the 64-core paper configuration.

Each claim keeps the inequality and threshold it was first written with.  The
runs cover a subset of each x-axis, and the bandwidth figures run 1,000
warm-up + 2,000 measured cycles.  The routing ablation keeps 3,000 + 8,000:
at 1,000 + 2,000 CDR-extended reads below XY (324.7 vs 332.4 GBps), one more
sign that these figures measure a transient rather than a steady state.
"""

from __future__ import annotations

import pytest

from repro.experiments.registry import get_spec

#: Warm-up and measurement windows (cycles) of the bandwidth figures.
WINDOWS = {"warmup_cycles": 1_000, "measure_cycles": 2_000}
#: Sizes, iterations and warm-up iterations of the latency figures.
LATENCY = {"sizes": (64, 1024, 8192), "iterations": 3, "warmup": 1}


@pytest.fixture(scope="module")
def fig6():
    return get_spec("fig6").run(**LATENCY)


@pytest.fixture(scope="module")
def fig9():
    return get_spec("fig9").run(**LATENCY)


def latencies(result):
    return [result.column(header)
            for header in ("NIedge (ns)", "NIsplit (ns)", "NIper-tile (ns)")]


def test_fig6_mesh_latency_shape(fig6):
    edge, split, per_tile = latencies(fig6)
    numa = fig6.column("NUMA projection (ns)")
    # For small transfers NIedge is clearly slower than NIsplit, which is
    # close to NIper-tile, and NUMA is the lower bound; for the largest
    # transfers NIper-tile becomes the slowest design (source-tile unrolling).
    assert edge[0] > 1.2 * split[0]
    assert abs(split[0] - per_tile[0]) / per_tile[0] < 0.15
    assert numa[0] < split[0]
    assert per_tile[-1] > split[-1]
    assert per_tile[-1] >= edge[-1] * 0.95
    for series in (edge, split, per_tile):
        assert series == sorted(series)


def test_fig9_nocout_latency_shape(fig6, fig9):
    edge, split, per_tile = latencies(fig9)
    # QP interactions still penalize NIedge on a latency-optimized NOC, and
    # NIper-tile remains the slowest for the largest transfers.
    assert edge[0] > 1.1 * split[0]
    assert per_tile[-1] > split[-1]
    # NOC-Out lowers small-transfer latency relative to the mesh (§6.3.1).
    mesh_edge, mesh_split, _ = latencies(fig6)
    assert split[0] < mesh_split[0]
    assert edge[0] < mesh_edge[0]


def test_table3_simulated_within_20_percent_of_the_paper():
    result = get_spec("table3").run(simulate=True, iterations=3)
    simulated = dict(zip(result.column("Design"), result.column("Simulated cycles")))
    paper = dict(zip(result.column("Design"), result.column("Paper cycles")))
    for design in ("edge", "per_tile", "split", "numa"):
        assert abs(simulated[design] - paper[design]) / paper[design] < 0.20
    assert simulated["edge"] > simulated["split"]
    assert simulated["edge"] > simulated["per_tile"]


def test_fig7_mesh_bandwidth_shape():
    result = get_spec("fig7").run(sizes=(64, 4096), **WINDOWS)
    edge = result.column("NIedge (GBps)")
    split = result.column("NIsplit (GBps)")
    per_tile = result.column("NIper-tile (GBps)")
    # NIedge suffers at the smallest transfers (QP ping-pong), NIsplit matches
    # or beats it everywhere, and NIper-tile falls behind for bulk transfers,
    # where every design moves hundreds of GBps (NOC-limited regime).
    assert edge[0] < 0.7 * split[0]
    assert split[-1] >= 0.9 * edge[-1]
    assert per_tile[-1] < split[-1]
    assert split[-1] > 100.0


def test_fig10_nocout_peak_below_the_mesh():
    nocout = get_spec("fig10").run(sizes=(512,), **WINDOWS)
    mesh = get_spec("fig7").run(design="split", sizes=(512,), **WINDOWS)
    assert all(value > 0 for value in
               nocout.column("NIedge (GBps)") + nocout.column("NIsplit (GBps)"))
    # The contended 8-bank LLC row is the NOC-Out bottleneck, so its peak is
    # significantly below the mesh's (§6.3.1).
    assert max(nocout.column("LLC bank utilization, NIsplit")) > 0.8
    assert nocout.column("NIsplit (GBps)")[0] < 0.8 * mesh.column("NIsplit (GBps)")[0]


def test_cdr_extended_routing_beats_xy():
    result = get_spec("routing").run(transfer_bytes=2048,
                                     policies=("xy", "cdr", "cdr_extended"),
                                     warmup_cycles=3_000, measure_cycles=8_000)
    bandwidth = dict(zip(result.column("Routing"), result.column("Application (GBps)")))
    # Class-based routing clearly outperforms plain dimension-order routing,
    # which turns the MC/NI edge columns into hotspots (§4.3).
    assert bandwidth["cdr_extended"] > bandwidth["xy"]
    assert bandwidth["cdr"] > 0 and bandwidth["xy"] > 0
