#!/usr/bin/env python3
"""The repository benchmark: host time, accuracy and per-layer cost of the simulator.

Run from the repository root::

    python3 perfbench/run.py --workload bw_mesh --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload rw_open --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --write-reference

One process, one thread: the workload's simulation points run one after
another, round after round, until ``--seconds`` have passed.  Host times are
normalized to a nominal host speed with the kernel in ``hostspeed.py``, timed
during every round.  Every point run
is checked against the committed reference (``reference.json``) and against
its own first run.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import hostspeed
import layers

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

#: Fresh imports of the simulator timed for ``setup_s``.
IMPORT_SAMPLES = 5
#: Work seconds after which the host-speed kernel is timed again, and how
#: many times it runs then.
RECALIBRATE_AFTER_S = 1.0
KERNEL_RUNS = 3

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "sim_kcycles_per_s": "kcycle/s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "model_err_pct": "%",
}

#: Per-layer counters reported with ``--trace 1`` (summed over one round).
LAYER_COUNTS = (
    "sim.events", "sim.peak_pending",
    "noc.packets", "noc.hop_events", "noc.fused_hops", "noc.wire_bytes",
    "core.blocks_injected", "core.blocks_completed", "core.rrpp_requests", "core.doorbells",
    "qp.posts", "qp.pops", "qp.full_stalls",
    "sonuma.transfers",
    "coherence.local_hits", "coherence.remote_transactions", "coherence.invalidations",
    "coherence.forwards",
    "memory.requests", "memory.dram_reads", "memory.dram_writes",
    "node.issued_ops", "node.completed_ops",
    "load.injected", "load.completed", "load.dropped",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    return {
        "sim.events_per_kcycle": "1/kcycle",
        "sim.us_per_event": "us",
    }.get(name, "ratio" if name.endswith(("_ratio", "_share", "_util")) else "count")


def first_difference(actual, expected, path: str = "") -> Optional[str]:
    """The first field where ``actual`` differs from ``expected``, or None."""
    if isinstance(actual, dict) and isinstance(expected, dict):
        for key in sorted(set(actual) | set(expected)):
            where = "%s.%s" % (path, key) if path else key
            if key not in expected:
                return "%s: not in the expected statistics" % where
            if key not in actual:
                return "%s: missing" % where
            found = first_difference(actual[key], expected[key], where)
            if found:
                return found
        return None
    if actual != expected:
        return "%s: %r, expected %r" % (path, actual, expected)
    return None


class Checker:
    """Counts point runs that raised or whose statistics diverged."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self._first: Dict[tuple, object] = {}

    def check(self, run, seed: int, reference: Optional[dict]) -> None:
        """Compare ``run`` with ``reference`` (when given) and with its first run."""
        self.attempted += 1
        problem = run.error
        if problem is None and reference is not None:
            expected = reference.get(run.name)
            if expected is None:
                problem = "no reference entry"
            else:
                found = first_difference(run.reference_entry(), expected)
                problem = found and "differs from the reference at " + found
        if problem is None:
            first = self._first.setdefault((seed, run.name), run)
            found = first_difference({"outputs": run.outputs, "counts": run.counts},
                                     {"outputs": first.outputs, "counts": first.counts})
            problem = found and "differs from its first run at " + found
        if problem:
            self.failures.append("%s (seed %d): %s" % (run.name, seed, problem))


class Round:
    """Totals of one pass over a workload's points (host times as measured)."""

    def __init__(self, runs) -> None:
        self.runs = runs
        self.work_s = sum(run.work_s for run in runs)
        self.setup_s = sum(run.setup_s for run in runs)
        self.sim_cycles = sum(run.sim_cycles for run in runs)
        self.ops = sum(run.ops for run in runs)
        counts: Counter = Counter()
        for run in runs:
            for key, value in run.counts.items():
                if key in points.MAX_COUNTS:
                    counts[key] = max(counts[key], value)
                else:
                    counts[key] += value
        self.counts = counts


class Phase:
    """Rounds run back to back, and the host-speed kernel times taken among them."""

    def __init__(self) -> None:
        self.rounds: List[Round] = []
        self.kernel_s: List[float] = []

    @property
    def scale(self) -> float:
        """Factor from measured seconds to seconds on the nominal host."""
        return hostspeed.NOMINAL_KERNEL_S / statistics.median(self.kernel_s)

    def work_s(self) -> List[float]:
        return [r.work_s * self.scale for r in self.rounds]

    def setup_s(self) -> List[float]:
        return [r.setup_s * self.scale for r in self.rounds]


def run_rounds(workload_points, seconds: float, seed: int, reference, checker: Checker,
               capture, yardstick, profiler=None) -> Phase:
    """Run whole rounds until ``seconds`` have passed (at least one round).

    Before a point, once a second of work has passed since it last ran, the
    host-speed kernel runs a few times; the phase's median kernel time
    normalizes its host times.
    """
    phase = Phase()
    start = perf_counter()
    calibrated = None
    while not phase.rounds or perf_counter() - start < seconds:
        runs = []
        for point in workload_points:
            if calibrated is None or perf_counter() - calibrated >= RECALIBRATE_AFTER_S:
                phase.kernel_s.extend(yardstick.kernel_seconds() for _ in range(KERNEL_RUNS))
                calibrated = perf_counter()
            runs.append(points.run_point(point, capture, profiler))
        for run in runs:
            checker.check(run, seed, reference)
        phase.rounds.append(Round(runs))
    return phase


def describe(values: List[float]) -> str:
    """Median, spread and sample count of a host-time series."""
    ordered = sorted(values)
    text = "median %.6f, min %.6f, max %.6f, n=%d" % (
        statistics.median(ordered), ordered[0], ordered[-1], len(ordered))
    if len(ordered) >= 20:
        # The highest order statistic with ten samples above it.
        rank = len(ordered) - 11
        text += ", p%.0f %.6f" % (100.0 * (rank + 1) / len(ordered), ordered[rank])
    return text


def model_errors(workload_points, first_round: Round) -> Dict[str, float]:
    """|simulated - paper| / paper in percent, per point with a paper value."""
    by_name = {run.name: run for run in first_round.runs}
    errors = {}
    for point in workload_points:
        run = by_name[point.name]
        if point.paper is not None and run.error is None:
            simulated = run.outputs[point.paper_output]
            errors[point.name] = 100.0 * abs(simulated - point.paper) / point.paper
    return errors


def print_outputs(first_round: Round, errors: Dict[str, float], workload_points) -> None:
    """The simulated outputs of each point (reference-checked, not gated)."""
    papers = {point.name: point for point in workload_points}
    for run in first_round.runs:
        out = run.outputs
        if run.error is not None:
            line = "ERROR %s" % run.error
        elif "application_gbps" in out:
            line = "application %.3f GBps, NOC wire %.3f GBps" % (
                out["application_gbps"], out["noc_wire_gbps"])
        elif "mean_cycles" in out:
            line = "mean latency %.2f cycles" % out["mean_cycles"]
        elif "cycles" in out:
            line = "latency %.2f cycles" % out["cycles"]
        else:
            latency = out["latency_cycles"]
            line = ("achieved %.3f req/kcycle (offered %g), mean %.1f, p50 %.1f, p99 %.1f cycles, "
                    "drops %.4f [unvalidated: no paper value]" % (
                        out["achieved_per_kcycle"], out["rate_per_kcycle"], latency["mean"],
                        latency["p50"], latency["p99"], out["drop_fraction"]))
        if run.name in errors:
            line += "; paper %g, error %.2f%%" % (papers[run.name].paper, errors[run.name])
        print("  point %-18s %s" % (run.name, line))


def resident_bytes() -> int:
    """The process's current resident set size."""
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * resource.getpagesize()


def end_to_end_metrics(phase: Phase, import_s: float, errors: Dict[str, float],
                       yardstick_bytes: int) -> dict:
    """The ``--trace 0`` metrics; peak memory leaves out the yardstick's table."""
    run_s = statistics.median(phase.work_s())
    import_s *= phase.scale
    setup_s = import_s + statistics.median(phase.setup_s())
    print("  host speed: kernel %s; times below are scaled by %.4f" % (
        describe(phase.kernel_s), phase.scale))
    print("  run_s per round: %s" % describe(phase.work_s()))
    print("  setup_s: imports %.6f (median of %d) + builds per round %s" % (
        import_s, IMPORT_SAMPLES, describe(phase.setup_s())))
    first = phase.rounds[0]
    return {
        "run_s": run_s,
        "setup_s": setup_s,
        "sim_kcycles_per_s": first.sim_cycles / 1000.0 / run_s,
        "ops_per_s": first.ops / run_s,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                        - yardstick_bytes) / 2.0 ** 20,
        # 0 only when every paper point failed, which also fails the run.
        "model_err_pct": max(errors.values(), default=0.0),
    }


def per_layer_metrics(untraced: Phase, traced: Phase, profiler) -> dict:
    """Per-layer metrics; self times are profiled seconds per round, as measured."""
    counts = traced.rounds[0].counts
    run_s = statistics.median(untraced.work_s())
    traced_run_s = statistics.median(traced.work_s())
    owned, total = layers.self_time_by_owner(profiler, os.path.dirname(repro.__file__),
                                             str(BENCH_DIR))
    rounds = len(traced.rounds)
    metrics = {"%s.self_s" % layer: owned.get(layer, 0.0) / rounds
               for layer in layers.LAYERS if layer != "scenario"}
    metrics.update({name: float(counts.get(name, 0)) for name in LAYER_COUNTS})
    kcycles = traced.rounds[0].sim_cycles / 1000.0
    hops = counts["noc.fused_hops"] + counts["noc.hop_events"]
    metrics.update({
        "sim.events_per_kcycle": _ratio(counts["sim.events"], kcycles),
        "sim.us_per_event": _ratio(run_s * 1e6, counts["sim.events"]),
        "sim.fast_share": _ratio(counts["sim.fast_events"], counts["sim.events"]),
        "noc.fuse_ratio": _ratio(counts["noc.fused_hops"], hops),
        "noc.max_link_util": float(counts["noc.max_link_util"]),
        "coherence.hit_ratio": _ratio(counts["coherence.local_hits"],
                                      counts["coherence.local_hits"]
                                      + counts["coherence.remote_transactions"]),
        "memory.llc_util": float(counts["memory.llc_util"]),
        "node.offchip_bytes": float(counts["node.offchip_bytes"]),
        "load.drop_ratio": _ratio(counts["load.dropped"], counts["load.arrived"]),
        "load.queue_mean": _ratio(counts["load.queue_depth_sum"], counts["load.arrived"]),
        "scenario.build_s": statistics.median(untraced.setup_s()),
        "trace.overhead_ratio": _ratio(traced_run_s, run_s),
        "trace.unattributed_share": _ratio(
            total - sum(owned.get(layer, 0.0) for layer in layers.LAYERS), total),
    })
    print("  untraced run_s per round: %s" % describe(untraced.work_s()))
    print("  traced   run_s per round: %s" % describe(traced.work_s()))
    print("  traced self time per round by owner: %s" % ", ".join(
        "%s %.4f" % (owner, seconds / rounds) for owner, seconds in sorted(owned.items())))
    return metrics


def time_imports() -> float:
    """Median seconds to import the simulator's modules, over fresh re-imports.

    The first sample also pays for the standard-library modules the
    simulator pulls in (and for bytecode compilation in a fresh checkout).
    """
    samples = []
    for _ in range(IMPORT_SAMPLES):
        for name in [name for name in sys.modules
                     if name in ("points", "repro") or name.startswith("repro.")]:
            del sys.modules[name]
        start = perf_counter()
        importlib.import_module("points")
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def write_reference() -> int:
    capture = points.Capture()
    document = {}
    with capture:
        for name, workload in sorted(points.WORKLOADS.items()):
            runs = [points.run_point(point, capture)
                    for point in workload.points(points.REFERENCE_SEED)]
            failed = [run for run in runs if run.error is not None]
            if failed:
                print("error: %s %s: %s" % (name, failed[0].name, failed[0].error),
                      file=sys.stderr)
                return 1
            document[name] = {
                "seed": points.REFERENCE_SEED if workload.seed_dependent else None,
                "points": {run.name: run.reference_entry() for run in sorted(
                    runs, key=lambda run: run.name)},
            }
    with open(points.REFERENCE_PATH, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % points.REFERENCE_PATH)
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("bw_mesh", "lat_zero_load", "rw_open"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="rerun every point at the reference seed and rewrite reference.json")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print("error: the simulator sources are missing (%s)" % SRC_DIR, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    # The simulator is imported here, after the sources were found, so that
    # its import time can be measured.
    global points, repro
    import_s = time_imports()
    import repro
    import points
    if Path(repro.__file__).resolve().parent != SRC_DIR / "repro":
        print("error: imported repro from %s, not from %s" % (repro.__file__, SRC_DIR),
              file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()

    workload = points.WORKLOADS[args.workload]
    reference = points.load_reference()[workload.name]
    workload_points = workload.points(args.seed)
    checker = Checker()
    capture = points.Capture()
    before = resident_bytes()
    yardstick = hostspeed.Yardstick()
    yardstick_bytes = resident_bytes() - before
    with capture:
        timed_reference = reference["points"]
        if workload.seed_dependent and args.seed != reference["seed"]:
            # The reference pins one seed; check it untimed, then hold the
            # timed rounds at this seed to their own first run.
            run_rounds(workload.points(reference["seed"]), 0.0, reference["seed"],
                       reference["points"], checker, capture, yardstick)
            timed_reference = None
        start = perf_counter()
        budget = args.seconds / 3.0 if args.trace else args.seconds
        untraced = run_rounds(workload_points, budget, args.seed, timed_reference, checker,
                              capture, yardstick)
        profiler = traced = None
        if args.trace:
            import cProfile

            profiler = cProfile.Profile()
            traced = run_rounds(workload_points, args.seconds - (perf_counter() - start),
                                args.seed, timed_reference, checker, capture, yardstick,
                                profiler)
    print("workload %s, seed %d: %d untraced + %d traced rounds of %d points" % (
        workload.name, args.seed, len(untraced.rounds), len(traced.rounds) if traced else 0,
        len(workload_points)))
    errors = model_errors(workload_points, untraced.rounds[0])
    print_outputs(untraced.rounds[0], errors, workload_points)
    for failure in checker.failures[:20]:
        print("  FAILED %s" % failure)
    print("  error_rate = %.6f (%d of %d point runs failed)" % (
        _ratio(len(checker.failures), checker.attempted), len(checker.failures),
        checker.attempted))
    if args.trace:
        values = per_layer_metrics(untraced, traced, profiler)
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in values.items()}
    else:
        values = end_to_end_metrics(untraced, import_s, errors, yardstick_bytes)
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
    for name, metric in metrics.items():
        print("  %-32s %.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
