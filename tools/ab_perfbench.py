#!/usr/bin/env python3
"""Interleaved A/B of the repository benchmark: a git ref against the working tree.

Run from anywhere inside the repository::

    python tools/ab_perfbench.py --ref HEAD~1 --workload bw_mesh --pairs 10 --seconds 30
    python tools/ab_perfbench.py --ref main --workload lat_zero_load --workload rw_open \\
        --pairs 10 --seconds 30 --seed 2

Both sides run from fresh copies under one temporary directory, removed on
exit: ``parent`` is the ref's ``git archive``, and ``change`` holds the files
``git ls-files --cached --others --exclude-standard`` lists, as they are in
the working tree (uncommitted edits and untracked files included, ignored
files left out).  Neither side runs from the repository, so the two differ in
their code only.  Both sides must run the same benchmark, so the tool refuses
when ``perfbench/`` or ``BENCHMARK.json`` differs between the ref and the
working tree.

For each workload it runs ``--pairs`` pairs.  A pair is one run of
``python3 perfbench/run.py --workload W --seed K --seconds S --trace 0`` in
each tree, each a fresh process; successive pairs alternate which side runs
first.  For every end-to-end metric of ``BENCHMARK.json`` (name, unit and
which direction is better come from there) it prints both medians with their
quartiles [q1, q3], the ratio of the change to the parent with its 95%
bootstrap interval (``BOOTSTRAP_RESAMPLES`` resamples of the pairs, drawn
with the fixed seed ``BOOTSTRAP_SEED``, so the same pairs always give the
same interval), the pairs the change won and lost (ties count for neither)
and whether a gain may be claimed: over at least ``MIN_CLAIM_PAIRS`` pairs,
the change won at least nine tenths of them and the medians differ, in the
change's favour, by more than the parent's interquartile range.  Below ``MIN_CLAIM_PAIRS`` pairs the
claim column reads ``n/a``.  A metric regressed when the change lost every
pair and its median is worse than the parent's by more than the metric's
``bound`` in ``BENCHMARK.json``, at any number of pairs.  It prints every
run's ``correct`` and ``failed``.  Last, one ``--trace 1`` run
per side prints the exact layer counts side by side; a difference there is a
behaviour change.

Exit status: 0 when every run was correct and no metric regressed, 1 when a
run failed or was incorrect or a metric regressed, 2 on usage errors
(including the refusal above).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

#: Exact per-round counts compared between the two trees with ``--trace 1``.
LAYER_COUNTS = ("sim.events", "sim.peak_pending", "noc.fused_hops", "noc.hop_events")
#: What the benchmark reads and runs; both trees must have the same.
BENCHMARK_PATHS = ("perfbench", "BENCHMARK.json")
#: Fewest pairs a gain may be claimed on.  At 5 pairs, one side of an A/A
#: run (identical code on both sides) won every pair of some metric in most
#: runs, once by more than the parent's interquartile range.
MIN_CLAIM_PAIRS = 10
#: Resamples of the pairs behind each ratio's bootstrap interval, and the
#: seed they are drawn with.
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 1
#: Coverage of that interval.
BOOTSTRAP_LEVEL = 0.95


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) of ``values``, interpolated inclusively."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def ratio_interval(pairs: Sequence[Tuple[float, float]]) -> Optional[Tuple[float, float]]:
    """The bootstrap interval of ``median(change) / median(parent)``.

    ``pairs`` are ``(parent, change)`` values.  Each resample draws as many
    whole pairs as there are, with replacement; the interval holds the
    central ``BOOTSTRAP_LEVEL`` of the resampled ratios.  None when a
    resample's parent median is 0.
    """
    draws = random.Random(BOOTSTRAP_SEED)
    ratios = []
    for _ in range(BOOTSTRAP_RESAMPLES):
        sample = draws.choices(pairs, k=len(pairs))
        before = statistics.median([p for p, _ in sample])
        if not before:
            return None
        ratios.append(statistics.median([c for _, c in sample]) / before)
    ratios.sort()
    cut = round(BOOTSTRAP_RESAMPLES * (1.0 - BOOTSTRAP_LEVEL) / 2.0)
    return ratios[cut], ratios[-cut - 1]


def summarize(metrics: Sequence[dict], parent: Sequence[Optional[Dict[str, float]]],
              change: Sequence[Optional[Dict[str, float]]]) -> List[dict]:
    """One row per metric over the pairs ``zip(parent, change)``.

    ``metrics`` are ``BENCHMARK.json``'s ``end_to_end`` entries; each run is
    a ``{metric name: value}`` dict, or None when the run produced no
    metrics.  A pair counts for a metric only when both runs report it.
    """
    rows = []
    for metric in metrics:
        name = metric["name"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        pairs = [(p[name], c[name]) for p, c in zip(parent, change)
                 if p is not None and c is not None and name in p and name in c]
        row = {"name": name, "unit": metric["unit"], "pairs": len(pairs), "won": 0,
               "lost": 0, "parent": None, "change": None, "ratio": None, "interval": None,
               "claim": False, "regressed": False}
        if pairs:
            before = quartiles([p for p, _ in pairs])
            after = quartiles([c for _, c in pairs])
            won = sum(1 for p, c in pairs if sign * (p - c) > 0)
            lost = sum(1 for p, c in pairs if sign * (c - p) > 0)
            row.update(
                parent=before, change=after, won=won, lost=lost,
                ratio=after[1] / before[1] if before[1] else None,
                interval=ratio_interval(pairs),
                claim=(len(pairs) >= MIN_CLAIM_PAIRS and 10 * won >= 9 * len(pairs)
                       and sign * (before[1] - after[1]) > before[2] - before[0]),
                regressed=(lost == len(pairs)
                           and sign * (after[1] - before[1]) > metric["bound"] * before[1]),
            )
        rows.append(row)
    return rows


def format_rows(rows: Sequence[dict]) -> str:
    """The summary table, one line per metric."""
    def spread(quart):
        return "-" if quart is None else "%.4g [%.4g, %.4g]" % (quart[1], quart[0], quart[2])

    def claim(row):
        if row["pairs"] < MIN_CLAIM_PAIRS:
            return "n/a (<%d pairs)" % MIN_CLAIM_PAIRS
        return "yes" if row["claim"] else "no"

    lines = ["  %-18s %-9s %-28s %-28s %-8s %-18s %-6s %-5s %-16s %s" % (
        "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]",
        "ratio", "ratio %g%% interval" % (100 * BOOTSTRAP_LEVEL), "won", "lost", "claim",
        "regressed")]
    for row in rows:
        ratio = "-" if row["ratio"] is None else "%.4f" % row["ratio"]
        interval = "-" if row["interval"] is None else "[%.4f, %.4f]" % row["interval"]
        lines.append("  %-18s %-9s %-28s %-28s %-8s %-18s %-6s %-5d %-16s %s" % (
            row["name"], row["unit"], spread(row["parent"]), spread(row["change"]), ratio,
            interval, "%d/%d" % (row["won"], row["pairs"]), row["lost"], claim(row),
            "YES" if row["regressed"] else "no"))
    return "\n".join(lines)


def run_perfbench(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One fresh benchmark process in ``tree``; its last output line, parsed.

    A run that exits non-zero or prints no JSON comes back as
    ``{"correct": False, "failed": None, "metrics": {}}``.
    """
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except ValueError:
            pass
    sys.stderr.write("perfbench in %s exited %d:\n%s\n" % (tree, done.returncode,
                                                          done.stderr[-2000:]))
    return {"correct": False, "failed": None, "metrics": {}}


def values(result: dict) -> Optional[Dict[str, float]]:
    """``{metric name: value}`` of a run, or None when it reported nothing."""
    metrics = result.get("metrics") or {}
    return {name: entry["value"] for name, entry in metrics.items()} or None


def git(repo: str, *args: str) -> str:
    return subprocess.run(["git", "-C", repo] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def benchmark_differs(repo: str, ref: str) -> List[str]:
    """The benchmark paths that differ between ``ref`` and the working tree."""
    changed = subprocess.run(["git", "-C", repo, "diff", "--name-only", ref, "--"]
                             + list(BENCHMARK_PATHS), check=True, capture_output=True,
                             text=True).stdout.split()
    untracked = git(repo, "ls-files", "--others", "--exclude-standard", "--",
                    *BENCHMARK_PATHS).split()
    return sorted(set(changed) | set(untracked))


def build_trees(repo: str, commit: str, scratch: str) -> Dict[str, str]:
    """Copy both sides into ``scratch``; ``{"parent": path, "change": path}``.

    ``parent`` is ``commit``'s ``git archive``.  ``change`` holds every file
    the working tree would commit: tracked files as they are on disk and
    untracked files that no ignore rule matches.
    """
    sides = {side: os.path.join(scratch, side) for side in ("parent", "change")}
    os.makedirs(sides["parent"])
    archive = subprocess.Popen(["git", "-C", repo, "archive", "--format=tar", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", sides["parent"]], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise subprocess.CalledProcessError(archive.returncode, "git archive")
    listed = subprocess.run(["git", "-C", repo, "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], check=True, capture_output=True,
                            text=True).stdout.split("\0")
    for name in listed:
        source = os.path.join(repo, name)
        if not name or not os.path.lexists(source):  # deleted in the working tree
            continue
        target = os.path.join(sides["change"], name)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(source, target, follow_symlinks=False)
    return sides


def compare(sides: Dict[str, str], workload: str, metrics: Sequence[dict], args) -> bool:
    """Run one workload's pairs and layer counts.

    True when every run was correct and no metric regressed.
    """
    results: Dict[str, List[dict]] = {"parent": [], "change": []}
    print("workload %s, seed %d: %d pairs of %g s runs" % (
        workload, args.seed, args.pairs, args.seconds), flush=True)
    for index in range(args.pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(run_perfbench(sides[side], workload, args.seed,
                                               args.seconds, 0))
        print("  pair %d (%s first): %s" % (index + 1, order[0], "; ".join(
            "%s correct=%s failed=%s" % (side, results[side][-1].get("correct"),
                                         results[side][-1].get("failed"))
            for side in ("parent", "change"))), flush=True)
    rows = summarize(metrics, [values(r) for r in results["parent"]],
                     [values(r) for r in results["change"]])
    print(format_rows(rows))
    traced = {side: run_perfbench(sides[side], workload, args.seed, args.seconds, 1)
              for side in ("parent", "change")}
    print("  layer counts per round (--trace 1):")
    for name in LAYER_COUNTS:
        counts = [(values(traced[side]) or {}).get(name) for side in ("parent", "change")]
        print("  %-18s %14s %14s  %s" % (name, counts[0], counts[1],
                                          "same" if counts[0] == counts[1] else "DIFFERS"))
    runs = results["parent"] + results["change"] + list(traced.values())
    return (all(run.get("correct") is True and run.get("failed") == 0 for run in runs)
            and not any(row["regressed"] for row in rows))


def parse_args(argv, workloads: Sequence[str]):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", required=True, help="the parent: any git commit-ish")
    parser.add_argument("--workload", action="append", required=True, choices=workloads)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    repo = git(os.path.dirname(os.path.abspath(__file__)), "rev-parse", "--show-toplevel")
    with open(os.path.join(repo, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    args = parse_args(argv, [workload["name"] for workload in benchmark["workloads"]])
    try:
        commit = git(repo, "rev-parse", "--verify", "--quiet", args.ref + "^{commit}")
    except subprocess.CalledProcessError:
        print("error: %r names no commit" % args.ref, file=sys.stderr)
        return 2
    differs = benchmark_differs(repo, commit)
    if differs:
        print("error: the benchmark differs between %s and the working tree (%s); an A/B "
              "needs the same benchmark on both sides" % (args.ref, ", ".join(differs)),
              file=sys.stderr)
        return 2
    scratch = tempfile.mkdtemp(prefix="ab_perfbench-")
    try:
        sides = build_trees(repo, commit, scratch)
        print("parent: %s (%s); change: the working tree of %s; both copied to %s"
              % (args.ref, commit[:12], repo, scratch))
        correct = [compare(sides, workload, benchmark["end_to_end"], args)
                   for workload in args.workload]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())
