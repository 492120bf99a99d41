"""Command-line entry point: ``repro-experiments``.

Subcommands::

    repro-experiments list                         # available experiments + parameters
    repro-experiments run fig7 --json              # one experiment, report JSON on stdout
    repro-experiments run table1 fig5 --output results.txt
    repro-experiments run --fast                   # the analytical (sub-second) subset
    repro-experiments run fig6 --set sizes=64,4096 --set iterations=2
    repro-experiments sweep fig6 --set design=edge,split,per_tile --parallel 4 --json out.json
    repro-experiments report out.json --csv out.csv

``run`` executes each named experiment once, with ``--set param=value``
overrides applied where the experiment declares the parameter.  ``sweep``
expands ``--set param=v1,v2,...`` axes into the cartesian product of runs
for one experiment (use ``:`` inside one axis value for list-valued
parameters, e.g. ``--set sizes=64:128,4096:8192``).  Both execute through a
:class:`repro.campaign.Campaign` — ``--parallel N`` fans out over processes,
``--cache-dir`` reuses results across invocations — and can emit the
campaign report as JSON (``--json [PATH]``), merged CSV (``--csv [PATH]``)
or plain text (default; ``--output PATH`` to also write it to a file).
``report`` reloads a saved JSON report and re-renders it.

``explore`` searches an experiment's design space with a registered search
strategy (see ``list --strategies``), evaluating points through the same
campaign layer and emitting the Pareto front, a parameter-sensitivity
ranking and (with ``--json``) a byte-reproducible explore report::

    repro-experiments explore --seed 7 --budget 12 --strategy evolve
    repro-experiments explore load_sweep --dim design=edge,split \\
        --dim window=8:32:4 --set loads=2:5 --objectives saturation,cost

``lint`` runs the AST-based determinism & kernel-contract linter
(:mod:`repro.lint`) over the given paths (the installed ``repro`` package by
default)::

    repro-experiments lint src/repro
    repro-experiments lint src/repro --baseline tools/lint_baseline.json

``watch`` tails a ``repro-obs-stream/1`` telemetry stream written by
``run``/``sweep``/``explore --stream PATH`` (per-run probe samples plus
campaign progress events; see :mod:`repro.obs`) and renders a summary::

    repro-experiments run load_sweep --stream obs.jsonl
    repro-experiments watch obs.jsonl
    repro-experiments watch obs.jsonl --follow      # live tail
    repro-experiments watch obs.jsonl --check       # validate every record

The seed interface (``repro-experiments table1 fig5``, ``--list``,
``--fast``) is still accepted and mapped onto the subcommands.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from repro.campaign import Campaign, CampaignReport, ResultCache, expand_grid, parse_sweep_axes
from repro.campaign.report import load_report
from repro.campaign.request import RunRequest
from repro.errors import ExperimentError, ReproError
from repro.experiments.registry import get_spec, iter_specs, list_experiments
from repro.experiments.runner import fast_experiments
from repro.version import PAPER_TITLE, PAPER_VENUE, __version__

_SUBCOMMANDS = ("run", "list", "sweep", "explore", "report", "lint", "watch")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of '%s' (%s)." % (PAPER_TITLE, PAPER_VENUE),
    )
    parser.add_argument("--version", action="version", version="repro %s" % __version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list available experiments, designs, topologies, workloads, "
                     "arrival processes and fault models")
    list_parser.add_argument("--json", nargs="?", const="-", metavar="PATH", default=None,
                             help="emit the experiment + component catalog as JSON "
                                  "(to PATH, or stdout)")
    list_parser.add_argument("--designs", action="store_true",
                             help="list only the registered NI designs")
    list_parser.add_argument("--topologies", action="store_true",
                             help="list only the registered topologies")
    list_parser.add_argument("--workloads", action="store_true",
                             help="list only the registered workloads")
    list_parser.add_argument("--arrivals", action="store_true",
                             help="list only the registered arrival processes")
    list_parser.add_argument("--faults", action="store_true",
                             help="list only the registered fault models")
    list_parser.add_argument("--lint-rules", action="store_true",
                             help="list only the registered lint rules")
    list_parser.add_argument("--strategies", action="store_true",
                             help="list only the registered search strategies")
    list_parser.add_argument("--probes", action="store_true",
                             help="list only the registered telemetry probes")

    run_parser = subparsers.add_parser("run", help="run experiments once each")
    run_parser.add_argument("experiments", nargs="*",
                            help="experiments to run (default: all); see 'list'")
    run_parser.add_argument("--fast", action="store_true",
                            help="run only the analytical (sub-second) experiments")
    _add_campaign_options(run_parser)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run one experiment over a parameter grid")
    sweep_parser.add_argument("experiment", help="experiment to sweep; see 'list'")
    _add_campaign_options(sweep_parser)

    explore_parser = subparsers.add_parser(
        "explore", help="search an experiment's design space with a registered strategy")
    explore_parser.add_argument("experiment", nargs="?", default="load_sweep",
                                help="experiment to explore (default: load_sweep)")
    explore_parser.add_argument("--strategy", default="evolve", metavar="NAME",
                                help="search strategy; see 'list --strategies' "
                                     "(default: evolve)")
    explore_parser.add_argument("--seed", type=int, default=0, metavar="N",
                                help="exploration seed; a fixed seed reproduces the "
                                     "exact evaluation sequence and report bytes")
    explore_parser.add_argument("--budget", type=int, default=16, metavar="N",
                                help="maximum number of evaluated design points "
                                     "(default: 16)")
    explore_parser.add_argument("--dim", dest="dims", action="append", default=[],
                                metavar="PARAM=SPEC",
                                help="search dimension: PARAM=v1,v2,... or "
                                     "PARAM=lo:hi[:steps]; repeatable (default: the "
                                     "experiment's design/topology/arrivals axes)")
    explore_parser.add_argument("--set", dest="assignments", action="append", default=[],
                                metavar="PARAM=VALUE",
                                help="fixed parameter override applied to every "
                                     "evaluated point; repeatable")
    explore_parser.add_argument("--objectives", default="saturation,p99,cost",
                                metavar="NAMES",
                                help="comma-separated objectives "
                                     "(default: saturation,p99,cost)")
    explore_parser.add_argument("--strategy-param", dest="strategy_params",
                                action="append", default=[], metavar="NAME=VALUE",
                                help="strategy tunable override; repeatable "
                                     "(see 'list --strategies' for the tunables)")
    explore_parser.add_argument("--max-rounds", type=int, default=64, metavar="N",
                                help="safety cap on strategy rounds (default: 64)")
    explore_parser.add_argument("--parallel", type=int, default=1, metavar="N",
                                help="evaluate up to N points in parallel processes")
    explore_parser.add_argument("--cache-dir", metavar="DIR", default=None,
                                help="persist/reuse results keyed by content hash in DIR")
    explore_parser.add_argument("--json", nargs="?", const="-", metavar="PATH",
                                default=None,
                                help="emit the explore report as JSON (to PATH, or stdout)")
    explore_parser.add_argument("--output", metavar="PATH", default=None,
                                help="also write the plain-text report to PATH")
    _add_stream_options(explore_parser)

    lint_parser = subparsers.add_parser(
        "lint", help="statically check the determinism & kernel contracts (REP rules)")
    lint_parser.add_argument("paths", nargs="*", metavar="PATH",
                             help="files/directories to lint (default: the installed "
                                  "repro package)")
    lint_parser.add_argument("--rules", metavar="CODES", default=None,
                             help="comma-separated rule subset, e.g. REP001,REP002 "
                                  "(default: every registered rule)")
    lint_parser.add_argument("--baseline", metavar="PATH", default=None,
                             help="suppressions baseline JSON; matched findings are "
                                  "reported but do not fail the gate")
    lint_parser.add_argument("--write-baseline", metavar="PATH", default=None,
                             help="write the current findings as a suppressions "
                                  "baseline to PATH and exit 0")
    lint_parser.add_argument("--manifest", metavar="PATH", default=None,
                             help="registry manifest for rule REP004 (default: "
                                  "discovered by walking up from the linted root)")
    lint_parser.add_argument("--json", nargs="?", const="-", metavar="PATH", default=None,
                             help="emit the lint report as JSON (to PATH, or stdout)")

    watch_parser = subparsers.add_parser(
        "watch", help="tail a telemetry stream written with --stream and render a summary")
    watch_parser.add_argument("path", metavar="PATH",
                              help="stream file (JSONL, repro-obs-stream/1)")
    watch_parser.add_argument("--follow", action="store_true",
                              help="keep tailing and re-render as records arrive")
    watch_parser.add_argument("--check", action="store_true",
                              help="validate every record against the stream schema; "
                                   "exit 1 on any invalid record")
    watch_parser.add_argument("--interval-s", type=float, default=1.0, metavar="S",
                              help="re-render interval with --follow (default: 1.0)")

    report_parser = subparsers.add_parser(
        "report", help="re-render a previously saved JSON campaign report")
    report_parser.add_argument("paths", nargs="+", metavar="PATH",
                               help="JSON report files written by run/sweep --json")
    report_parser.add_argument("--csv", nargs="?", const="-", metavar="PATH", default=None,
                               help="emit merged CSV instead of plain text")
    report_parser.add_argument("--output", metavar="PATH", default=None,
                               help="also write the rendered text to PATH")
    return parser


def _add_campaign_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--set", dest="assignments", action="append", default=[],
                        metavar="PARAM=VALUE",
                        help="parameter override; repeatable (sweep: comma-separated axis values)")
    parser.add_argument("--parallel", type=int, default=1, metavar="N",
                        help="run up to N experiments in parallel processes")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="persist/reuse results keyed by content hash in DIR")
    parser.add_argument("--json", nargs="?", const="-", metavar="PATH", default=None,
                        help="emit the campaign report as JSON (to PATH, or stdout)")
    parser.add_argument("--csv", nargs="?", const="-", metavar="PATH", default=None,
                        help="emit the campaign results as merged CSV (to PATH, or stdout)")
    parser.add_argument("--output", metavar="PATH", default=None,
                        help="also write the plain-text report to PATH")
    _add_stream_options(parser)


def _add_stream_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--stream", metavar="PATH", default=None,
                        help="stream live telemetry (repro-obs-stream/1 JSONL) to "
                             "PATH (a file or FIFO); see 'watch'")
    parser.add_argument("--probes", metavar="NAMES", default=None,
                        help="comma-separated probe subset for --stream "
                             "(default: every registered probe; see 'list --probes')")
    parser.add_argument("--sample-cycles", type=float, default=None, metavar="CYCLES",
                        help="sim-time cadence between probe samples "
                             "(default: 500 cycles)")


def _normalize_legacy(argv: List[str]) -> List[str]:
    """Map the seed CLI (positional names, --list, --fast) onto subcommands."""
    if "--list" in argv:
        return ["list"] + [arg for arg in argv if arg != "--list"]
    if not argv:
        return ["run"]
    head = argv[0]
    if head in _SUBCOMMANDS or head in ("-h", "--help", "--version"):
        return argv
    return ["run"] + argv


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(_normalize_legacy(argv))
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "explore":
            return _cmd_explore(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "watch":
            return _cmd_watch(args)
        return _cmd_report(args)
    except (ReproError, OSError) as exc:
        print("repro-experiments: error: %s" % exc, file=sys.stderr)
        return 2


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _registry_catalog() -> Dict[str, List[Dict[str, object]]]:
    """The component registries as a JSON-native inventory."""
    from repro.scenario.registry import (
        ARRIVALS,
        EXPLORE_STRATEGIES,
        FAULT_MODELS,
        LINT_RULES,
        NI_DESIGNS,
        PROBES,
        TOPOLOGIES,
        WORKLOADS,
    )

    designs = [
        {
            "name": entry.name,
            "label": entry.metadata.get("label", entry.name),
            "messaging": bool(entry.metadata.get("messaging", True)),
            "summary": entry.summary,
        }
        for entry in NI_DESIGNS.entries()
    ]
    topologies = [
        {
            "name": entry.name,
            "scope": entry.metadata.get("scope", "chip"),
            "summary": entry.summary,
        }
        for entry in TOPOLOGIES.entries()
    ]
    def parameterized(registry) -> List[Dict[str, object]]:
        # Workloads, arrival processes, fault models and search strategies
        # share the param_defaults protocol.
        return [
            {
                "name": entry.name,
                "parameters": {
                    key: list(value) if isinstance(value, tuple) else value
                    for key, value in dict(entry.component.param_defaults).items()
                },
                "summary": entry.summary,
            }
            for entry in registry.entries()
        ]

    lint_rules = [
        {
            "name": entry.name,
            "title": entry.metadata.get("title", entry.name),
            "summary": entry.summary,
        }
        for entry in LINT_RULES.entries()
    ]

    return {"designs": designs, "topologies": topologies,
            "workloads": parameterized(WORKLOADS), "arrivals": parameterized(ARRIVALS),
            "faults": parameterized(FAULT_MODELS), "lint_rules": lint_rules,
            "strategies": parameterized(EXPLORE_STRATEGIES),
            "probes": parameterized(PROBES)}


def _cmd_list(args: argparse.Namespace) -> int:
    registries = _registry_catalog()
    if args.json is not None:
        import json
        catalog = {
            "schema": "repro-catalog/1",
            "experiments": [
                {
                    "name": spec.name,
                    "title": spec.title,
                    "description": spec.description,
                    "fast": spec.fast,
                    "tags": list(spec.tags),
                    "parameters": [
                        {
                            "name": p.name,
                            "type": p.kind.__name__,
                            "repeated": p.repeated,
                            "default": list(p.default) if isinstance(p.default, tuple) else p.default,
                            "choices": list(p.choice_values()) if p.choice_values() is not None else None,
                            "help": p.help,
                        }
                        for p in spec.parameters
                    ],
                }
                for spec in iter_specs()
            ],
            "registries": registries,
        }
        _emit(json.dumps(catalog, indent=2), args.json)
        return 0
    selected = [
        ("NI designs", "designs", args.designs),
        ("Topologies", "topologies", args.topologies),
        ("Workloads", "workloads", args.workloads),
        ("Arrival processes", "arrivals", args.arrivals),
        ("Fault models", "faults", args.faults),
        ("Lint rules", "lint_rules", args.lint_rules),
        ("Search strategies", "strategies", args.strategies),
        ("Telemetry probes", "probes", args.probes),
    ]
    only_registries = any(flag for _, _, flag in selected)
    if not only_registries:
        for spec in iter_specs():
            print(spec.describe())
        print()
    for title, key, flag in selected:
        if only_registries and not flag:
            continue
        print("%s:" % title)
        for item in registries[key]:
            details = []
            if key == "designs":
                details.append(item["label"])
                details.append("messaging" if item["messaging"] else "load/store baseline")
            elif key == "topologies":
                details.append("%s-scope" % item["scope"])
            elif key == "lint_rules":
                details.append(item["title"])
            else:  # workloads, arrivals, faults and strategies declare parameters
                details.append("params: %s" % (", ".join(sorted(item["parameters"])) or "none"))
            summary = (" - %s" % item["summary"]) if item["summary"] else ""
            print("  %s (%s)%s" % (item["name"], "; ".join(details), summary))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    names = list(args.experiments)
    if args.fast and not names:
        names = fast_experiments()
    if not names:
        names = list_experiments()
    requests = []
    matched_keys = set()
    for name in names:
        spec = get_spec(name)
        declared = {parameter.name for parameter in spec.parameters}
        overrides: Dict[str, object] = {}
        for assignment in args.assignments:
            key = assignment.partition("=")[0]
            if key in declared:
                overrides.update(spec.parse_overrides([assignment]))
                matched_keys.add(key)
        requests.append(RunRequest(name, overrides))
    unmatched = [assignment for assignment in args.assignments
                 if assignment.partition("=")[0] not in matched_keys]
    if unmatched:
        raise ExperimentError(
            "--set %s matches no parameter of the selected experiment(s) %s"
            % (", ".join(unmatched), ", ".join(names))
        )
    return _execute(requests, args)


def _cmd_sweep(args: argparse.Namespace) -> int:
    axes = parse_sweep_axes(args.experiment, args.assignments)
    requests = expand_grid(args.experiment, axes)
    return _execute(requests, args)


def _cmd_explore(args: argparse.Namespace) -> int:
    import json

    from repro.explore import Explorer, build_space

    spec = get_spec(args.experiment)
    fixed = spec.parse_overrides(args.assignments)
    strategy_params: Dict[str, object] = {}
    for assignment in args.strategy_params:
        name, separator, text = assignment.partition("=")
        if not separator or not name or not text:
            raise ExperimentError(
                "malformed --strategy-param %r (expected NAME=VALUE)" % assignment
            )
        try:
            strategy_params[name] = json.loads(text)
        except json.JSONDecodeError:
            strategy_params[name] = text
    objectives = [name.strip() for name in args.objectives.split(",") if name.strip()]
    space = build_space(args.experiment, args.dims, fixed)
    cache = ResultCache(args.cache_dir) if args.cache_dir is not None else None
    obs = _build_obs(args)
    try:
        explorer = Explorer(
            space,
            strategy=args.strategy,
            objectives=objectives,
            seed=args.seed,
            budget=args.budget,
            strategy_params=strategy_params,
            cache=cache,
            max_workers=args.parallel,
            max_rounds=args.max_rounds,
            obs=obs,
        )
        report = explorer.run()
    finally:
        if obs is not None:
            obs.close()
    if args.json is not None:
        _emit(report.to_json(), args.json)
    else:
        print(report.format())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report.format() + "\n")
    return 1 if report.totals.get("failed", 0) else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import os

    from repro.lint import (
        Baseline,
        iter_python_files,
        lint_paths,
        render_json,
        render_text,
        resolve_rules,
    )

    if args.paths:
        paths = list(args.paths)
    else:
        import repro

        paths = [os.path.dirname(os.path.abspath(repro.__file__))]
    from repro.scenario.registry import LINT_RULES

    rules = [code.strip() for code in args.rules.split(",") if code.strip()] \
        if args.rules else None
    resolve_rules(rules)  # fail fast (with suggestions) on unknown codes
    rule_names = rules if rules else LINT_RULES.names()
    root, files = iter_python_files(paths)
    findings = lint_paths(paths, rules=rules, manifest_path=args.manifest)
    if args.write_baseline:
        baseline = Baseline.from_findings(findings)
        baseline.save(args.write_baseline)
        print("wrote %d suppression(s) to %s" % (len(baseline), args.write_baseline))
        return 0
    suppressed_count = 0
    if args.baseline:
        kept, suppressed = Baseline.load(args.baseline).apply(findings)
        findings, suppressed_count = kept, len(suppressed)
    if args.json is not None:
        _emit(render_json(findings, len(files), rule_names,
                          suppressed=suppressed_count, root=root), args.json)
    else:
        print(render_text(findings, len(files), rule_names, suppressed=suppressed_count))
    return 1 if findings else 0


def _cmd_report(args: argparse.Namespace) -> int:
    merged = CampaignReport()
    for path in args.paths:
        report = load_report(path)
        merged.entries.extend(report.entries)
        merged.wall_time_s += report.wall_time_s
        merged.max_workers = max(merged.max_workers, report.max_workers)
    text = merged.format()
    if args.csv is not None:
        _emit(merged.to_csv(), args.csv)
    else:
        print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 1 if merged.failed else 0


# ----------------------------------------------------------------------
# Shared execution/output
# ----------------------------------------------------------------------
def _execute(requests: List[RunRequest], args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir) if args.cache_dir is not None else None
    obs = _build_obs(args)
    try:
        campaign = Campaign(requests, cache=cache, max_workers=args.parallel, obs=obs)
        report = campaign.run()
    finally:
        if obs is not None:
            obs.close()
    wrote = False
    if args.json is not None:
        _emit(report.to_json(), args.json)
        wrote = True
    if args.csv is not None:
        _emit(report.to_csv(), args.csv)
        wrote = True
    text = report.format()
    if not wrote:
        print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    if report.failed:
        for entry in report.entries:
            if not entry.ok:
                print("repro-experiments: %s failed: %s" % (entry.request.label(), entry.error),
                      file=sys.stderr)
        return 1
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.obs.watch import watch_command

    return watch_command(
        args.path, follow=args.follow, check=args.check, interval_s=args.interval_s
    )


def _build_obs(args: argparse.Namespace):
    """Build the ObsSession selected by --stream/--probes/--sample-cycles."""
    stream_path = getattr(args, "stream", None)
    if stream_path is None:
        if getattr(args, "probes", None) or getattr(args, "sample_cycles", None):
            raise ExperimentError("--probes/--sample-cycles require --stream PATH")
        return None
    from repro.obs.session import ObsSession
    from repro.obs.stream import ObsStream

    probe_names = None
    if args.probes:
        probe_names = [name.strip() for name in args.probes.split(",") if name.strip()]
    return ObsSession(
        ObsStream.open(stream_path),
        probes=probe_names,
        sample_cycles=args.sample_cycles,
    )


def _emit(text: str, destination: str) -> None:
    """Write text to a file, or stdout when destination is '-'."""
    if destination == "-":
        print(text)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
