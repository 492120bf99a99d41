"""repro.lint — AST-based determinism & kernel-contract linter.

The sixth component registry: named static-analysis rules (REP001–REP009,
plus any ``@register_lint_rule`` plugin) that machine-check the contracts
every reproduced figure rests on — seeded randomness, no wall-clock reads on
simulation paths, deterministic iteration in the kernel, manifest-gated
component registration, ``__slots__`` integrity on hot-path classes,
fingerprint-stable serialization of optional spec keys, read-only probes and
derived fault-model seeds.

Typical use::

    from repro.lint import lint_paths
    findings = lint_paths(["src/repro"])          # [] when the tree is clean

or from the CLI::

    repro-experiments lint src/repro --json -
    repro-experiments lint src/repro --rules REP001,REP002
    repro-experiments lint src/repro --baseline tools/lint_baseline.json

Rules are purely syntactic (the tree is parsed, never imported or executed)
and run in a single parse pass per file; see :mod:`repro.lint.driver`.
"""

from repro.lint.baseline import BASELINE_SCHEMA, Baseline
from repro.lint.driver import (
    LintContext,
    LintModule,
    discover_manifest,
    iter_python_files,
    lint_paths,
    resolve_rules,
)
from repro.lint.finding import Finding
from repro.lint.report import REPORT_SCHEMA, parse_report, render_json, render_text
from repro.lint.rules import LintRule
from repro.scenario.registry import LINT_RULES, register_lint_rule

__all__ = [
    "BASELINE_SCHEMA",
    "Baseline",
    "Finding",
    "LINT_RULES",
    "LintContext",
    "LintModule",
    "LintRule",
    "REPORT_SCHEMA",
    "discover_manifest",
    "iter_python_files",
    "lint_paths",
    "parse_report",
    "register_lint_rule",
    "render_json",
    "render_text",
    "resolve_rules",
]
