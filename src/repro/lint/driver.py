"""Single-pass lint driver: parse each file once, feed every rule.

The driver walks the requested paths, parses each ``.py`` file with
:mod:`ast` exactly once and wraps it in a :class:`LintModule` — a prebuilt
index (parent links, nodes grouped by type, import aliases) that every rule
shares, so adding a rule never adds a tree traversal.  Rules come from the
``LINT_RULES`` component registry (:func:`repro.scenario.registry
.register_lint_rule`); each is instantiated fresh per run, sees every module
through :meth:`~repro.lint.rules.LintRule.check`, and may emit tree-wide
findings from :meth:`~repro.lint.rules.LintRule.finish` (used by the
registry-discipline rule, which needs the whole tree before it can compare
against the manifest).
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.errors import LintError
from repro.lint.finding import Finding
from repro.scenario.registry import LINT_RULES

#: Rule code attached to files the driver itself cannot parse.
SYNTAX_ERROR_CODE = "REP000"

#: File name of the checked-in registry inventory, discovered by walking up
#: from the linted root (see :func:`discover_manifest`).
_MANIFEST_RELPATH = os.path.join("tests", "data", "registry_manifest.json")


class LintModule:
    """One parsed source file plus the shared single-pass index.

    The constructor performs the only full walk of the tree: it records each
    node's parent, groups nodes by type and resolves import aliases
    (``import random as rnd`` → ``rnd`` maps to ``random``;
    ``from time import perf_counter`` → ``perf_counter`` maps to
    ``time.perf_counter``).  Rules then query the index instead of walking.
    """

    __slots__ = ("path", "relpath", "source", "tree", "parents", "nodes",
                 "module_aliases", "from_imports")

    def __init__(self, path: str, relpath: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.relpath = relpath.replace(os.sep, "/")
        self.source = source
        self.tree = tree
        self.parents: Dict[ast.AST, ast.AST] = {}
        self.nodes: Dict[type, List[ast.AST]] = {}
        #: Local name → imported module path (``import x.y as z`` → z: x.y).
        self.module_aliases: Dict[str, str] = {}
        #: Local name → dotted origin (``from m import n as a`` → a: m.n).
        self.from_imports: Dict[str, str] = {}
        for parent in ast.walk(tree):
            self.nodes.setdefault(type(parent), []).append(parent)
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
            if isinstance(parent, ast.Import):
                for alias in parent.names:
                    self.module_aliases[alias.asname or alias.name.partition(".")[0]] = alias.name
            elif isinstance(parent, ast.ImportFrom) and parent.module and not parent.level:
                for alias in parent.names:
                    self.from_imports[alias.asname or alias.name] = (
                        "%s.%s" % (parent.module, alias.name)
                    )

    # ------------------------------------------------------------------
    # Index queries
    # ------------------------------------------------------------------
    def of_type(self, *types: type) -> List[ast.AST]:
        """Every node of the given AST type(s), in source order of discovery."""
        found: List[ast.AST] = []
        for node_type in types:
            found.extend(self.nodes.get(node_type, []))
        return found

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        """The parent chain of ``node``, innermost first."""
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def enclosing(self, node: ast.AST, *types: type) -> Optional[ast.AST]:
        """The nearest ancestor of one of the given types, or None."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, types):
                return ancestor
        return None

    def qualified_name(self, node: ast.AST) -> Optional[str]:
        """A call target as a canonical dotted name, or None.

        Resolves through the module's import aliases, so ``perf_counter()``
        after ``from time import perf_counter`` and ``t.perf_counter()``
        after ``import time as t`` both yield ``"time.perf_counter"``.
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = current.id
        origin = self.from_imports.get(root) or self.module_aliases.get(root, root)
        parts.append(origin)
        return ".".join(reversed(parts))


class LintContext:
    """Run-wide state shared by every rule: the root, manifest, modules."""

    def __init__(self, root: str, manifest_path: Optional[str],
                 manifest: Optional[Dict[str, List[str]]]) -> None:
        self.root = root
        self.manifest_path = manifest_path
        self.manifest = manifest
        #: Whether the linted root looks like the whole ``repro`` package
        #: (the registry-discipline rule only cross-checks the manifest's
        #: reverse direction — names registered nowhere — on full-tree runs).
        self.whole_package = os.path.isfile(os.path.join(root, "scenario", "registry.py"))
        self.modules: List[LintModule] = []


def discover_manifest(root: str) -> Optional[str]:
    """Walk up from ``root`` looking for ``tests/data/registry_manifest.json``."""
    current = os.path.abspath(root)
    for _ in range(8):
        candidate = os.path.join(current, _MANIFEST_RELPATH)
        if os.path.isfile(candidate):
            return candidate
        parent = os.path.dirname(current)
        if parent == current:
            break
        current = parent
    return None


def iter_python_files(paths: Sequence[str]) -> Tuple[str, List[str]]:
    """Resolve the requested paths to ``(root, sorted .py files)``."""
    if not paths:
        raise LintError("no paths to lint")
    absolute = [os.path.abspath(path) for path in paths]
    for path in absolute:
        if not os.path.exists(path):
            raise LintError("lint path %s does not exist" % path)
    roots = [path if os.path.isdir(path) else os.path.dirname(path) for path in absolute]
    root = roots[0] if len(roots) == 1 else os.path.commonpath(roots)
    files: List[str] = []
    for path in absolute:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if not d.startswith((".", "__pycache__")))
                files.extend(os.path.join(dirpath, name)
                             for name in sorted(filenames) if name.endswith(".py"))
        elif path.endswith(".py"):
            files.append(path)
    return root, sorted(dict.fromkeys(files))


def resolve_rules(codes: Optional[Sequence[str]] = None) -> List[object]:
    """Instantiate the selected rules (all registered rules by default)."""
    names = list(codes) if codes else LINT_RULES.names()
    return [LINT_RULES.get(name)() for name in names]


def lint_paths(paths: Sequence[str], rules: Optional[Sequence[str]] = None,
               manifest_path: Optional[str] = None) -> List[Finding]:
    """Lint the given files/directories and return sorted findings.

    ``rules`` selects a subset by code (default: every registered rule);
    ``manifest_path`` overrides the upward search for the registry manifest
    (pass a path for fixture trees, or rely on discovery for real runs).
    """
    root, files = iter_python_files(paths)
    if manifest_path is None:
        manifest_path = discover_manifest(root)
    manifest = None
    if manifest_path is not None:
        import json

        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as exc:
            raise LintError("cannot read registry manifest %s: %s" % (manifest_path, exc))
    context = LintContext(root, manifest_path, manifest)
    active = resolve_rules(rules)
    findings: List[Finding] = []
    for path in files:
        relpath = os.path.relpath(path, root)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            tree = ast.parse(source, filename=path)
        except OSError as exc:
            raise LintError("cannot read %s: %s" % (path, exc))
        except SyntaxError as exc:
            findings.append(Finding(
                code=SYNTAX_ERROR_CODE, path=relpath.replace(os.sep, "/"),
                line=exc.lineno or 0, col=(exc.offset or 1) - 1,
                message="file does not parse: %s" % exc.msg,
            ))
            continue
        module = LintModule(path, relpath, source, tree)
        context.modules.append(module)
        for rule in active:
            findings.extend(rule.check(module, context))
    for rule in active:
        findings.extend(rule.finish(context))
    return sorted(findings, key=Finding.sort_key)
