"""The built-in determinism & kernel-contract lint rules (REP001–REP013).

Each rule is a :class:`LintRule` subclass registered under its code through
:func:`repro.scenario.registry.register_lint_rule` — the same decorator
registry pattern as the NI designs, topologies, workloads, arrival processes
and fault models, so third-party checks plug in without editing this module.
Rules are purely syntactic: they inspect the :class:`~repro.lint.driver
.LintModule` index built by the driver's single parse pass and never import
or execute the code under analysis.

The contracts enforced here are the ones every reproduced figure rests on:
all randomness is seeded, simulation paths never read wall clocks, iteration
in the kernel is deterministically ordered, components register through the
manifest-gated registries, ``__slots__`` classes stay dict-free, spec
documents only serialize optional registry keys when they are set
(fingerprint stability), telemetry probes observe the simulation without
mutating it, fault models derive their seeds, model continuations are
``(callback, *args)`` pairs whose callback is a plain function with its owner
as the first argument, never a closure or a bound method, only the kernel
moves the clock, and no code reads the process environment.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.lint.driver import LintContext, LintModule
from repro.lint.finding import Finding
from repro.scenario.registry import REGISTRIES, register_lint_rule


class LintRule:
    """Base class for lint rules.

    Subclasses set :attr:`code`/:attr:`title`, implement :meth:`check` (one
    call per parsed module) and may implement :meth:`finish` (one call after
    every module has been seen — for whole-tree invariants).  Instances are
    created fresh for every run, so per-run state lives on ``self``.
    """

    code: str = ""
    title: str = ""

    @property
    def doc_url(self) -> str:
        """README anchor documenting this rule."""
        slug = ("%s %s" % (self.code, self.title)).lower().replace(" ", "-")
        return "README.md#%s" % slug

    def check(self, module: LintModule, context: LintContext) -> Iterator[Finding]:
        return iter(())

    def finish(self, context: LintContext) -> Iterator[Finding]:
        return iter(())

    def finding(self, module: Optional[LintModule], node: Optional[ast.AST],
                message: str, path: Optional[str] = None) -> Finding:
        """Build a finding at ``node`` (or a whole-file finding)."""
        return Finding(
            code=self.code,
            path=path if path is not None else module.relpath,
            line=getattr(node, "lineno", 0) if node is not None else 0,
            col=getattr(node, "col_offset", 0) if node is not None else 0,
            message=message,
            doc_url=self.doc_url,
        )


# ----------------------------------------------------------------------
# REP001 — wall-clock ban
# ----------------------------------------------------------------------
@register_lint_rule("REP001", title="wall-clock ban")
class WallClockRule(LintRule):
    """Simulation code must never read host wall-clock time.

    Simulated time comes from ``Simulator.now``; a wall-clock read anywhere
    on a simulation path makes results depend on host speed and breaks
    byte-identity.  Only the perf-measurement and campaign-metadata modules
    (which report how long real runs took) are allowed to read clocks.
    """

    code = "REP001"
    title = "wall-clock ban"

    #: Clock-reading callables, as canonical dotted names.
    BANNED = frozenset({
        "time.time", "time.time_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "time.process_time", "time.process_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })

    #: Modules (relative to the linted root) that measure wall time on
    #: purpose: the perf-counter session and campaign/run metadata writers.
    ALLOWED_MODULES = frozenset({
        "sim/perf.py",
        "campaign/runner.py",
        "scenario/builder.py",
        "experiments/spec.py",
    })

    def check(self, module: LintModule, context: LintContext) -> Iterator[Finding]:
        if module.relpath in self.ALLOWED_MODULES:
            return
        for call in module.of_type(ast.Call):
            name = module.qualified_name(call.func)
            if name in self.BANNED:
                yield self.finding(
                    module, call,
                    "wall-clock read %s() on a simulation path; use Simulator.now "
                    "for simulated time (wall time belongs in the perf/campaign "
                    "metadata modules only)" % name,
                )


# ----------------------------------------------------------------------
# REP002 — unseeded randomness
# ----------------------------------------------------------------------
@register_lint_rule("REP002", title="unseeded randomness")
class UnseededRandomRule(LintRule):
    """All randomness must flow through a seeded ``random.Random`` instance.

    Calls on the ``random`` module's global (hidden, shared, unseeded) RNG —
    or on ``random.SystemRandom`` — make runs irreproducible and poison every
    content-hash cache entry downstream.  Construct ``random.Random(seed)``
    and call methods on the instance instead.
    """

    code = "REP002"
    title = "unseeded randomness"

    #: The only attribute of the random module that may be called directly.
    ALLOWED_ATTRS = frozenset({"Random"})

    def check(self, module: LintModule, context: LintContext) -> Iterator[Finding]:
        for imp in module.of_type(ast.ImportFrom):
            if imp.module == "random" and not imp.level:
                for alias in imp.names:
                    if alias.name not in self.ALLOWED_ATTRS:
                        yield self.finding(
                            module, imp,
                            "'from random import %s' binds the shared global RNG; "
                            "import the module and use a seeded random.Random(seed) "
                            "instance instead" % alias.name,
                        )
        for call in module.of_type(ast.Call):
            name = module.qualified_name(call.func)
            if name is None or not name.startswith("random."):
                continue
            attr = name.partition(".")[2]
            if attr and attr not in self.ALLOWED_ATTRS:
                yield self.finding(
                    module, call,
                    "call to the module-level random.%s() (unseeded shared RNG); "
                    "use a seeded random.Random(seed) instance" % attr,
                )


# ----------------------------------------------------------------------
# REP003 — nondeterministic iteration
# ----------------------------------------------------------------------
@register_lint_rule("REP003", title="nondeterministic iteration")
class NondetIterationRule(LintRule):
    """Kernel/fabric modules must not iterate unordered collections.

    Iterating a ``set``/``frozenset`` (or an object's ``__dict__``/``vars``)
    visits elements in hash order, which varies with insertion history and
    ``PYTHONHASHSEED`` for str-keyed data — event order then differs between
    otherwise identical runs.  Wrap the iterable in ``sorted(...)`` in the
    simulation kernel, NOC and fabric modules.
    """

    code = "REP003"
    title = "nondeterministic iteration"

    #: Module prefixes (relative to the linted root) where iteration order
    #: feeds event order and must be deterministic.
    TARGET_PREFIXES = ("sim/", "noc/", "fabric/")

    def _is_unordered(self, expr: ast.AST) -> Optional[str]:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "a set literal"
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            if expr.func.id in ("set", "frozenset"):
                return "%s(...)" % expr.func.id
            if expr.func.id == "vars":
                return "vars(...)"
        if isinstance(expr, ast.Attribute) and expr.attr == "__dict__":
            return "__dict__"
        return None

    def check(self, module: LintModule, context: LintContext) -> Iterator[Finding]:
        if not module.relpath.startswith(self.TARGET_PREFIXES):
            return
        iterables: List[ast.AST] = [
            loop.iter for loop in module.of_type(ast.For, ast.AsyncFor)
        ]
        for comp in module.of_type(ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp):
            iterables.extend(generator.iter for generator in comp.generators)
        for expr in iterables:
            what = self._is_unordered(expr)
            if what is not None:
                yield self.finding(
                    module, expr,
                    "iteration over %s is hash-ordered and nondeterministic in a "
                    "kernel module; wrap it in sorted(...)" % what,
                )


# ----------------------------------------------------------------------
# REP004 — registry discipline
# ----------------------------------------------------------------------
@register_lint_rule("REP004", title="registry discipline")
class RegistryDisciplineRule(LintRule):
    """Components register through the registries and the manifest gates them.

    Every ``@register_*``-decorated component (and ``@experiment`` runner)
    must appear in ``tests/data/registry_manifest.json``; on whole-package
    runs the reverse also holds (manifest names must be registered
    somewhere).
    """

    code = "REP004"
    title = "registry discipline"

    #: Registration decorator → manifest inventory key.
    REGISTRARS: Dict[str, str] = {
        **{decorator: key for key, _registry, _noun, decorator in REGISTRIES},
        "experiment": "experiments",
    }

    def __init__(self) -> None:
        #: (manifest key, component name, module relpath, decorator node).
        self.registrations: List[Tuple[str, str, str, ast.AST]] = []

    @staticmethod
    def _decorator_component_name(call: ast.Call) -> Optional[str]:
        if call.args and isinstance(call.args[0], ast.Constant) \
                and isinstance(call.args[0].value, str):
            return call.args[0].value
        for keyword in call.keywords:
            if keyword.arg == "name" and isinstance(keyword.value, ast.Constant) \
                    and isinstance(keyword.value.value, str):
                return keyword.value.value
        return None

    def check(self, module: LintModule, context: LintContext) -> Iterator[Finding]:
        for node in module.of_type(ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef):
            for decorator in node.decorator_list:
                if not isinstance(decorator, ast.Call):
                    continue
                func = decorator.func
                registrar = func.id if isinstance(func, ast.Name) else (
                    func.attr if isinstance(func, ast.Attribute) else None
                )
                key = self.REGISTRARS.get(registrar or "")
                if key is None:
                    continue
                name = self._decorator_component_name(decorator)
                if name is None:
                    yield self.finding(
                        module, decorator,
                        "@%s registration name is not a string literal, so the "
                        "manifest gate cannot see it" % registrar,
                    )
                    continue
                self.registrations.append((key, name, module.relpath, decorator))

    def finish(self, context: LintContext) -> Iterator[Finding]:
        manifest = context.manifest
        if manifest is None:
            return
        for key, name, relpath, node in self.registrations:
            if name not in manifest.get(key, []):
                yield self.finding(
                    None, node,
                    "%s %r is registered here but missing from the manifest's "
                    "%r inventory; update tests/data/registry_manifest.json"
                    % (key.rstrip("s").replace("_", " "), name, key),
                    path=relpath,
                )
        if not context.whole_package:
            return
        registered: Dict[str, Set[str]] = {}
        for key, name, _relpath, _node in self.registrations:
            registered.setdefault(key, set()).add(name)
        manifest_path = (context.manifest_path or "registry manifest").replace("\\", "/")
        for key in self.REGISTRARS.values():
            for name in manifest.get(key, []):
                if name not in registered.get(key, set()):
                    yield self.finding(
                        None, None,
                        "manifest lists %s %r but no @%s registration exists in "
                        "the linted tree; remove it from the manifest or restore "
                        "the component"
                        % (key, name,
                           {v: k for k, v in self.REGISTRARS.items()}[key]),
                        path=manifest_path,
                    )


# ----------------------------------------------------------------------
# REP006 — __slots__ integrity
# ----------------------------------------------------------------------
@register_lint_rule("REP006", title="__slots__ integrity")
class SlotsIntegrityRule(LintRule):
    """Slotted hot-path classes must stay slotted, all the way down.

    Assigning a ``self`` attribute that no ``__slots__`` declaration covers
    raises at runtime on a properly slotted class — and a subclass that
    omits ``__slots__`` silently reintroduces a per-instance ``__dict__``,
    undoing the allocation wins slots were added for.  The rule resolves
    base classes by name across the linted tree; classes with unresolvable
    (external) bases are skipped rather than guessed at.
    """

    code = "REP006"
    title = "__slots__ integrity"

    def __init__(self) -> None:
        #: Class name → (module, node, declared slots or None, base names);
        #: a name seen twice maps to None (ambiguous, skipped).
        self.classes: Dict[str, Optional[Tuple[LintModule, ast.ClassDef,
                                               Optional[Set[str]], List[str]]]] = {}

    @staticmethod
    def _declared_slots(node: ast.ClassDef) -> Optional[Set[str]]:
        for statement in node.body:
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(statement, ast.Assign):
                targets, value = statement.targets, statement.value
            elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
                targets, value = [statement.target], statement.value
            if not any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets):
                continue
            try:
                literal = ast.literal_eval(value)
            except (ValueError, SyntaxError):
                return set()  # dynamic __slots__: treat as present but unknowable
            if isinstance(literal, str):
                return {literal}
            return {str(item) for item in literal}
        return None

    def check(self, module: LintModule, context: LintContext) -> Iterator[Finding]:
        for node in module.of_type(ast.ClassDef):
            bases: List[str] = []
            for base in node.bases:
                if isinstance(base, ast.Name):
                    bases.append(base.id)
                elif isinstance(base, ast.Attribute):
                    bases.append(base.attr)
                else:
                    bases.append("?")
            record = (module, node, self._declared_slots(node), bases)
            self.classes[node.name] = None if node.name in self.classes else record
        return iter(())

    def _resolve_slots(self, name: str, seen: Set[str]) -> Tuple[Set[str], bool]:
        """Union of slots declared by ``name`` and its in-tree bases.

        The bool is False when any base is external/ambiguous/unslotted —
        i.e. when the class may legitimately have a ``__dict__``.
        """
        if name in seen:
            return set(), False
        seen.add(name)
        record = self.classes.get(name)
        if record is None:
            return set(), False
        _module, _node, slots, bases = record
        if slots is None:
            return set(), False
        total, closed = set(slots), True
        for base in bases:
            if base == "object":
                continue
            base_slots, base_closed = self._resolve_slots(base, seen)
            total |= base_slots
            closed = closed and base_closed
        return total, closed

    def finish(self, context: LintContext) -> Iterator[Finding]:
        for name in sorted(self.classes):
            record = self.classes[name]
            if record is None:
                continue
            module, node, slots, bases = record
            slotted_bases = [
                base for base in bases
                if self.classes.get(base) is not None
                and base in self.classes
                and self.classes[base][2] is not None
            ]
            if slots is None:
                # Subclass of slotted base(s) without __slots__: only flag
                # when every base is in-tree and slotted (an external or
                # unslotted base already brings a __dict__ of its own).
                if bases and len(slotted_bases) == len(bases) and all(
                    self._resolve_slots(base, set())[1] for base in bases
                ):
                    yield self.finding(
                        module, node,
                        "class %s subclasses slotted base(s) %s but declares no "
                        "__slots__, silently reintroducing a per-instance "
                        "__dict__; add __slots__ = (...) (empty is fine)"
                        % (name, ", ".join(bases)),
                    )
                continue
            total, closed = self._resolve_slots(name, set())
            if not closed:
                continue
            for sub in ast.walk(node):
                targets: List[ast.AST] = []
                if isinstance(sub, ast.Assign):
                    targets = sub.targets
                elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                    if isinstance(sub, ast.AnnAssign) and sub.value is None:
                        continue
                    targets = [sub.target]
                for target in targets:
                    if isinstance(target, ast.Attribute) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id == "self" \
                            and target.attr not in total:
                        yield self.finding(
                            module, target,
                            "self.%s is assigned in slotted class %s but is not "
                            "declared in __slots__ (this raises AttributeError "
                            "at runtime); add it to __slots__" % (target.attr, name),
                        )


# ----------------------------------------------------------------------
# REP007 — serialization hygiene
# ----------------------------------------------------------------------
@register_lint_rule("REP007", title="serialization hygiene")
class SerializationHygieneRule(LintRule):
    """Optional registry keys serialize only when set (fingerprint stability).

    Spec/result documents feed content-hash fingerprints: emitting an
    optional key (``arrivals``/``faults``/their params) unconditionally —
    even as ``None`` — changes the serialized form of every pre-existing
    document, invalidating cached campaign results and breaking the
    closed-loop/fault-free byte-identity guarantees.  Guard the emission
    with an ``if`` on the field being set.
    """

    code = "REP007"
    title = "serialization hygiene"

    #: Keys that must only appear in a document when their subsystem is in
    #: play; serializing them unconditionally changes historic fingerprints.
    OPTIONAL_KEYS = frozenset({"arrivals", "arrival_params", "faults", "fault_params"})

    def _is_conditional(self, module: LintModule, node: ast.AST,
                        method: ast.AST) -> bool:
        for ancestor in module.ancestors(node):
            if ancestor is method:
                return False
            if isinstance(ancestor, (ast.If, ast.IfExp)):
                return True
        return False

    @staticmethod
    def _optional_fields(class_node: ast.ClassDef) -> Set[str]:
        """Field names the class declares as optional (None default/Optional).

        A key is only a fingerprint hazard when the producing class can
        leave it unset — ``OpenLoopResult.arrivals`` (a required ``str``)
        may serialize unconditionally, ``ScenarioSpec.arrivals``
        (``Optional[str] = None``) may not.
        """
        optional: Set[str] = set()
        for statement in class_node.body:
            name: Optional[str] = None
            annotation: Optional[ast.AST] = None
            value: Optional[ast.AST] = None
            if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
                name, annotation, value = statement.target.id, statement.annotation, statement.value
            elif isinstance(statement, ast.Assign) and len(statement.targets) == 1 \
                    and isinstance(statement.targets[0], ast.Name):
                name, value = statement.targets[0].id, statement.value
            if name is None:
                continue
            if isinstance(value, ast.Constant) and value.value is None:
                optional.add(name)
            elif annotation is not None and "Optional" in ast.unparse(annotation):
                optional.add(name)
        return optional

    def check(self, module: LintModule, context: LintContext) -> Iterator[Finding]:
        for method in module.of_type(ast.FunctionDef, ast.AsyncFunctionDef):
            if method.name != "to_dict":
                continue
            owner = module.enclosing(method, ast.ClassDef)
            if owner is None:
                continue
            hazards = self.OPTIONAL_KEYS & self._optional_fields(owner)
            if not hazards:
                continue
            for sub in ast.walk(method):
                key: Optional[str] = None
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                        and isinstance(sub.targets[0], ast.Subscript) \
                        and isinstance(sub.targets[0].slice, ast.Constant) \
                        and sub.targets[0].slice.value in hazards:
                    key = sub.targets[0].slice.value
                elif isinstance(sub, ast.Dict):
                    for dict_key in sub.keys:
                        if isinstance(dict_key, ast.Constant) \
                                and dict_key.value in hazards \
                                and not self._is_conditional(module, sub, method):
                            yield self.finding(
                                module, sub,
                                "to_dict emits optional key %r unconditionally; "
                                "serialize it only when the field is set, or "
                                "every pre-existing fingerprint changes"
                                % dict_key.value,
                            )
                    continue
                if key is not None and not self._is_conditional(module, sub, method):
                    yield self.finding(
                        module, sub,
                        "to_dict emits optional key %r unconditionally; serialize "
                        "it only when the field is set, or every pre-existing "
                        "fingerprint changes" % key,
                    )


@register_lint_rule("REP008", title="probe contract")
class ProbeContractRule(LintRule):
    """Telemetry probes observe the simulation; they never mutate it.

    A probe registered through ``@register_probe`` runs inside the event
    loop of the very simulation it reports on: an attribute write on any
    sampled object — the simulator, driver, fabric, fault state, anything
    reached through the :class:`~repro.obs.probes.ProbeContext` — silently
    perturbs the run it is supposed to be observing and breaks the
    obs-disabled byte-identity contract.  Assignments rooted at ``self``
    (probe-local state such as last-sample counters) are the only writes a
    probe may perform.  Probes must also declare ``__slots__`` so per-tick
    sampling never allocates a per-instance ``__dict__``.
    """

    code = "REP008"
    title = "probe contract"

    @staticmethod
    def _is_probe(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            func = decorator.func
            if isinstance(func, ast.Name) and func.id == "register_probe":
                return True
            if isinstance(func, ast.Attribute) and func.attr == "register_probe":
                return True
        return False

    @staticmethod
    def _rooted_at_self(target: ast.Attribute) -> bool:
        """Whether the write lands directly on ``self`` (``self.x = ...``).

        A chained write like ``self.driver.x = ...`` mutates a sampled
        object *through* probe state and is still a violation, so only a
        bare ``self.<attr>`` target qualifies.
        """
        return isinstance(target.value, ast.Name) and target.value.id == "self"

    def check(self, module: LintModule, context: LintContext) -> Iterator[Finding]:
        for node in module.of_type(ast.ClassDef):
            if not self._is_probe(node):
                continue
            if SlotsIntegrityRule._declared_slots(node) is None:
                yield self.finding(
                    module, node,
                    "probe class %s declares no __slots__; probes are "
                    "instantiated per session and sampled per tick — declare "
                    "__slots__ (use () for stateless probes)" % node.name,
                )
            for sub in ast.walk(node):
                targets: List[ast.AST] = []
                if isinstance(sub, ast.Assign):
                    targets = list(sub.targets)
                elif isinstance(sub, ast.AugAssign):
                    targets = [sub.target]
                elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                    targets = [sub.target]
                elif isinstance(sub, ast.Delete):
                    targets = list(sub.targets)
                for target in targets:
                    if isinstance(target, ast.Attribute) \
                            and not self._rooted_at_self(target):
                        yield self.finding(
                            module, sub,
                            "probe %s writes attribute %r on a sampled "
                            "object; probes must be read-only outside self"
                            % (node.name, ast.unparse(target)),
                        )


# ----------------------------------------------------------------------
# REP009 — fault-model seed derivation
# ----------------------------------------------------------------------
@register_lint_rule("REP009", title="fault-model seed derivation")
class FaultSeedDerivationRule(LintRule):
    """Fault-model code derives every RNG seed through ``derive_seed``.

    The fault engine runs several seeded streams off one driver seed —
    model target selection, the window schedule, cascade triggers.  A model
    module that feeds ``random.Random`` a raw seed (``random.Random(
    self.seed)``, or worse a literal) re-correlates those streams: two
    components sharing a seed value draw identical sequences and the
    "independent" faults move in lockstep.  In any module registering a
    fault model (``@register_fault_model``), every ``random.Random(...)``
    call must take a ``faults.injector.derive_seed(...)`` result as its
    seed argument.
    """

    code = "REP009"
    title = "fault-model seed derivation"

    @staticmethod
    def _registers_fault_model(module: LintModule) -> bool:
        for node in module.of_type(ast.ClassDef):
            for decorator in node.decorator_list:
                if not isinstance(decorator, ast.Call):
                    continue
                func = decorator.func
                if isinstance(func, ast.Name) and func.id == "register_fault_model":
                    return True
                if isinstance(func, ast.Attribute) and func.attr == "register_fault_model":
                    return True
        return False

    @staticmethod
    def _is_derived_seed(arg: ast.AST) -> bool:
        if not isinstance(arg, ast.Call):
            return False
        func = arg.func
        if isinstance(func, ast.Name):
            return func.id == "derive_seed"
        if isinstance(func, ast.Attribute):
            return func.attr == "derive_seed"
        return False

    def check(self, module: LintModule, context: LintContext) -> Iterator[Finding]:
        if not self._registers_fault_model(module):
            return
        for call in module.of_type(ast.Call):
            if module.qualified_name(call.func) != "random.Random":
                continue
            if call.args and self._is_derived_seed(call.args[0]):
                continue
            yield self.finding(
                module, call,
                "fault-model module seeds random.Random with a raw value; "
                "pass faults.injector.derive_seed(seed, kind, name) so the "
                "engine's seeded streams stay decorrelated",
            )


# ----------------------------------------------------------------------
# REP010 — closure continuation
# ----------------------------------------------------------------------
@register_lint_rule("REP010", title="closure continuation")
class ClosureContinuationRule(LintRule):
    """Model continuations are ``(callback, *args)`` pairs, never closures.

    A lambda or nested function handed to the kernel, the NOC or a pipeline
    as a continuation lives, with its cells, until the event or packet it
    waits on fires — hundreds of cycles under load.  Tens of thousands of
    such long-lived objects push CPython's cyclic garbage collector into
    full collections that cost a loaded run more than its hop walk.  In the
    packages whose callbacks run in the event loop, a lambda or nested
    ``def`` may not be an argument of a continuation-taking call (nor any
    call's ``on_done=``); pass a function plus explicit arguments instead:
    ``fabric.send(src, dst, n, cls, CoherenceProtocol._arrived, self, txn)``.
    """

    code = "REP010"
    title = "closure continuation"

    #: Calls that take a continuation: the kernel's, the fabric's, the
    #: pipelines' and the data path's.
    CONTINUATION_CALLS = frozenset({
        "schedule", "schedule_at", "send", "issue_then", "acquire_then",
        "access", "memory_read", "memory_write", "service",
    })
    #: Packages (relative to the linted root) whose callbacks run in the
    #: event loop.
    TARGET_PREFIXES = (
        "sim/", "noc/", "node/", "core/", "coherence/", "memory/", "qp/",
        "sonuma/", "numa/", "fabric/", "workloads/", "load/", "faults/",
    )

    def __init__(self) -> None:
        #: Function node -> names of the closures defined inside it.
        self._closures: Dict[ast.AST, Set[str]] = {}

    def _closure_names(self, function: ast.AST) -> Set[str]:
        """Nested defs and lambda-bound names anywhere inside ``function``."""
        names = self._closures.get(function)
        if names is None:
            names = set()
            for node in ast.walk(function):
                if node is not function and isinstance(node, (ast.FunctionDef,
                                                              ast.AsyncFunctionDef)):
                    names.add(node.name)
                elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
                    names.update(t.id for t in node.targets if isinstance(t, ast.Name))
            self._closures[function] = names
        return names

    def _closure(self, module: LintModule, call: ast.Call, arg: ast.AST) -> Optional[str]:
        if isinstance(arg, ast.Lambda):
            return "a lambda"
        if not isinstance(arg, ast.Name):
            return None
        for ancestor in module.ancestors(call):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and arg.id in self._closure_names(ancestor):
                return "nested function %r" % arg.id
        return None

    def check(self, module: LintModule, context: LintContext) -> Iterator[Finding]:
        if not module.relpath.startswith(self.TARGET_PREFIXES):
            return
        for call in module.of_type(ast.Call):
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name in self.CONTINUATION_CALLS:
                where = name
                args = list(call.args) + [keyword.value for keyword in call.keywords]
            else:
                where = "on_done="
                args = [keyword.value for keyword in call.keywords
                        if keyword.arg == "on_done"]
            for arg in args:
                what = self._closure(module, call, arg)
                if what is not None:
                    yield self.finding(
                        module, arg,
                        "%s passed to %s is a closure continuation: it and its "
                        "cells stay alive until the event fires, feeding the "
                        "cyclic garbage collector; pass a function plus "
                        "explicit arguments instead" % (what, where),
                    )


# ----------------------------------------------------------------------
# REP011 — bound-method continuation
# ----------------------------------------------------------------------
@register_lint_rule("REP011", title="bound-method continuation")
class BoundMethodContinuationRule(LintRule):
    """Model continuations are plain functions with their owner as an argument.

    Every read of ``self._step`` builds a new bound method.  Handed to the
    kernel, the NOC or a pipeline as a continuation, it lives as long as the
    queued event — under load as long as the NOC backlog, thousands of
    cycles — and CPython's cyclic collector walks it in the old generations
    all that time.  In the packages whose callbacks run in the event loop,
    an argument of a continuation-taking call may not be ``self.<method>``
    of the enclosing class; pass the function and its owner instead:
    ``fabric.send(src, dst, n, cls, Protocol._arrived, self, txn)``.
    ``access`` is exempt: it calls ``on_done(result, *args)``, so a plain
    function would receive the result before its owner.
    """

    code = "REP011"
    title = "bound-method continuation"

    CONTINUATION_CALLS = ClosureContinuationRule.CONTINUATION_CALLS - {"access"}
    TARGET_PREFIXES = ClosureContinuationRule.TARGET_PREFIXES
    #: Decorators (``@property``, ``@x.setter``...) under which reading
    #: ``self.<name>`` builds no bound method.
    NOT_BOUND = frozenset({"property", "cached_property", "staticmethod",
                           "getter", "setter", "deleter"})

    def __init__(self) -> None:
        #: Class node -> names of its methods that a ``self.`` read binds.
        self._methods: Dict[ast.AST, Set[str]] = {}

    def _bound_methods(self, cls: ast.ClassDef) -> Set[str]:
        names = self._methods.get(cls)
        if names is None:
            names = set()
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                decorators = {getattr(d, "attr", getattr(d, "id", None))
                              for d in node.decorator_list}
                if not decorators & self.NOT_BOUND:
                    names.add(node.name)
            self._methods[cls] = names
        return names

    def check(self, module: LintModule, context: LintContext) -> Iterator[Finding]:
        if not module.relpath.startswith(self.TARGET_PREFIXES):
            return
        for call in module.of_type(ast.Call):
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name not in self.CONTINUATION_CALLS:
                continue
            cls = module.enclosing(call, ast.ClassDef)
            if cls is None:
                continue
            methods = self._bound_methods(cls)
            for arg in list(call.args) + [keyword.value for keyword in call.keywords]:
                if isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name) \
                        and arg.value.id == "self" and arg.attr in methods:
                    yield self.finding(
                        module, arg,
                        "bound method self.%s passed to %s: it is built per call "
                        "and lives as long as the queued event; pass %s.%s, self "
                        "instead" % (arg.attr, name, cls.name, arg.attr),
                    )


# ----------------------------------------------------------------------
# REP012 — read-only clock
# ----------------------------------------------------------------------
@register_lint_rule("REP012", title="read-only clock")
class ReadOnlyClockRule(LintRule):
    """Only the kernel moves the simulation clock.

    ``Simulator.now`` is a plain slot, not a property: the model reads it on
    nearly every event, and a property call costs several slot reads.  A
    slot is writable by anyone, so this rule keeps it read-only: outside
    ``sim/engine.py`` no code may assign or delete an attribute named
    ``now`` (plain, augmented or annotated assignment, a loop or ``with``
    target, ``del``, or ``setattr(obj, "now", ...)``).  A clock moved from
    outside the run loop would run events out of time order.
    """

    code = "REP012"
    title = "read-only clock"

    #: The one module that writes the clock (relative to the linted root).
    KERNEL = "sim/engine.py"

    def check(self, module: LintModule, context: LintContext) -> Iterator[Finding]:
        if module.relpath == self.KERNEL:
            return
        for node in module.of_type(ast.Attribute, ast.Call):
            if isinstance(node, ast.Attribute):
                writes = node.attr == "now" and isinstance(node.ctx, (ast.Store, ast.Del))
            else:
                writes = (isinstance(node.func, ast.Name) and node.func.id == "setattr"
                          and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)
                          and node.args[1].value == "now")
            if writes:
                yield self.finding(
                    module, node,
                    "writes an attribute named 'now': the simulation clock is "
                    "read-only outside sim/engine.py; schedule an event instead "
                    "of moving the clock",
                )


# ----------------------------------------------------------------------
# REP013 — no environment reads
# ----------------------------------------------------------------------
@register_lint_rule("REP013", title="no environment reads")
class EnvironmentReadRule(LintRule):
    """No code reads or writes the process environment.

    A run's inputs are its spec and the source: the result cache keys on the
    spec fingerprint and the source digest alone, and campaign workers
    inherit the parent's environment.  An environment variable would be an
    input that neither key sees, so a cached or parallel result could
    silently differ from a fresh serial one.  Every use of ``os.environ``,
    ``os.environb``, ``os.getenv``, ``os.putenv`` or ``os.unsetenv`` (through
    any import alias) is a finding; pass a setting through the spec instead.
    """

    code = "REP013"
    title = "no environment reads"

    #: The environment's accessors, as canonical dotted names.
    BANNED = frozenset({
        "os.environ", "os.environb", "os.getenv", "os.putenv", "os.unsetenv",
    })

    def check(self, module: LintModule, context: LintContext) -> Iterator[Finding]:
        for node in module.of_type(ast.Attribute, ast.Name):
            name = module.qualified_name(node)
            if name in self.BANNED:
                yield self.finding(
                    module, node,
                    "uses %s: the environment is an input the result cache key "
                    "cannot see; pass the setting through the spec" % name,
                )
