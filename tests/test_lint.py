"""Tests for repro.lint: the determinism & kernel-contract linter.

Every REP rule is proven both ways: a deliberately seeded violation fixture
must produce the finding, and its clean twin must not.  A whole-tree test
then asserts ``repro lint src/repro`` reports zero findings — the same gate
CI runs with the committed (empty) baseline.
"""

from __future__ import annotations

import json
import os
import textwrap

import pytest

from repro.errors import LintError, RegistryError
from repro.lint import (
    Baseline,
    Finding,
    LINT_RULES,
    LintRule,
    lint_paths,
    parse_report,
    register_lint_rule,
    render_json,
    render_text,
)
from repro.lint import manifest as lint_manifest
from repro.cli import main as cli_main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_TREE = os.path.join(REPO_ROOT, "src", "repro")
COMMITTED_BASELINE = os.path.join(REPO_ROOT, "tools", "lint_baseline.json")
COMMITTED_MANIFEST = os.path.join(REPO_ROOT, "tests", "data", "registry_manifest.json")


def run_fixture(tmp_path, files, rules=None, manifest=None):
    """Write fixture sources under tmp_path and lint them."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    manifest_path = None
    if manifest is not None:
        manifest_file = tmp_path.parent / (tmp_path.name + "_manifest.json")
        manifest_file.write_text(json.dumps(manifest))
        manifest_path = str(manifest_file)
    return lint_paths([str(tmp_path)], rules=rules, manifest_path=manifest_path)


def codes(findings):
    return [finding.code for finding in findings]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestLintRegistry:
    def test_builtin_rules_registered(self):
        assert LINT_RULES.names() == [
            "REP001", "REP002", "REP003", "REP004", "REP006", "REP007", "REP008",
            "REP009", "REP010", "REP011", "REP012", "REP013",
        ]

    def test_rules_have_titles_and_doc_urls(self):
        for entry in LINT_RULES.entries():
            assert entry.metadata.get("title")
            rule = entry.component()
            assert rule.code == entry.name
            assert rule.doc_url.startswith("README.md#rep")

    def test_duplicate_registration_fails(self):
        with pytest.raises(RegistryError):
            @register_lint_rule("REP001", title="dup")
            class Dup(LintRule):
                code = "REP001"

    def test_custom_rule_plugs_in(self, tmp_path):
        @register_lint_rule("X001", title="no TODO comments")
        class NoTodoRule(LintRule):
            code = "X001"
            title = "no TODO comments"

            def check(self, module, context):
                for lineno, line in enumerate(module.source.splitlines(), start=1):
                    if "TODO" in line:
                        yield Finding(self.code, module.relpath, lineno, 0,
                                      "TODO left in source", self.doc_url)

        try:
            findings = run_fixture(tmp_path, {"a.py": "x = 1  # TODO fix\n"},
                                   rules=["X001"])
            assert codes(findings) == ["X001"]
        finally:
            LINT_RULES.unregister("X001")

    def test_unknown_rule_code_suggests(self):
        with pytest.raises(RegistryError, match="REP001"):
            lint_paths([SRC_TREE], rules=["REP01"])


# ----------------------------------------------------------------------
# REP001 — wall-clock ban
# ----------------------------------------------------------------------
class TestREP001WallClock:
    def test_time_time_flagged(self, tmp_path):
        findings = run_fixture(tmp_path, {"noc/stamp.py": """
            import time

            def stamp():
                return time.time()
        """}, rules=["REP001"])
        assert codes(findings) == ["REP001"]
        assert "time.time" in findings[0].message

    def test_from_import_and_alias_flagged(self, tmp_path):
        findings = run_fixture(tmp_path, {"load/clock.py": """
            import time as t
            from time import perf_counter

            def sample():
                return t.monotonic() + perf_counter()
        """}, rules=["REP001"])
        assert codes(findings) == ["REP001", "REP001"]

    def test_datetime_now_flagged(self, tmp_path):
        findings = run_fixture(tmp_path, {"faults/when.py": """
            import datetime

            def now():
                return datetime.datetime.now()
        """}, rules=["REP001"])
        assert codes(findings) == ["REP001"]

    def test_perf_module_allowlisted(self, tmp_path):
        findings = run_fixture(tmp_path, {"sim/perf.py": """
            import time

            def wall():
                return time.perf_counter()
        """}, rules=["REP001"])
        assert findings == []

    def test_simulated_time_clean(self, tmp_path):
        findings = run_fixture(tmp_path, {"noc/clean.py": """
            def stamp(sim):
                return sim.now
        """}, rules=["REP001"])
        assert findings == []


# ----------------------------------------------------------------------
# REP002 — unseeded randomness
# ----------------------------------------------------------------------
class TestREP002UnseededRandom:
    def test_module_level_call_flagged(self, tmp_path):
        findings = run_fixture(tmp_path, {"workloads/w.py": """
            import random

            def pick(items):
                return items[random.randrange(len(items))]
        """}, rules=["REP002"])
        assert codes(findings) == ["REP002"]
        assert "random.randrange" in findings[0].message

    def test_from_import_flagged(self, tmp_path):
        findings = run_fixture(tmp_path, {"workloads/w.py": """
            from random import shuffle
        """}, rules=["REP002"])
        assert codes(findings) == ["REP002"]

    def test_seeded_instance_clean(self, tmp_path):
        findings = run_fixture(tmp_path, {"workloads/w.py": """
            import random

            class W:
                def __init__(self, seed):
                    self._rng = random.Random(seed)

                def pick(self, items):
                    return items[self._rng.randrange(len(items))]
        """}, rules=["REP002"])
        assert findings == []

    def test_import_alias_flagged(self, tmp_path):
        findings = run_fixture(tmp_path, {"workloads/w.py": """
            import random as rnd

            def roll():
                return rnd.random()
        """}, rules=["REP002"])
        assert codes(findings) == ["REP002"]


# ----------------------------------------------------------------------
# REP003 — nondeterministic iteration
# ----------------------------------------------------------------------
class TestREP003NondetIteration:
    def test_set_iteration_flagged_in_kernel_module(self, tmp_path):
        findings = run_fixture(tmp_path, {"noc/route.py": """
            def visit(nodes):
                for node in set(nodes):
                    node.touch()
        """}, rules=["REP003"])
        assert codes(findings) == ["REP003"]

    def test_comprehension_over_set_literal_flagged(self, tmp_path):
        findings = run_fixture(tmp_path, {"sim/kernel.py": """
            def weights():
                return [w * 2 for w in {1, 2, 3}]
        """}, rules=["REP003"])
        assert codes(findings) == ["REP003"]

    def test_dict_dunder_flagged(self, tmp_path):
        findings = run_fixture(tmp_path, {"fabric/links.py": """
            def fields(obj):
                for name in obj.__dict__:
                    yield name
        """}, rules=["REP003"])
        assert codes(findings) == ["REP003"]

    def test_sorted_wrap_clean(self, tmp_path):
        findings = run_fixture(tmp_path, {"noc/route.py": """
            def visit(nodes):
                for node in sorted(set(nodes)):
                    node.touch()
        """}, rules=["REP003"])
        assert findings == []

    def test_non_kernel_module_out_of_scope(self, tmp_path):
        findings = run_fixture(tmp_path, {"workloads/free.py": """
            def visit(nodes):
                for node in set(nodes):
                    node.touch()
        """}, rules=["REP003"])
        assert findings == []


# ----------------------------------------------------------------------
# REP004 — registry discipline
# ----------------------------------------------------------------------
class TestREP004RegistryDiscipline:
    def test_registration_missing_from_manifest(self, tmp_path):
        findings = run_fixture(tmp_path, {"plugins.py": """
            from repro.scenario.registry import register_workload

            @register_workload("my_workload")
            class MyWorkload:
                pass
        """}, rules=["REP004"], manifest={"workloads": []})
        assert codes(findings) == ["REP004"]
        assert "my_workload" in findings[0].message

    def test_registration_in_manifest_clean(self, tmp_path):
        findings = run_fixture(tmp_path, {"plugins.py": """
            from repro.scenario.registry import register_workload

            @register_workload("my_workload")
            class MyWorkload:
                pass
        """}, rules=["REP004"], manifest={"workloads": ["my_workload"]})
        assert findings == []

    def test_experiment_decorator_covered(self, tmp_path):
        findings = run_fixture(tmp_path, {"exp.py": """
            from repro.experiments.spec import experiment

            @experiment("ghost_exp", title="t", description="d")
            def run_ghost(config):
                pass
        """}, rules=["REP004"], manifest={"experiments": []})
        assert codes(findings) == ["REP004"]
        assert "ghost_exp" in findings[0].message

    def test_manifest_name_registered_nowhere(self, tmp_path):
        # The reverse check only fires on whole-package trees (identified by
        # scenario/registry.py), so partial-tree lints don't false-positive.
        findings = run_fixture(tmp_path, {
            "scenario/registry.py": "NI_DESIGNS = None\n",
            "plugins.py": """
                from repro.scenario.registry import register_workload

                @register_workload("real")
                class Real:
                    pass
            """,
        }, rules=["REP004"], manifest={"workloads": ["real", "ghost"]})
        assert codes(findings) == ["REP004"]
        assert "ghost" in findings[0].message

    def test_partial_tree_skips_reverse_check(self, tmp_path):
        findings = run_fixture(tmp_path, {"plugins.py": "x = 1\n"},
                               rules=["REP004"], manifest={"workloads": ["ghost"]})
        assert findings == []

    def test_registrars_follow_the_registry_table(self):
        from repro.lint.rules import RegistryDisciplineRule
        from repro.scenario.registry import REGISTRIES

        expected = {decorator: key for key, _registry, _noun, decorator in REGISTRIES}
        expected["experiment"] = "experiments"
        assert RegistryDisciplineRule.REGISTRARS == expected

    def test_real_tree_flags_a_ghost_manifest_design(self, tmp_path):
        # The reverse check must recognise src/repro as the whole package.
        manifest = lint_manifest.load_manifest(COMMITTED_MANIFEST)
        manifest["designs"] = manifest["designs"] + ["ghost_design"]
        manifest_path = tmp_path / "registry_manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        findings = lint_paths([SRC_TREE], rules=["REP004"], manifest_path=str(manifest_path))
        assert codes(findings) == ["REP004"]
        assert "ghost_design" in findings[0].message


# ----------------------------------------------------------------------
# REP006 — __slots__ integrity
# ----------------------------------------------------------------------
class TestREP006SlotsIntegrity:
    def test_undeclared_attribute_flagged(self, tmp_path):
        findings = run_fixture(tmp_path, {"sim/holder.py": """
            class Holder:
                __slots__ = ("x",)

                def __init__(self):
                    self.x = 1
                    self.y = 2
        """}, rules=["REP006"])
        assert codes(findings) == ["REP006"]
        assert "self.y" in findings[0].message

    def test_subclass_without_slots_flagged(self, tmp_path):
        findings = run_fixture(tmp_path, {"sim/events.py": """
            class BaseEvent:
                __slots__ = ("time",)

            class RetryEvent(BaseEvent):
                def __init__(self):
                    self.time = 0
                    self.attempts = 0
        """}, rules=["REP006"])
        assert codes(findings) == ["REP006"]
        assert "RetryEvent" in findings[0].message

    def test_slotted_subclass_clean(self, tmp_path):
        findings = run_fixture(tmp_path, {"sim/events.py": """
            class BaseEvent:
                __slots__ = ("time",)

            class RetryEvent(BaseEvent):
                __slots__ = ("attempts",)

                def __init__(self):
                    self.time = 0
                    self.attempts = 0
        """}, rules=["REP006"])
        assert findings == []

    def test_cross_module_base_resolved(self, tmp_path):
        findings = run_fixture(tmp_path, {
            "sim/base.py": """
                class Slotted:
                    __slots__ = ("a",)
            """,
            "noc/sub.py": """
                from sim.base import Slotted

                class Grown(Slotted):
                    pass
            """,
        }, rules=["REP006"])
        assert codes(findings) == ["REP006"]

    def test_external_base_skipped(self, tmp_path):
        findings = run_fixture(tmp_path, {"sim/ext.py": """
            from collections import UserDict

            class Bag(UserDict):
                def __init__(self):
                    super().__init__()
                    self.extra = 1
        """}, rules=["REP006"])
        assert findings == []


# ----------------------------------------------------------------------
# REP007 — serialization hygiene
# ----------------------------------------------------------------------
class TestREP007SerializationHygiene:
    def test_unconditional_dict_literal_flagged(self, tmp_path):
        findings = run_fixture(tmp_path, {"scenario/doc.py": """
            from typing import Optional

            class Spec:
                faults: Optional[str] = None

                def to_dict(self):
                    return {"faults": self.faults}
        """}, rules=["REP007"])
        assert codes(findings) == ["REP007"]
        assert "'faults'" in findings[0].message

    def test_unconditional_subscript_flagged(self, tmp_path):
        findings = run_fixture(tmp_path, {"scenario/doc.py": """
            class Spec:
                arrivals = None

                def to_dict(self):
                    document = {}
                    document["arrivals"] = self.arrivals
                    return document
        """}, rules=["REP007"])
        assert codes(findings) == ["REP007"]

    def test_guarded_emission_clean(self, tmp_path):
        findings = run_fixture(tmp_path, {"scenario/doc.py": """
            from typing import Optional

            class Spec:
                faults: Optional[str] = None

                def to_dict(self):
                    document = {}
                    if self.faults is not None:
                        document["faults"] = self.faults
                        document["fault_params"] = {}
                    return document
        """}, rules=["REP007"])
        assert findings == []

    def test_required_field_may_serialize_unconditionally(self, tmp_path):
        # OpenLoopResult.arrivals is a required str: always present, always
        # serialized — not a fingerprint hazard.
        findings = run_fixture(tmp_path, {"load/result.py": """
            class Result:
                arrivals: str = "poisson"

                def to_dict(self):
                    return {"arrivals": self.arrivals}
        """}, rules=["REP007"])
        assert findings == []


# ----------------------------------------------------------------------
class TestREP008ProbeContract:
    def test_probe_without_slots_flagged(self, tmp_path):
        findings = run_fixture(tmp_path, {"obs/plug.py": """
            @register_probe("bad")
            class BadProbe(TelemetryProbe):
                name = "bad"

                def sample(self, ctx):
                    return {"x": 1}
        """}, rules=["REP008"])
        assert codes(findings) == ["REP008"]
        assert "__slots__" in findings[0].message

    def test_probe_mutating_sampled_object_flagged(self, tmp_path):
        findings = run_fixture(tmp_path, {"obs/plug.py": """
            @register_probe("bad")
            class BadProbe(TelemetryProbe):
                __slots__ = ()
                name = "bad"

                def sample(self, ctx):
                    ctx.sim.events = 0
                    return {"x": ctx.sim.events}
        """}, rules=["REP008"])
        assert codes(findings) == ["REP008"]
        assert "read-only outside self" in findings[0].message

    def test_probe_augmented_write_flagged(self, tmp_path):
        findings = run_fixture(tmp_path, {"obs/plug.py": """
            @register_probe("bad")
            class BadProbe(TelemetryProbe):
                __slots__ = ()
                name = "bad"

                def sample(self, ctx):
                    ctx.driver.hits += 1
                    return None
        """}, rules=["REP008"])
        assert codes(findings) == ["REP008"]

    def test_chained_write_through_self_flagged(self, tmp_path):
        # self.driver.x mutates a sampled object *through* probe state.
        findings = run_fixture(tmp_path, {"obs/plug.py": """
            @register_probe("bad")
            class BadProbe(TelemetryProbe):
                __slots__ = ("driver",)
                name = "bad"

                def sample(self, ctx):
                    self.driver.window = 0
                    return None
        """}, rules=["REP008"])
        assert codes(findings) == ["REP008"]

    def test_clean_probe_with_self_state(self, tmp_path):
        # Writes rooted at self (delta counters) are legal probe-local state.
        findings = run_fixture(tmp_path, {"obs/plug.py": """
            @register_probe("good")
            class GoodProbe(TelemetryProbe):
                __slots__ = ("_last",)
                name = "good"

                def __init__(self):
                    self._last = 0

                def sample(self, ctx):
                    events = ctx.sim.events_executed
                    delta = events - self._last
                    self._last = events
                    return {"events": events, "delta": delta}
        """}, rules=["REP008"])
        assert findings == []

    def test_non_probe_class_ignored(self, tmp_path):
        # Mutation is only a violation inside @register_probe classes.
        findings = run_fixture(tmp_path, {"obs/plug.py": """
            class Sampler:
                def tick(self, ctx):
                    ctx.sim.flag = True
        """}, rules=["REP008"])
        assert findings == []


# ----------------------------------------------------------------------
# REP009 — fault-model seed derivation
# ----------------------------------------------------------------------
class TestREP009SeedDerivation:
    def test_raw_seed_in_fault_model_module_flagged(self, tmp_path):
        findings = run_fixture(tmp_path, {"faults/plug.py": """
            import random

            @register_fault_model("bad")
            class BadFault(FaultModel):
                name = "bad"

                def bind(self, machine, core_ids):
                    rng = random.Random(self.seed)
                    self.targets = frozenset(rng.sample(core_ids, 2))
        """}, rules=["REP009"])
        assert codes(findings) == ["REP009"]
        assert "derive_seed" in findings[0].message

    def test_unseeded_rng_in_fault_model_module_flagged(self, tmp_path):
        findings = run_fixture(tmp_path, {"faults/plug.py": """
            import random

            @register_fault_model("bad")
            class BadFault(FaultModel):
                name = "bad"

                def bind(self, machine, core_ids):
                    self.targets = frozenset([random.Random().randrange(16)])
        """}, rules=["REP009"])
        assert codes(findings) == ["REP009"]

    def test_derived_seed_is_clean(self, tmp_path):
        findings = run_fixture(tmp_path, {"faults/plug.py": """
            import random

            from repro.faults.injector import derive_seed

            @register_fault_model("good")
            class GoodFault(FaultModel):
                name = "good"

                def bind(self, machine, core_ids):
                    rng = random.Random(derive_seed(self.seed, "bind", self.name))
                    self.targets = frozenset(rng.sample(core_ids, 2))
        """}, rules=["REP009"])
        assert findings == []

    def test_module_without_fault_models_ignored(self, tmp_path):
        # Raw seeding is only the fault engine's concern; other modules
        # are covered by the determinism rules, not REP009.
        findings = run_fixture(tmp_path, {"load/arrivals.py": """
            import random

            def jitter(seed):
                return random.Random(seed).random()
        """}, rules=["REP009"])
        assert findings == []


# ----------------------------------------------------------------------
# REP010 — closure continuation
# ----------------------------------------------------------------------
class TestREP010ClosureContinuation:
    def test_lambda_delivery_callback_flagged(self, tmp_path):
        findings = run_fixture(tmp_path, {"coherence/plug.py": """
            class Protocol:
                def request(self, txn):
                    self.fabric.send(txn.src, txn.home, 8, CLASS,
                                     lambda: self.arrived(txn))
        """}, rules=["REP010"])
        assert codes(findings) == ["REP010"]
        assert "lambda passed to send" in findings[0].message

    def test_bound_method_with_arguments_is_clean(self, tmp_path):
        findings = run_fixture(tmp_path, {"coherence/plug.py": """
            class Protocol:
                def request(self, txn):
                    self.fabric.send(txn.src, txn.home, 8, CLASS, self.arrived, txn)
        """}, rules=["REP010"])
        assert findings == []

    def test_nested_def_scheduled_flagged(self, tmp_path):
        findings = run_fixture(tmp_path, {"node/plug.py": """
            class Soc:
                def read(self, node, on_done):
                    def at_llc():
                        on_done()

                    self.sim.schedule(3, at_llc)
        """}, rules=["REP010"])
        assert codes(findings) == ["REP010"]
        assert "nested function 'at_llc'" in findings[0].message

    def test_method_scheduled_with_arguments_is_clean(self, tmp_path):
        findings = run_fixture(tmp_path, {"node/plug.py": """
            class Soc:
                def read(self, node, on_done):
                    self.sim.schedule(3, self._at_llc, on_done)

                def _at_llc(self, on_done):
                    on_done()
        """}, rules=["REP010"])
        assert findings == []

    def test_on_done_keyword_and_lambda_variable_flagged(self, tmp_path):
        findings = run_fixture(tmp_path, {"core/plug.py": """
            class Frontend:
                def load(self, block):
                    self.coherence.lookup(block, on_done=lambda result: self.loaded())
                    done = lambda: self.loaded()
                    self.pipe.issue_then(done)
        """}, rules=["REP010"])
        assert codes(findings) == ["REP010", "REP010"]

    def test_packages_outside_the_event_loop_ignored(self, tmp_path):
        findings = run_fixture(tmp_path, {"experiments/plug.py": """
            def run(sim):
                sim.schedule(1, lambda: None)
        """}, rules=["REP010"])
        assert findings == []


# ----------------------------------------------------------------------
# REP011 — bound-method continuation
# ----------------------------------------------------------------------
class TestREP011BoundMethodContinuation:
    def test_bound_method_delivery_callback_flagged(self, tmp_path):
        findings = run_fixture(tmp_path, {"coherence/plug.py": """
            class Protocol:
                def request(self, txn):
                    self.fabric.send(txn.src, txn.home, 8, CLASS, self._arrived, txn)

                def _arrived(self, txn):
                    pass
        """}, rules=["REP011"])
        assert codes(findings) == ["REP011"]
        assert "self._arrived passed to send" in findings[0].message
        assert "pass Protocol._arrived, self instead" in findings[0].message

    def test_plain_function_with_owner_is_clean(self, tmp_path):
        findings = run_fixture(tmp_path, {"coherence/plug.py": """
            class Protocol:
                def request(self, txn):
                    self.fabric.send(txn.src, txn.home, 8, CLASS, Protocol._arrived, self, txn)

                def _arrived(self, txn):
                    pass
        """}, rules=["REP011"])
        assert findings == []

    def test_method_argument_flagged(self, tmp_path):
        findings = run_fixture(tmp_path, {"node/plug.py": """
            class Soc:
                def read(self, node):
                    self.sim.schedule(3, Soc._at_llc, self, self._on_done)

                def _at_llc(self, on_done):
                    on_done()

                def _on_done(self):
                    pass
        """}, rules=["REP011"])
        assert codes(findings) == ["REP011"]
        assert "self._on_done passed to schedule" in findings[0].message

    def test_property_and_attribute_reads_are_clean(self, tmp_path):
        findings = run_fixture(tmp_path, {"node/plug.py": """
            class Soc:
                def read(self, node):
                    self.sim.schedule(self.delay, Soc._at_llc, self, self.home, self.on_done)

                @property
                def home(self):
                    return self._home

                @home.setter
                def home(self, value):
                    self._home = value

                def _at_llc(self, home, on_done):
                    on_done()
        """}, rules=["REP011"])
        assert findings == []

    def test_issue_then_bound_method_flagged(self, tmp_path):
        findings = run_fixture(tmp_path, {"core/plug.py": """
            class Frontend:
                def load(self, block, qp):
                    self.pipe.issue_then(self._loaded, qp)

                def _loaded(self, qp):
                    pass
        """}, rules=["REP011"])
        assert codes(findings) == ["REP011"]

    def test_access_continuation_is_exempt(self, tmp_path):
        findings = run_fixture(tmp_path, {"core/plug.py": """
            class Frontend:
                def load(self, block, qp):
                    self.coherence.access(self.entity, "ni", block, False, self._loaded, qp)

                def _loaded(self, result, qp):
                    pass
        """}, rules=["REP011"])
        assert findings == []

    def test_packages_outside_the_event_loop_ignored(self, tmp_path):
        findings = run_fixture(tmp_path, {"obs/plug.py": """
            class Sampler:
                def start(self):
                    self.sim.schedule(1, self._tick)

                def _tick(self):
                    pass
        """}, rules=["REP011"])
        assert findings == []


# ----------------------------------------------------------------------
# REP012 — read-only clock
# ----------------------------------------------------------------------
class TestREP012ReadOnlyClock:
    def test_clock_writes_outside_the_kernel_flagged(self, tmp_path):
        findings = run_fixture(tmp_path, {"node/plug.py": """
            class Soc:
                def skip(self, cycles):
                    self.sim.now += cycles
                    self.sim.now, self.count = 0.0, 0
                    setattr(self.sim, "now", 5.0)
        """}, rules=["REP012"])
        assert codes(findings) == ["REP012", "REP012", "REP012"]
        assert "read-only outside sim/engine.py" in findings[0].message

    def test_kernel_writes_and_clock_reads_are_clean(self, tmp_path):
        findings = run_fixture(tmp_path, {
            "sim/engine.py": """
                class Simulator:
                    def __init__(self):
                        self.now = 0.0

                    def run(self, time):
                        self.now = time
            """,
            "node/plug.py": """
                class Soc:
                    def elapsed(self, start):
                        now = self.sim.now
                        self.started = now
                        setattr(self, "then", now)
                        return now - start
            """,
        }, rules=["REP012"])
        assert findings == []


# ----------------------------------------------------------------------
# REP013 — no environment reads
# ----------------------------------------------------------------------
class TestREP013EnvironmentRead:
    def test_environment_reads_flagged(self, tmp_path):
        findings = run_fixture(tmp_path, {"noc/plug.py": """
            import os
            from os import getenv

            def knob():
                return os.environ.get("KNOB", "1")

            def level():
                return os.environ["LEVEL"]

            def home():
                return getenv("HOME")
        """}, rules=["REP013"])
        assert codes(findings) == ["REP013", "REP013", "REP013"]
        assert [finding.line for finding in findings] == [6, 9, 12]
        assert "os.environ" in findings[0].message
        assert "os.getenv" in findings[2].message

    def test_paths_and_a_local_environ_are_clean(self, tmp_path):
        findings = run_fixture(tmp_path, {"noc/plug.py": """
            import os

            def place(root, environ):
                environ = dict(environ)
                return os.path.join(root, environ.get("name", "x"))
        """}, rules=["REP013"])
        assert findings == []


# ----------------------------------------------------------------------
# Driver, baseline, reporters
# ----------------------------------------------------------------------
class TestDriverAndBaseline:
    def test_syntax_error_is_a_finding(self, tmp_path):
        findings = run_fixture(tmp_path, {"broken.py": "def f(:\n"})
        assert codes(findings) == ["REP000"]

    def test_missing_path_raises(self):
        with pytest.raises(LintError, match="does not exist"):
            lint_paths(["/nonexistent/lint/tree"])

    def test_findings_sorted_and_deterministic(self, tmp_path):
        files = {
            "noc/b.py": "import time\nx = time.time()\ny = time.monotonic()\n",
            "noc/a.py": "import random\nz = random.random()\n",
        }
        first = run_fixture(tmp_path, files, rules=["REP001", "REP002"])
        second = lint_paths([str(tmp_path)], rules=["REP002", "REP001"])
        assert [f.sort_key() for f in first] == [f.sort_key() for f in second]
        assert first[0].path == "noc/a.py"

    def test_baseline_suppresses_and_round_trips(self, tmp_path):
        findings = run_fixture(tmp_path, {"noc/t.py": "import time\nx = time.time()\n"},
                               rules=["REP001"])
        baseline = Baseline.from_findings(findings)
        path = tmp_path / "baseline.json"
        baseline.save(str(path))
        kept, suppressed = Baseline.load(str(path)).apply(findings)
        assert kept == [] and len(suppressed) == 1

    def test_baseline_without_message_suppresses_by_code_and_path(self):
        finding = Finding("REP001", "noc/t.py", 2, 0, "anything")
        assert Baseline([{"code": "REP001", "path": "noc/t.py"}]).matches(finding)
        assert not Baseline([{"code": "REP002", "path": "noc/t.py"}]).matches(finding)

    def test_malformed_baseline_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[]")
        with pytest.raises(LintError, match="suppressions"):
            Baseline.load(str(path))

    def test_json_report_round_trips(self, tmp_path):
        findings = run_fixture(tmp_path, {"noc/t.py": "import time\nx = time.time()\n"},
                               rules=["REP001"])
        text = render_json(findings, files=1, rules=["REP001"])
        assert parse_report(text) == findings
        assert json.loads(text)["schema"] == "repro-lint-report/1"

    def test_text_report_mentions_counts(self):
        findings = [Finding("REP002", "a.py", 1, 0, "msg", "README.md#x")]
        text = render_text(findings, files=3, rules=["REP002"])
        assert "REP002 x1" in text and "a.py:1:0" in text
        assert "clean" in render_text([], files=3, rules=["REP002"])


# ----------------------------------------------------------------------
# The gate: whole tree, CLI, committed baseline, manifest fold-in
# ----------------------------------------------------------------------
class TestLintGate:
    def test_whole_tree_reports_zero_findings(self):
        assert lint_paths([SRC_TREE]) == []

    def test_cli_gate_with_committed_baseline(self, capsys):
        status = cli_main(["lint", SRC_TREE, "--baseline", COMMITTED_BASELINE])
        assert status == 0
        assert "clean" in capsys.readouterr().out

    def test_committed_baseline_is_empty(self):
        baseline = Baseline.load(COMMITTED_BASELINE)
        assert len(baseline) == 0

    def test_cli_default_paths_lint_installed_package(self, capsys):
        assert cli_main(["lint"]) == 0

    def test_cli_json_and_rules_subset(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import time\nx = time.time()\n")
        status = cli_main(["lint", str(tmp_path), "--json", "-"])
        payload = json.loads(capsys.readouterr().out)
        assert status == 1
        assert [f["code"] for f in payload["findings"]] == ["REP001"]
        # Restricting to another rule hides the wall-clock finding.
        assert cli_main(["lint", str(tmp_path), "--rules", "REP002"]) == 0
        capsys.readouterr()

    def test_cli_write_then_apply_baseline(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\nx = random.random()\n")
        baseline_path = str(tmp_path / "suppress.json")
        assert cli_main(["lint", str(tmp_path), "--write-baseline", baseline_path]) == 0
        assert cli_main(["lint", str(tmp_path)]) == 1
        assert cli_main(["lint", str(tmp_path), "--baseline", baseline_path]) == 0
        out = capsys.readouterr().out
        assert "suppressed by baseline" in out

    def test_cli_unknown_rule_errors(self, capsys):
        assert cli_main(["lint", SRC_TREE, "--rules", "NOPE"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_live_inventory_matches_committed_manifest(self):
        # Every inventory key, experiments included, as `list --json` reports it.
        inventory = lint_manifest.live_inventory()
        assert inventory["lint_rules"] == LINT_RULES.names()
        failures = lint_manifest.compare_inventory(
            inventory, lint_manifest.load_manifest(COMMITTED_MANIFEST))
        assert failures == []

    def test_inventory_missing_a_whole_registry_is_reported(self):
        manifest = lint_manifest.load_manifest(COMMITTED_MANIFEST)
        without_probes = {key: names for key, names in manifest.items()
                          if key not in ("schema", "probes")}
        assert lint_manifest.compare_inventory(without_probes, manifest) == [
            "probes: missing from the live registry: " + ", ".join(manifest["probes"])
        ]
