"""Component registries: the pluggable axes of the machine design space.

Every axis of a scenario — the NI design, the on-chip/rack topology and the
workload — is a named component in a :class:`ComponentRegistry`.  Components
register themselves with a decorator::

    from repro.scenario.registry import register_ni_design

    @register_ni_design("edge", label="NIedge")
    class NIEdgeDesign(BaseNIDesign):
        ...

and are looked up by name everywhere else (``ManycoreSoc``, the CLI, the
experiment parameter declarations), so adding a new design, topology or
workload never requires editing core modules.

Lookups are resilient to import order: each registry knows the module that
registers the built-in components (:mod:`repro.scenario.components`) and
imports it lazily on first use, so ``WORKLOADS.names()`` is complete whether
or not the caller imported the workload modules first.

:meth:`ComponentRegistry.resolve` is the one string→component normalization
helper shared by the configuration (``SystemConfig.with_design`` /
``with_topology``), CLI ``--set`` parsing and experiment parameter
validation: it accepts a canonical name, an enum member (anything with a
string ``.value``), a registered component or an instance of one, and
returns the canonical name.
"""

from __future__ import annotations

import difflib
import importlib
import inspect
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.errors import RegistryError

#: Module imported lazily to register the built-in components.
_BUILTIN_COMPONENTS_MODULE = "repro.scenario.components"


@dataclass(frozen=True)
class RegistryEntry:
    """One registered component: its canonical name, object and metadata."""

    name: str
    component: object
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def summary(self) -> str:
        """First line of the component's docstring (for CLI listings)."""
        doc = inspect.getdoc(self.component) or ""
        return doc.splitlines()[0] if doc else ""


class ComponentRegistry:
    """A named collection of pluggable components with decorator registration."""

    def __init__(self, kind: str, populate: Optional[str] = _BUILTIN_COMPONENTS_MODULE) -> None:
        #: Human-readable component kind, used in error messages ("NI design").
        self.kind = kind
        self._entries: Dict[str, RegistryEntry] = {}
        self._populate_module = populate
        self._populated = populate is None
        self._populating = False

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name: str, **metadata: object):
        """Decorator registering ``component`` under ``name``.

        Duplicate names fail loudly: silently shadowing a component is how
        two plugins end up fighting over a scenario axis.
        """
        if not name or not isinstance(name, str):
            raise RegistryError("%s name must be a non-empty string, got %r" % (self.kind, name))

        def decorate(component: object) -> object:
            if name in self._entries:
                raise RegistryError(
                    "%s %r is already registered (by %r); pick a different name "
                    "or unregister the existing component first"
                    % (self.kind, name, self._entries[name].component)
                )
            self._entries[name] = RegistryEntry(name=name, component=component, metadata=dict(metadata))
            return component

        return decorate

    def unregister(self, name: str) -> None:
        """Remove a component (used by tests registering throwaway plugins)."""
        self._entries.pop(name, None)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _ensure_populated(self) -> None:
        if self._populated or self._populating:
            return
        self._populating = True
        try:
            importlib.import_module(self._populate_module)
            self._populated = True
        finally:
            self._populating = False

    def names(self, **metadata_filter: object) -> List[str]:
        """Sorted names of every registered component.

        Keyword arguments filter on registration metadata, e.g.
        ``NI_DESIGNS.names(messaging=True)`` lists only the QP-based designs.
        """
        self._ensure_populated()
        return sorted(
            name
            for name, entry in self._entries.items()
            if all(entry.metadata.get(key) == value for key, value in metadata_filter.items())
        )

    def entries(self) -> List[RegistryEntry]:
        """Every registered entry, ordered by name."""
        self._ensure_populated()
        return [self._entries[name] for name in self.names()]

    def entry(self, name: str) -> RegistryEntry:
        """The entry registered under ``name`` (raises with suggestions)."""
        self._ensure_populated()
        try:
            return self._entries[name]
        except KeyError:
            raise RegistryError(self._unknown_message(name)) from None

    def get(self, name: str) -> object:
        """The component registered under ``name`` (raises with suggestions)."""
        return self.entry(name).component

    def __contains__(self, name: object) -> bool:
        self._ensure_populated()
        return name in self._entries

    def __len__(self) -> int:
        self._ensure_populated()
        return len(self._entries)

    # ------------------------------------------------------------------
    # Normalization
    # ------------------------------------------------------------------
    def resolve(self, value: object) -> str:
        """Normalize a name / enum member / component (class or instance) to its canonical name."""
        self._ensure_populated()
        if isinstance(value, str):
            if value in self._entries:
                return value
            raise RegistryError(self._unknown_message(value))
        enum_value = getattr(value, "value", None)
        if isinstance(enum_value, str) and enum_value in self._entries:
            return enum_value
        for name, entry in self._entries.items():
            if value is entry.component:
                return name
            if inspect.isclass(entry.component) and isinstance(value, entry.component):
                return name
        if isinstance(enum_value, str):
            raise RegistryError(self._unknown_message(enum_value))
        raise RegistryError(
            "cannot resolve %r to a registered %s (registered: %s)"
            % (value, self.kind, ", ".join(self.names()) or "none")
        )

    def _unknown_message(self, name: str) -> str:
        registered = self.names()
        message = "unknown %s %r (registered: %s)" % (
            self.kind, name, ", ".join(registered) or "none",
        )
        suggestions = difflib.get_close_matches(name, registered, n=2, cutoff=0.5)
        if suggestions:
            message += "; did you mean %s?" % " or ".join(repr(s) for s in suggestions)
        return message


# ----------------------------------------------------------------------
# The eight component axes
# ----------------------------------------------------------------------
#: NI placements: assembly classes building the chip's RGP/RCP/RRPP pipelines
#: (metadata ``messaging=False`` marks the load/store NUMA baseline).
NI_DESIGNS = ComponentRegistry("NI design")
#: Topology builders.  ``scope="chip"`` entries map a SystemConfig to a
#: ChipPlacement; ``scope="rack"`` entries build inter-node fabrics.
TOPOLOGIES = ComponentRegistry("topology")
#: Workload classes implementing the :class:`repro.scenario.workload.Workload`
#: lifecycle (setup / inject / drain / metrics).
WORKLOADS = ComponentRegistry("workload")
#: Open-loop arrival processes (:class:`repro.load.arrivals.ArrivalProcess`
#: subclasses) used by the load subsystem's :class:`OpenLoopDriver`; the
#: built-ins live in :mod:`repro.load.arrivals`, hence the distinct populate
#: module.
ARRIVALS = ComponentRegistry("arrival process", populate="repro.load.arrivals")
#: Fault models (:class:`repro.faults.models.FaultModel` subclasses) the
#: fault-injection subsystem activates on a seeded window schedule; the
#: built-ins live in :mod:`repro.faults.models`, hence the distinct populate
#: module.
FAULT_MODELS = ComponentRegistry("fault model", populate="repro.faults.models")
#: Static-analysis rules (:class:`repro.lint.rules.LintRule` subclasses) the
#: determinism/kernel-contract linter runs over the source tree; the
#: built-ins live in :mod:`repro.lint.rules`, hence the distinct populate
#: module.
LINT_RULES = ComponentRegistry("lint rule", populate="repro.lint.rules")
#: Design-space search strategies (:class:`repro.explore.strategies
#: .SearchStrategy` subclasses) the exploration engine asks for the next
#: batch of scenario points to evaluate; the built-ins live in
#: :mod:`repro.explore.strategies`, hence the distinct populate module.
EXPLORE_STRATEGIES = ComponentRegistry("search strategy", populate="repro.explore.strategies")
#: Telemetry probes (:class:`repro.obs.probes.TelemetryProbe` subclasses) the
#: observability subsystem samples at a sim-time cadence into the
#: ``repro-obs-stream/1`` channel; the built-ins live in
#: :mod:`repro.obs.probes`, hence the distinct populate module.
PROBES = ComponentRegistry("telemetry probe", populate="repro.obs.probes")


def register_ni_design(name: str, **metadata: object):
    """Register an NI design assembly class, e.g. ``@register_ni_design("edge")``."""
    return NI_DESIGNS.register(name, **metadata)


def register_topology(name: str, **metadata: object):
    """Register a topology builder, e.g. ``@register_topology("mesh", scope="chip")``."""
    return TOPOLOGIES.register(name, **metadata)


def register_workload(name: str, **metadata: object):
    """Register a workload class, e.g. ``@register_workload("uniform_random")``."""
    return WORKLOADS.register(name, **metadata)


def register_arrival_process(name: str, **metadata: object):
    """Register an arrival process, e.g. ``@register_arrival_process("poisson")``."""
    return ARRIVALS.register(name, **metadata)


def register_fault_model(name: str, **metadata: object):
    """Register a fault model, e.g. ``@register_fault_model("link_down")``."""
    return FAULT_MODELS.register(name, **metadata)


def register_lint_rule(name: str, **metadata: object):
    """Register a lint rule, e.g. ``@register_lint_rule("REP001", title="wall-clock ban")``."""
    return LINT_RULES.register(name, **metadata)


def register_strategy(name: str, **metadata: object):
    """Register a search strategy, e.g. ``@register_strategy("evolve")``."""
    return EXPLORE_STRATEGIES.register(name, **metadata)


def register_probe(name: str, **metadata: object):
    """Register a telemetry probe, e.g. ``@register_probe("rolling_tails")``."""
    return PROBES.register(name, **metadata)


#: The eight registries in listing order, one row each: catalog and manifest
#: key, registry, plural noun and registration decorator.  The CLI's ``list``
#: flags and JSON catalog, the manifest inventory and lint rule REP004's
#: decorator map all read this table, so a new registry is one row here plus
#: its key in ``tests/data/registry_manifest.json``.
REGISTRIES = (
    ("designs", NI_DESIGNS, "NI designs", "register_ni_design"),
    ("topologies", TOPOLOGIES, "topologies", "register_topology"),
    ("workloads", WORKLOADS, "workloads", "register_workload"),
    ("arrivals", ARRIVALS, "arrival processes", "register_arrival_process"),
    ("faults", FAULT_MODELS, "fault models", "register_fault_model"),
    ("lint_rules", LINT_RULES, "lint rules", "register_lint_rule"),
    ("strategies", EXPLORE_STRATEGIES, "search strategies", "register_strategy"),
    ("probes", PROBES, "telemetry probes", "register_probe"),
)
