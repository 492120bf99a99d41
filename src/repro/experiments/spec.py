"""Declarative experiment specifications.

Each table/figure of the paper is described by an :class:`ExperimentSpec`:
a name, a title, a human-readable description and a tuple of typed
:class:`Parameter` declarations.  The spec owns parameter validation and
string parsing (the CLI's ``--set param=value`` overrides), executes the
underlying runner with merged defaults, and stamps the returned
:class:`~repro.experiments.base.ExperimentResult` with reproducibility
metadata (resolved parameters, config fingerprint, wall time).

Experiment modules register themselves with the :func:`experiment`
decorator::

    @experiment(
        name="fig6",
        title="Figure 6",
        description="Synchronous remote-read latency vs. transfer size.",
        parameters=(
            Parameter("design", str, default=None, choices=("edge", "split", "per_tile")),
            Parameter("sizes", int, default=FIG6_SIZES, repeated=True),
        ),
    )
    def run_fig6(config=None, *, design=None, sizes=FIG6_SIZES):
        ...

The decorator returns the original function unchanged (so direct calls keep
working) and attaches the spec as ``run_fig6.spec``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.config import SystemConfig
from repro.errors import ExperimentError
from repro.obs import hooks as obs_hooks
from repro.sim import perf as sim_perf

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (base imports nothing from here)
    from repro.experiments.base import ExperimentResult

#: Scalar types a parameter may declare.
_SCALAR_TYPES = (int, float, bool, str)

_TRUE_WORDS = frozenset(("1", "true", "yes", "on"))
_FALSE_WORDS = frozenset(("0", "false", "no", "off"))


@dataclass(frozen=True)
class Parameter:
    """One typed, defaultable, optionally-enumerated experiment parameter."""

    name: str
    kind: type = str
    default: object = None
    help: str = ""
    #: Legal values (after parsing); ``None`` means unconstrained.  A
    #: zero-argument callable is evaluated at validation time, which lets
    #: registry-backed parameters accept components registered after this
    #: module was imported (e.g. third-party workloads).
    choices: object = None
    #: Repeated parameters hold a sequence of scalars (e.g. transfer sizes).
    repeated: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _SCALAR_TYPES:
            raise ExperimentError(
                "parameter %r has unsupported type %r (expected one of int, float, bool, str)"
                % (self.name, self.kind)
            )

    # ------------------------------------------------------------------
    # String parsing (CLI --set overrides)
    # ------------------------------------------------------------------
    def parse(self, text: str, list_separator: str = ",") -> object:
        """Parse a command-line value string into this parameter's type.

        Repeated parameters split ``text`` on ``list_separator`` first; the
        sweep CLI passes ``":"`` so commas stay free for enumerating the
        sweep axis.
        """
        if self.repeated:
            items = [item for item in text.split(list_separator) if item != ""]
            if not items:
                raise ExperimentError("parameter %r requires at least one value" % self.name)
            return self.validate(tuple(self._parse_scalar(item) for item in items))
        return self.validate(self._parse_scalar(text))

    def _parse_scalar(self, text: str) -> object:
        text = text.strip()
        try:
            if self.kind is bool:
                lowered = text.lower()
                if lowered in _TRUE_WORDS:
                    return True
                if lowered in _FALSE_WORDS:
                    return False
                raise ValueError(text)
            return self.kind(text)
        except ValueError:
            raise ExperimentError(
                "parameter %r expects a %s value, got %r"
                % (self.name, self.kind.__name__, text)
            ) from None

    # ------------------------------------------------------------------
    # Validation (programmatic overrides)
    # ------------------------------------------------------------------
    def validate(self, value: object) -> object:
        """Check (and lightly coerce) an override value; return the value."""
        if value is None:
            return None
        if self.repeated:
            if isinstance(value, (str, bytes)) or not isinstance(value, Sequence):
                raise ExperimentError(
                    "parameter %r expects a sequence of %s values, got %r"
                    % (self.name, self.kind.__name__, value)
                )
            return tuple(self._validate_scalar(item) for item in value)
        return self._validate_scalar(value)

    def _validate_scalar(self, value: object) -> object:
        if self.kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, self.kind) or (self.kind is not bool and isinstance(value, bool)):
            raise ExperimentError(
                "parameter %r expects a %s value, got %r (%s)"
                % (self.name, self.kind.__name__, value, type(value).__name__)
            )
        if self.kind is float and not math.isfinite(value):
            # A NaN or infinite window or rate would never end a run.
            raise ExperimentError(
                "parameter %r expects a finite float value, got %r" % (self.name, value)
            )
        choices = self.choice_values()
        if choices is not None and value not in choices:
            raise ExperimentError(
                "parameter %r must be one of %s, got %r"
                % (self.name, ", ".join(repr(c) for c in choices), value)
            )
        return value

    def choice_values(self) -> Optional[Tuple[object, ...]]:
        """The legal values right now (late-bound choices are re-evaluated)."""
        if self.choices is None:
            return None
        if callable(self.choices):
            return tuple(self.choices())
        return tuple(self.choices)

    def describe(self) -> str:
        """One-line human-readable summary (used by ``repro-experiments list``)."""
        parts = ["%s: %s%s" % (self.name, self.kind.__name__, "[]" if self.repeated else "")]
        parts.append("default=%r" % (self.default,))
        choices = self.choice_values()
        if choices is not None:
            parts.append("choices=%s" % ",".join(str(c) for c in choices))
        if self.help:
            parts.append("- %s" % self.help)
        return " ".join(parts)


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one regenerable table/figure."""

    name: str
    title: str
    description: str
    runner: Callable[..., "ExperimentResult"]
    parameters: Tuple[Parameter, ...] = ()
    #: Analytical-only experiments that finish in well under a second.
    fast: bool = False
    #: Factory for the config used when the caller does not supply one.
    default_config: Callable[[], SystemConfig] = SystemConfig.paper_defaults
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for parameter in self.parameters:
            if parameter.name in seen:
                raise ExperimentError(
                    "experiment %r declares parameter %r twice" % (self.name, parameter.name)
                )
            seen.add(parameter.name)

    # ------------------------------------------------------------------
    # Parameter handling
    # ------------------------------------------------------------------
    def parameter(self, name: str) -> Parameter:
        for parameter in self.parameters:
            if parameter.name == name:
                return parameter
        raise ExperimentError(
            "experiment %r has no parameter %r (declared: %s)"
            % (self.name, name, ", ".join(p.name for p in self.parameters) or "none")
        )

    def defaults(self) -> Dict[str, object]:
        return {parameter.name: parameter.default for parameter in self.parameters}

    def resolve(self, overrides: Optional[Mapping[str, object]] = None) -> Dict[str, object]:
        """Merge overrides into the declared defaults, validating each value."""
        params = self.defaults()
        for name, value in (overrides or {}).items():
            parameter = self.parameter(name)
            params[name] = parameter.validate(value)
        return params

    def parse_overrides(self, assignments: Sequence[str],
                        list_separator: str = ",") -> Dict[str, object]:
        """Parse ``param=value`` strings (the CLI's ``--set``) into overrides."""
        overrides: Dict[str, object] = {}
        for assignment in assignments:
            name, separator, text = assignment.partition("=")
            if not separator or not name:
                raise ExperimentError(
                    "malformed --set %r (expected param=value)" % assignment
                )
            overrides[name] = self.parameter(name).parse(text, list_separator=list_separator)
        return overrides

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, config: Optional[SystemConfig] = None, **overrides: object) -> "ExperimentResult":
        """Run the experiment with validated parameters and stamp metadata."""
        params = self.resolve(overrides)
        obs = obs_hooks.active()
        if obs is not None and not obs.run_label:
            # Campaigns stamp the run label with the entry's config
            # fingerprint before executing; standalone spec runs under an
            # active session fall back to the spec name.
            obs.set_run(self.name)
        started = time.perf_counter()
        with sim_perf.session() as perf_session:
            result = self.runner(config=config, **params)
        elapsed = time.perf_counter() - started
        result.metadata.experiment = self.name
        if perf_session.events:
            # Analytical experiments execute no simulation events; leave their
            # perf block empty instead of reporting a meaningless 0-rate.
            result.metadata.perf = perf_session.summary()
        result.metadata.params = _jsonable_params(params)
        if not result.metadata.config_fingerprint:
            # Runners that derive a different effective config (e.g. the
            # NOC-Out figures) stamp the fingerprint themselves.
            effective = config if config is not None else self.default_config()
            result.metadata.config_fingerprint = effective.fingerprint()
        result.metadata.wall_time_s = elapsed
        result.metadata.row_count = len(result.rows)
        return result

    def describe(self) -> str:
        """Multi-line summary: title, description and declared parameters."""
        lines = ["%s (%s)" % (self.name, self.title), "  %s" % self.description]
        for parameter in self.parameters:
            lines.append("  --set %s" % parameter.describe())
        return "\n".join(lines)


def _jsonable_params(params: Mapping[str, object]) -> Dict[str, object]:
    return {
        name: list(value) if isinstance(value, tuple) else value
        for name, value in params.items()
    }


# ----------------------------------------------------------------------
# Global registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec to the global registry (rejecting duplicate names)."""
    if spec.name in _REGISTRY:
        raise ExperimentError("experiment %r is already registered" % spec.name)
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove a spec (used by tests that register throwaway experiments)."""
    _REGISTRY.pop(name, None)


def get_spec(name: str) -> ExperimentSpec:
    """Look up a spec by name, with a helpful error listing what exists."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ExperimentError(
            "unknown experiment %r (available: %s)" % (name, ", ".join(list_specs()))
        ) from None


def list_specs() -> List[str]:
    """Sorted names of every registered experiment."""
    return sorted(_REGISTRY)


def iter_specs() -> List[ExperimentSpec]:
    """Every registered spec, ordered by name."""
    return [_REGISTRY[name] for name in list_specs()]


def experiment(
    name: str,
    title: str,
    description: str,
    parameters: Sequence[Parameter] = (),
    fast: bool = False,
    default_config: Callable[[], SystemConfig] = SystemConfig.paper_defaults,
    tags: Sequence[str] = (),
) -> Callable[[Callable[..., "ExperimentResult"]], Callable[..., "ExperimentResult"]]:
    """Class decorator-style registration for experiment runner functions."""
    def decorate(runner: Callable[..., "ExperimentResult"]) -> Callable[..., "ExperimentResult"]:
        spec = ExperimentSpec(
            name=name,
            title=title,
            description=description,
            runner=runner,
            parameters=tuple(parameters),
            fast=fast,
            default_config=default_config,
            tags=tuple(tags),
        )
        register(spec)
        runner.spec = spec  # type: ignore[attr-defined]
        return runner
    return decorate
