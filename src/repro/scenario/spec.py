"""Declarative scenario specifications.

A :class:`ScenarioSpec` names one point in the machine/workload design
space: an NI design, an on-chip topology, a workload with its parameter
overrides, and optional dotted-path configuration overrides (e.g.
``{"cores.count": 16}``).  Specs are JSON/dict round-trippable and
content-fingerprinted the same way :class:`~repro.config.SystemConfig` and
campaign run requests are, so scenario results can be cached and compared by
identity::

    spec = ScenarioSpec(design="edge", workload="hotspot",
                        workload_params={"active_cores": 8})
    spec == ScenarioSpec.from_dict(spec.to_dict())   # round trip
    spec.fingerprint()                               # stable content hash

Component names are validated (and canonicalized) against the registries at
construction time, so a typo fails before any machine is built — with the
registered names, and a suggestion, in the error message.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.config import SystemConfig
from repro.errors import ScenarioError
from repro.scenario.registry import (
    ARRIVALS,
    FAULT_MODELS,
    NI_DESIGNS,
    TOPOLOGIES,
    WORKLOADS,
)


def _jsonable(value: object) -> object:
    """Normalize a parameter value to a canonical JSON-native form."""
    if isinstance(value, enum.Enum):
        return _jsonable(value.value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if value is None or isinstance(value, (int, float, str, bool)):
        return value
    raise ScenarioError("scenario parameter value %r is not JSON-serializable" % (value,))


@dataclass(frozen=True)
class ScenarioSpec:
    """One composable machine + workload scenario."""

    design: str = "split"
    topology: str = "mesh"
    workload: str = "uniform_random"
    #: Overrides for the workload's declared parameters.
    workload_params: Mapping[str, object] = field(default_factory=dict)
    #: Dotted-path SystemConfig overrides, e.g. ``{"cores.count": 16}``.
    config_overrides: Mapping[str, object] = field(default_factory=dict)
    #: Open-loop arrival process (``ARRIVALS`` registry name); None means the
    #: scenario runs closed-loop.  Only the load subsystem's OpenLoopDriver
    #: acts on these fields — MachineBuilder ignores them.
    arrivals: Optional[str] = None
    #: Overrides for the arrival process's declared parameters.
    arrival_params: Mapping[str, object] = field(default_factory=dict)
    #: Fault model (``FAULT_MODELS`` registry name); None means the scenario
    #: runs fault-free.  Like ``arrivals``, only the load subsystem acts on
    #: these fields — MachineBuilder ignores them.
    faults: Optional[str] = None
    #: Overrides for the fault model (``intensity``, schedule knobs such as
    #: ``mtbf_cycles``/``mttr_cycles``, and model-specific parameters).
    fault_params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Canonicalize names through the registries (raises RegistryError —
        # a ConfigurationError subclass — listing what exists).
        object.__setattr__(self, "design", NI_DESIGNS.resolve(self.design))
        object.__setattr__(self, "topology", TOPOLOGIES.resolve(self.topology))
        object.__setattr__(self, "workload", WORKLOADS.resolve(self.workload))
        object.__setattr__(self, "workload_params", _jsonable(dict(self.workload_params)))
        object.__setattr__(self, "config_overrides", _jsonable(dict(self.config_overrides)))
        if self.arrivals is not None:
            object.__setattr__(self, "arrivals", ARRIVALS.resolve(self.arrivals))
        elif self.arrival_params:
            raise ScenarioError("arrival_params given without an arrivals process name")
        object.__setattr__(self, "arrival_params", _jsonable(dict(self.arrival_params)))
        if self.faults is not None:
            object.__setattr__(self, "faults", FAULT_MODELS.resolve(self.faults))
        elif self.fault_params:
            raise ScenarioError("fault_params given without a fault model name")
        object.__setattr__(self, "fault_params", _jsonable(dict(self.fault_params)))
        if self.faults is not None:
            # Unknown fault parameters fail at spec resolution (with a
            # "did you mean" hint), not mid-simulation.  Lazy import: the
            # registry module must not depend on the faults package.
            from repro.faults.injector import validate_fault_params

            validate_fault_params(self.faults, self.fault_params)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def replace(self, **kwargs: object) -> "ScenarioSpec":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)

    def resolve_config(self, base: Optional[SystemConfig] = None) -> SystemConfig:
        """The :class:`SystemConfig` this scenario runs with.

        Applies, in order: the design, the topology and the dotted-path
        overrides (which therefore win) on top of ``base`` (paper defaults
        when omitted).
        """
        config = base if base is not None else SystemConfig.paper_defaults()
        config = config.with_design(self.design)
        if TOPOLOGIES.entry(self.topology).metadata.get("scope", "chip") == "chip":
            config = config.with_topology(self.topology)
        for dotted, value in self.config_overrides.items():
            section, _, fieldname = dotted.partition(".")
            if not fieldname:
                config = _apply_top_level_override(config, section, value)
            else:
                config = _apply_section_override(config, section, fieldname, value)
        return config

    # ------------------------------------------------------------------
    # Serialization / identity
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        document: Dict[str, object] = {
            "design": self.design,
            "topology": self.topology,
            "workload": self.workload,
            "workload_params": dict(self.workload_params),
            "config_overrides": dict(self.config_overrides),
        }
        # Closed-loop specs serialize exactly as before the load subsystem
        # existed, so their fingerprints (and cached results) stay valid.
        if self.arrivals is not None:
            document["arrivals"] = self.arrivals
            document["arrival_params"] = dict(self.arrival_params)
        # Likewise: fault-free specs serialize exactly as before fault
        # injection existed, keeping their fingerprints unchanged.
        if self.faults is not None:
            document["faults"] = self.faults
            document["fault_params"] = dict(self.fault_params)
        return document

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ScenarioSpec":
        arrivals = payload.get("arrivals")
        faults = payload.get("faults")
        try:
            return cls(
                design=str(payload.get("design", "split")),
                topology=str(payload.get("topology", "mesh")),
                workload=str(payload.get("workload", "uniform_random")),
                workload_params=dict(payload.get("workload_params", {})),
                config_overrides=dict(payload.get("config_overrides", {})),
                arrivals=str(arrivals) if arrivals is not None else None,
                arrival_params=dict(payload.get("arrival_params", {})),
                faults=str(faults) if faults is not None else None,
                fault_params=dict(payload.get("fault_params", {})),
            )
        except (TypeError, ValueError) as exc:
            raise ScenarioError("malformed scenario document: %s" % exc) from None

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError("invalid scenario JSON: %s" % exc) from None
        return cls.from_dict(payload)

    def fingerprint(self) -> str:
        """Short content hash identifying this exact scenario.

        Two specs share a fingerprint iff every field (after name
        canonicalization) is equal — the same contract as
        :meth:`repro.config.SystemConfig.fingerprint`.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def label(self) -> str:
        """Human-readable one-liner, e.g. ``hotspot@edge/mesh``."""
        return "%s@%s/%s" % (self.workload, self.design, self.topology)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScenarioSpec):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash(self.fingerprint())


# ----------------------------------------------------------------------
# Dotted-path config overrides
# ----------------------------------------------------------------------
def _apply_top_level_override(config: SystemConfig, name: str, value: object) -> SystemConfig:
    if not hasattr(config, name) or name not in {f.name for f in dataclasses.fields(config)}:
        raise ScenarioError(
            "unknown config override %r (top-level fields: %s)"
            % (name, ", ".join(sorted(f.name for f in dataclasses.fields(config))))
        )
    return config.replace(**{name: _coerce_field_value(getattr(config, name), name, value)})


def _apply_section_override(
    config: SystemConfig, section: str, fieldname: str, value: object
) -> SystemConfig:
    current = getattr(config, section, None)
    if current is None or not dataclasses.is_dataclass(current):
        raise ScenarioError(
            "unknown config section %r in override %r (sections: %s)"
            % (
                section,
                "%s.%s" % (section, fieldname),
                ", ".join(sorted(
                    f.name for f in dataclasses.fields(config)
                    if dataclasses.is_dataclass(getattr(config, f.name))
                )),
            )
        )
    if fieldname not in {f.name for f in dataclasses.fields(current)}:
        raise ScenarioError(
            "config section %r has no field %r (fields: %s)"
            % (section, fieldname, ", ".join(sorted(f.name for f in dataclasses.fields(current))))
        )
    coerced = _coerce_field_value(getattr(current, fieldname), fieldname, value)
    return config.replace(**{section: dataclasses.replace(current, **{fieldname: coerced})})


def _coerce_field_value(current: object, fieldname: str, value: object) -> object:
    """Coerce a JSON-native override onto the field's existing type."""
    if isinstance(current, enum.Enum) and not isinstance(value, type(current)):
        try:
            return type(current)(value)
        except ValueError:
            raise ScenarioError(
                "config field %r must be one of %s, got %r"
                % (fieldname, ", ".join(repr(m.value) for m in type(current)), value)
            ) from None
    if isinstance(current, tuple) and isinstance(value, list):
        return tuple(value)
    if isinstance(current, bool) and not isinstance(value, bool):
        raise ScenarioError("config field %r expects a bool, got %r" % (fieldname, value))
    if isinstance(current, int) and not isinstance(current, bool) and isinstance(value, bool):
        raise ScenarioError("config field %r expects an int, got %r" % (fieldname, value))
    if isinstance(current, float) and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    return value
