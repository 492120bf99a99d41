"""Objectives: scalar figures of merit extracted from experiment results.

Each :class:`Objective` names one axis of the Pareto comparison — its
optimization sense, unit and an extractor that reads the value out of an
:class:`~repro.experiments.base.ExperimentResult`.  The built-ins cover the
ROADMAP's (saturation throughput, p99, cost) triple plus the resilience
follow-up:

* ``saturation`` — SLO-saturation throughput in req/kcycle (maximize),
  parsed from the ``load_sweep`` saturation note (or ``chaos_sweep``'s
  fault-free baseline digest) by
  :func:`repro.experiments.open_loop_sweeps.saturation_from_notes`;
* ``p99`` — the p99 latency in ns at the lowest measured load (minimize),
  the unloaded tail;
* ``cost`` — simulated events per run (minimize), the discrete-event proxy
  for how much machine the scenario spends producing its throughput;
* ``degraded_saturation`` — the worst SLO-preserving degraded throughput
  across injected fault intensities (maximize), via
  :func:`repro.experiments.open_loop_sweeps.worst_degraded_saturation` —
  chaos points as a searchable objective, not just a swept one.

Extractors return ``None`` when a result does not carry the metric at all
(e.g. asking ``degraded_saturation`` of a fault-free experiment); the
engine records such evaluations as infeasible and keeps them off the
Pareto front.  All extracted values are deterministic functions of the
simulation (never wall-clock rates), so explore reports stay byte-identical
across repeat runs and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExploreError
from repro.experiments.base import ExperimentResult
from repro.experiments.open_loop_sweeps import (
    saturation_from_notes,
    worst_degraded_saturation,
)


@dataclass(frozen=True)
class Objective:
    """One named, sensed figure of merit."""

    name: str
    sense: str  # "max" | "min"
    unit: str
    description: str
    extractor: Callable[[ExperimentResult], Optional[float]]

    def __post_init__(self) -> None:
        if self.sense not in ("max", "min"):
            raise ExploreError(
                "objective %r has unsupported sense %r (expected max or min)"
                % (self.name, self.sense)
            )

    def extract(self, result: ExperimentResult) -> Optional[float]:
        """The objective's value for one result (None = not measurable)."""
        return self.extractor(result)

    def oriented(self, value: float) -> float:
        """The value mapped so that larger is always better."""
        return value if self.sense == "max" else -value

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "sense": self.sense, "unit": self.unit,
                "description": self.description}


# ----------------------------------------------------------------------
# Built-in extractors
# ----------------------------------------------------------------------
def _extract_saturation(result: ExperimentResult) -> Optional[float]:
    return saturation_from_notes(result.notes)


def _extract_p99(result: ExperimentResult) -> Optional[float]:
    if "p99 (ns)" not in result.headers:
        return None
    values = [value for value in result.column("p99 (ns)")
              if isinstance(value, (int, float))]
    if not values:
        return None
    # Rows walk the load ladder in ascending offered load, so the first row
    # is the lowest measured load: the unloaded tail.
    return float(values[0])


def _extract_cost(result: ExperimentResult) -> Optional[float]:
    events = result.metadata.perf.get("events", 0.0)
    if events > 0:
        return float(events)
    return None


def _extract_degraded_saturation(result: ExperimentResult) -> Optional[float]:
    return worst_degraded_saturation(result.notes)


#: The built-in objectives, keyed by name.
OBJECTIVES: Dict[str, Objective] = {
    objective.name: objective
    for objective in (
        Objective(
            name="saturation",
            sense="max",
            unit="req/kcycle",
            description="SLO-saturation throughput (load_sweep note; "
                        "0.0 when no measured load met the SLO)",
            extractor=_extract_saturation,
        ),
        Objective(
            name="p99",
            sense="min",
            unit="ns",
            description="p99 latency at the lowest measured load (unloaded tail)",
            extractor=_extract_p99,
        ),
        Objective(
            name="cost",
            sense="min",
            unit="events",
            description="simulated discrete events per run (machine-cost proxy)",
            extractor=_extract_cost,
        ),
        Objective(
            name="degraded_saturation",
            sense="max",
            unit="req/kcycle",
            description="worst SLO-preserving degraded throughput across "
                        "injected fault intensities (chaos_sweep)",
            extractor=_extract_degraded_saturation,
        ),
    )
}


def resolve_objectives(names: Sequence[str]) -> Tuple[Objective, ...]:
    """Look up objectives by name (order-preserving, duplicates rejected)."""
    if not names:
        raise ExploreError("exploration needs at least one objective")
    resolved: List[Objective] = []
    seen = set()
    for name in names:
        if name in seen:
            raise ExploreError("objective %r given twice" % name)
        seen.add(name)
        try:
            resolved.append(OBJECTIVES[name])
        except KeyError:
            raise ExploreError(
                "unknown objective %r (available: %s)"
                % (name, ", ".join(sorted(OBJECTIVES)))
            ) from None
    return tuple(resolved)


def extract_all(
    objectives: Sequence[Objective], result: ExperimentResult
) -> Dict[str, Optional[float]]:
    """Every objective's value for one result, keyed by objective name."""
    return {objective.name: objective.extract(result) for objective in objectives}
