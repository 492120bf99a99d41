"""Exception hierarchy for the repro package.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library failures without masking programming errors such as
``TypeError`` or ``KeyError`` raised by the standard library.
:func:`reject_unknown_params` is the one check every ``param_defaults``
protocol raises its own error class through.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Type


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


def reject_unknown_params(owner: str, params: Iterable[str], accepted: Mapping[str, object],
                          error: Type[ReproError]) -> None:
    """Raise ``error`` naming ``owner`` if ``params`` holds a name ``accepted`` lacks.

    The one unknown-parameter check of every ``param_defaults`` protocol
    (workloads, arrival processes, fault models and schedules, telemetry
    probes); the message lists the accepted names so a typo is easy to fix.
    """
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise error(
            "%s: unknown parameter(s) %s (accepted: %s)"
            % (owner, ", ".join(repr(name) for name in unknown),
               ", ".join(sorted(accepted)) or "none")
        )


class ConfigurationError(ReproError):
    """A :class:`~repro.config.SystemConfig` (or derived object) is invalid."""


class RegistryError(ConfigurationError):
    """A component registry lookup or registration failed.

    Subclasses :class:`ConfigurationError` so callers that treated unknown
    design/topology/workload names as configuration problems keep working.
    """


class ScenarioError(ReproError):
    """A :class:`~repro.scenario.spec.ScenarioSpec` is malformed or unresolvable."""


class SimulationError(ReproError):
    """The discrete-event simulation kernel detected an inconsistent state."""


class TopologyError(ReproError):
    """An on-chip or rack topology was asked for an impossible route/node."""


class RoutingError(TopologyError):
    """A routing function could not produce a legal path."""


class CoherenceError(ReproError):
    """The coherence protocol reached an illegal state transition."""


class ProtocolError(ReproError):
    """The soNUMA wire protocol was violated (malformed or out-of-order message)."""


class QueueError(ReproError):
    """A work/completion queue operation was illegal (full, empty, bad index)."""


class PlacementError(ReproError):
    """An NI placement or frontend-to-backend mapping is inconsistent."""


class WorkloadError(ReproError):
    """A workload/microbenchmark was configured with unusable parameters."""


class ExperimentError(ReproError):
    """An experiment harness failed to produce its table or figure data."""


class FaultError(ReproError):
    """A fault model or fault schedule was configured with unusable parameters."""


class LintError(ReproError):
    """The static-analysis driver was misconfigured (bad rule, path or baseline)."""


class ExploreError(ReproError):
    """A design-space exploration was misconfigured (bad space, objective or strategy)."""


class ObsError(ReproError):
    """The observability layer was misconfigured (bad probe, stream or record)."""
