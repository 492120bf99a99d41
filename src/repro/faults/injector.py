"""Fault-state toggling on the simulation clock.

The :class:`FaultInjector` owns the glue between a
:class:`~repro.faults.models.FaultModel`, its
:class:`~repro.faults.schedule.FaultSchedule` and a built machine: it binds
the model's targets, attaches a shared :class:`FaultState` to the hot paths
(``machine.fabric.faults`` for the NOC, ``machine.fault_state`` for the core
issue path) and schedules one activation/deactivation event per window
through :meth:`~repro.sim.engine.Simulator.schedule_at`.  Events cannot be
removed from the queue, so :meth:`FaultInjector.cancel` disarms the pending
toggles instead: they still fire, as no-ops.

Keeping the toggles as ordinary queue-resident events is what makes fault
injection safe under the NOC's lookahead hop fusion with no extra mechanism:
``next_event_time()`` can never exceed the next pending toggle, so a fused
walk's strict ``arrival < head`` bound stops it at the fault boundary and
the walk falls back to per-hop events exactly like the queue-head tie case.
Toggle events are scheduled at install time (before any deferred hop can be
scheduled at the same timestamp), so at a shared boundary cycle the toggle's
lower sequence number makes it fire first — a hop held until recovery always
observes the recovered state.
"""

from __future__ import annotations

import difflib
import hashlib
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import FaultError
from repro.faults.cascade import (
    CASCADE_DEFAULTS,
    CASCADE_PARAM_KEYS,
    CascadeFaultState,
    FaultCascade,
)
from repro.faults.models import FaultModel
from repro.faults.schedule import FaultSchedule
from repro.faults.seeds import derive_seed
from repro.scenario.registry import FAULT_MODELS
from repro.sim import perf

__all__ = [
    "DEFAULT_INTENSITY",
    "FaultInjector",
    "FaultState",
    "SCHEDULE_PARAM_KEYS",
    "build_fault_injector",
    "derive_seed",
    "validate_fault_params",
]

#: Default fraction of targets affected when ``fault_params`` omits it.
DEFAULT_INTENSITY = 0.25

#: ``fault_params`` keys consumed by the schedule rather than the model.
SCHEDULE_PARAM_KEYS = frozenset(FaultSchedule.param_defaults)


class FaultState:
    """The shared mutable record every fault-aware hot path consults.

    ``active`` flips on the injector's toggle events; the per-hook methods
    gate on it first so an installed-but-idle fault (or an empty schedule)
    costs one attribute check and leaves behaviour bit-identical to a run
    with no fault model at all.  ``hits`` counts hook invocations that
    actually perturbed something — the fault analogue of ``fused_hops``.
    """

    __slots__ = ("model", "active", "window_until", "windows", "hits", "_perf")

    def __init__(self, model: FaultModel) -> None:
        self.model = model
        self.active = False
        #: Recovery time of the window currently active (meaningless while
        #: inactive); lets models like ``link_down`` defer work to recovery.
        self.window_until = 0.0
        self.windows = 0
        self.hits = 0
        self._perf = perf.register()

    # ------------------------------------------------------------------
    # Hot-path hooks (thin active-gated wrappers over the model's)
    # ------------------------------------------------------------------
    def hop_delay(self, link_key, arrival: float, hop_cycles: int) -> float:
        if not self.active:
            return 0.0
        extra = self.model.hop_delay(self, link_key, arrival, hop_cycles)
        if extra > 0.0:
            self.hits += 1
            self._perf.fault_hits += 1
        return extra

    def loss_delay(self, packet_id: int) -> float:
        if not self.active:
            return 0.0
        extra = self.model.loss_delay(self, packet_id)
        if extra > 0.0:
            self.hits += 1
            self._perf.fault_hits += 1
        return extra

    def issue_penalty(self, core_id: int) -> float:
        if not self.active:
            return 0.0
        extra = self.model.issue_penalty(self, core_id)
        if extra > 0.0:
            self.hits += 1
            self._perf.fault_hits += 1
        return extra

    def core_rejects(self, core_id: int) -> bool:
        if not self.active:
            return False
        if self.model.core_rejects(self, core_id):
            self.hits += 1
            self._perf.fault_hits += 1
            return True
        return False

    def directory_retry(self, addr: int, attempt: int) -> float:
        if not self.active:
            return 0.0
        extra = self.model.directory_retry(self, addr, attempt)
        if extra > 0.0:
            self.hits += 1
            self._perf.fault_hits += 1
        return extra


class FaultInjector:
    """Installs a fault model on a machine and toggles it per schedule."""

    def __init__(self, machine, model: FaultModel, schedule: FaultSchedule,
                 core_ids: Sequence[int] = (),
                 cascade: Optional[FaultCascade] = None,
                 cascade_model: Optional[FaultModel] = None) -> None:
        if (cascade is None) != (cascade_model is None):
            raise FaultError("a fault cascade needs both a trigger spec and a model")
        self.machine = machine
        self.model = model
        self.schedule = schedule
        self.core_ids = list(core_ids)
        self.cascade = cascade
        self.cascade_model = cascade_model
        self._primary = FaultState(model)
        if cascade_model is not None:
            self._secondary: Optional[FaultState] = FaultState(cascade_model)
            self.state: Union[FaultState, CascadeFaultState] = CascadeFaultState(
                self._primary, self._secondary
            )
        else:
            self._secondary = None
            self.state = self._primary
        #: The realized windows (set by :meth:`install`).
        self.windows: List[Tuple[float, float]] = []
        #: The realized cascade windows and trigger count (set by install).
        self.cascade_windows: List[Tuple[float, float]] = []
        self.triggered = 0
        self._installed = False
        #: Cleared by :meth:`cancel`; pending toggles check it and do nothing.
        self._armed = True

    def fingerprint(self) -> str:
        """Content hash identifying the injected fault exactly.

        Combines the model identity (name, intensity, seed) with the
        schedule's window fingerprint — two injectors share a fingerprint
        iff they would perturb a run identically.  A configured cascade
        extends the payload with the secondary model's identity and the
        trigger parameters; together with the schedule fingerprint these
        pin the realized cascade windows, which are a pure function of
        them (so the extension keeps the iff property).
        """
        payload = "%s:%.9g:%d:%s" % (
            self.model.name, self.model.intensity, self.model.seed,
            self.schedule.schedule_fingerprint(),
        )
        if self.cascade is not None and self.cascade_model is not None:
            payload += "|cascade:%s:%.9g:%d:%.9g:%.9g:%.9g:%d" % (
                self.cascade_model.name, self.cascade_model.intensity,
                self.cascade_model.seed, self.cascade.probability,
                self.cascade.delay_cycles, self.cascade.mttr_cycles,
                self.cascade.seed,
            )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def install(self, horizon: Optional[float] = None) -> None:
        """Bind targets, attach the state, schedule every window's toggles.

        ``horizon`` bounds drawn schedules to windows activating before it
        (normally the run's warm-up + measurement length).  Windows whose
        activation already passed are clamped to *now*; fully-elapsed
        windows are skipped.
        """
        if self._installed:
            raise FaultError("fault injector is already installed")
        self._installed = True
        machine = self.machine
        sim = machine.sim
        self.model.bind(machine, self.core_ids)
        if self.cascade_model is not None:
            self.cascade_model.bind(machine, self.core_ids)
        fabric = getattr(machine, "fabric", None)
        if fabric is not None:
            fabric.faults = self.state
        machine.fault_state = self.state
        coherence = getattr(machine, "coherence", None)
        if coherence is not None:
            coherence.faults = self.state
        self.windows = self.schedule.windows(horizon)
        now = sim.now
        self._schedule_toggles(sim, self._primary, self.windows, now)
        if self.cascade is not None and self._secondary is not None:
            realized = self.cascade.windows(self.windows)
            self.triggered = len(realized)
            if horizon is not None:
                realized = [(on, off) for on, off in realized if on < horizon]
            self.cascade_windows = realized
            self._schedule_toggles(sim, self._secondary, realized, now)

    def _schedule_toggles(self, sim, state: FaultState,
                          windows: Sequence[Tuple[float, float]], now: float) -> None:
        for on, off in windows:
            if off <= now:
                continue
            sim.schedule_at(max(on, now), FaultInjector._activate, self, state, off)
            sim.schedule_at(max(off, now), FaultInjector._deactivate, self, state)

    def _activate(self, state: FaultState, until: float) -> None:
        if not self._armed:
            return
        state.active = True
        state.window_until = until
        state.windows += 1
        state._perf.fault_windows += 1

    def _deactivate(self, state: FaultState) -> None:
        state.active = False

    def cancel(self) -> None:
        """Disarm every pending toggle and detach the state from the machine."""
        self._armed = False
        self._primary.active = False
        if self._secondary is not None:
            self._secondary.active = False
        fabric = getattr(self.machine, "fabric", None)
        if fabric is not None and getattr(fabric, "faults", None) is self.state:
            fabric.faults = None
        if getattr(self.machine, "fault_state", None) is self.state:
            self.machine.fault_state = None
        coherence = getattr(self.machine, "coherence", None)
        if coherence is not None and getattr(coherence, "faults", None) is self.state:
            coherence.faults = None


def validate_fault_params(faults: str, fault_params: Mapping[str, object]) -> str:
    """Fail fast on unknown ``fault_params`` keys, with spelling suggestions.

    Checks the flat parameter dict against every namespace
    :func:`build_fault_injector` splits it into — the universal knobs, the
    schedule's, the cascade's and the resolved model's — so a typo like
    ``penalty_cycle`` surfaces at spec-resolution time (with a difflib
    "did you mean" hint) instead of mid-simulation.  Returns the resolved
    canonical model name.
    """
    name = FAULT_MODELS.resolve(faults)
    model_cls = FAULT_MODELS.get(name)
    known = (
        {"intensity", "tail_window_cycles"}
        | SCHEDULE_PARAM_KEYS | CASCADE_PARAM_KEYS
        | set(model_cls.param_defaults)
    )
    unknown = sorted(set(str(key) for key in fault_params) - known)
    if unknown:
        hints = []
        for key in unknown:
            close = difflib.get_close_matches(key, sorted(known), n=1)
            if close:
                hints.append("%r (did you mean %r?)" % (key, close[0]))
            else:
                hints.append(repr(key))
        raise FaultError(
            "unknown fault parameter(s) %s for model %r; accepted: %s"
            % (", ".join(hints), name, ", ".join(sorted(known)))
        )
    cascade_name = fault_params.get("cascade")
    if cascade_name:
        secondary = FAULT_MODELS.resolve(str(cascade_name))
        FAULT_MODELS.get(secondary)
    return name


def build_fault_injector(machine, faults: str, fault_params: Mapping[str, object],
                         seed: int = 1, core_ids: Sequence[int] = ()) -> FaultInjector:
    """Assemble an injector from a registry name and a flat parameter dict.

    ``fault_params`` mixes four namespaces the way scenario specs carry
    them: the universal ``intensity``, the schedule knobs
    (:attr:`FaultSchedule.param_defaults`), the cascade knobs
    (:data:`~repro.faults.cascade.CASCADE_PARAM_KEYS`) and the model's own
    parameters.  Model, schedule and cascade seeds are derived from
    ``seed`` so one driver seed pins the whole faulted run.
    """
    name = FAULT_MODELS.resolve(faults)
    model_cls = FAULT_MODELS.get(name)
    params = dict(fault_params)
    intensity = params.pop("intensity", DEFAULT_INTENSITY)
    try:
        intensity = float(intensity)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise FaultError("fault intensity must be a number, got %r" % (intensity,)) from None
    schedule_params = {key: params.pop(key) for key in list(params)
                       if key in SCHEDULE_PARAM_KEYS}
    cascade_params = {key: params.pop(key) for key in list(params)
                      if key in CASCADE_PARAM_KEYS}
    schedule = FaultSchedule.from_params(
        seed=derive_seed(seed, "schedule", name), **schedule_params
    )
    model = model_cls.from_params(
        intensity, seed=derive_seed(seed, "model", name), **params
    )
    cascade: Optional[FaultCascade] = None
    cascade_model: Optional[FaultModel] = None
    cascade_name = cascade_params.pop("cascade", None)
    if cascade_name:
        secondary = FAULT_MODELS.resolve(str(cascade_name))
        secondary_cls = FAULT_MODELS.get(secondary)
        cascade_intensity = cascade_params.pop("cascade_intensity", DEFAULT_INTENSITY)
        try:
            cascade_intensity = float(cascade_intensity)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise FaultError(
                "cascade intensity must be a number, got %r" % (cascade_intensity,)
            ) from None
        cascade = FaultCascade(
            probability=float(cascade_params.pop(  # type: ignore[arg-type]
                "cascade_probability", CASCADE_DEFAULTS["cascade_probability"])),
            delay_cycles=float(cascade_params.pop(  # type: ignore[arg-type]
                "cascade_delay_cycles", CASCADE_DEFAULTS["cascade_delay_cycles"])),
            mttr_cycles=float(cascade_params.pop(  # type: ignore[arg-type]
                "cascade_mttr_cycles", CASCADE_DEFAULTS["cascade_mttr_cycles"])),
            seed=derive_seed(seed, "cascade", secondary),
        )
        cascade_model = secondary_cls.from_params(
            cascade_intensity, seed=derive_seed(seed, "cascade-model", secondary)
        )
    elif cascade_params:
        raise FaultError(
            "cascade parameter(s) %s given without a 'cascade' model name"
            % ", ".join(sorted(repr(key) for key in cascade_params))
        )
    return FaultInjector(machine, model, schedule, core_ids=core_ids,
                         cascade=cascade, cascade_model=cascade_model)
