"""Seeded activation/recovery window schedules for fault injection.

A :class:`FaultSchedule` decides *when* a fault is active on the simulation
clock: a sequence of ``(on, off)`` windows, either drawn from seeded
exponential MTBF/MTTR distributions or given explicitly.  Schedules follow
the same reproducibility contract as the load subsystem's arrival processes
(:meth:`repro.load.arrivals.ArrivalProcess.schedule_fingerprint`): the same
``(params, seed)`` pair always yields the same windows, on any worker
process, and :meth:`schedule_fingerprint` content-hashes the boundary times
so determinism tests can compare schedules across runs and across
``--parallel`` campaign workers.

``max_windows=0`` is the *empty* schedule: a fault model installed with it
never activates, which must leave every simulated output byte-identical to a
run with no fault model at all (the no-fault equivalence suite checks this).
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import FaultError, reject_unknown_params


class FaultSchedule:
    """Seeded, fingerprinted activation windows on the simulation clock.

    Windows are generated lazily: a gap drawn from an exponential with mean
    ``mtbf_cycles`` (time between failures) opens each window, and the window
    stays open for an exponential duration with mean ``mttr_cycles`` (time to
    repair).  ``windows`` (explicit ``[on, off]`` pairs) overrides the drawn
    schedule entirely; ``max_windows`` caps the number of windows (``0``
    means never activate, ``-1`` means unbounded).
    """

    #: Universal schedule parameters, split off a scenario's ``fault_params``
    #: by :func:`repro.faults.injector.build_fault_injector`.
    param_defaults: Mapping[str, object] = {
        "mtbf_cycles": 6000.0,
        "mttr_cycles": 1500.0,
        "start_cycles": 0.0,
        "max_windows": -1,
        "windows": (),
    }

    def __init__(
        self,
        mtbf_cycles: float = 6000.0,
        mttr_cycles: float = 1500.0,
        start_cycles: float = 0.0,
        max_windows: int = -1,
        windows: Sequence[Sequence[float]] = (),
        seed: int = 0,
    ) -> None:
        if mtbf_cycles <= 0 or mttr_cycles <= 0:
            raise FaultError("MTBF and MTTR must be positive cycle counts")
        if start_cycles < 0:
            raise FaultError("the fault schedule cannot start in the past")
        self.mtbf_cycles = float(mtbf_cycles)
        self.mttr_cycles = float(mttr_cycles)
        self.start_cycles = float(start_cycles)
        self.max_windows = int(max_windows)
        self.seed = int(seed)
        self.explicit_windows: Tuple[Tuple[float, float], ...] = tuple(
            self._validated_explicit(windows)
        )

    @staticmethod
    def _validated_explicit(windows: Sequence[Sequence[float]]) -> List[Tuple[float, float]]:
        validated: List[Tuple[float, float]] = []
        previous_off = 0.0
        for window in windows:
            try:
                on, off = (float(window[0]), float(window[1]))
            except (TypeError, ValueError, IndexError):
                raise FaultError(
                    "explicit fault windows must be [on, off] cycle pairs, got %r"
                    % (window,)
                ) from None
            if on < previous_off or off < on:
                raise FaultError(
                    "explicit fault windows must be ordered and non-overlapping "
                    "(window [%g, %g] after %g)" % (on, off, previous_off)
                )
            validated.append((on, off))
            previous_off = off
        return validated

    @classmethod
    def from_params(cls, seed: int = 0, **params: object) -> "FaultSchedule":
        """Instantiate with validated parameters (unknown names fail loudly)."""
        reject_unknown_params("fault schedule", params, cls.param_defaults, FaultError)
        return cls(seed=seed, **params)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # The windows
    # ------------------------------------------------------------------
    def _iter_windows(self) -> Iterator[Tuple[float, float]]:
        """Every window in order, restarting from the seed on each call."""
        if self.max_windows == 0:
            return
        emitted = 0
        if self.explicit_windows:
            for window in self.explicit_windows:
                yield window
                emitted += 1
                if 0 <= self.max_windows <= emitted:
                    return
            return
        rng = random.Random(self.seed)
        now = self.start_cycles
        while True:
            now += rng.expovariate(1.0 / self.mtbf_cycles)
            on = now
            now += rng.expovariate(1.0 / self.mttr_cycles)
            yield (on, now)
            emitted += 1
            if 0 <= self.max_windows <= emitted:
                return

    def windows(self, horizon: Optional[float] = None) -> List[Tuple[float, float]]:
        """Windows whose activation falls before ``horizon`` (all when None).

        A window straddling the horizon is kept whole: the injector clamps
        nothing, the run simply ends while the fault is still active.
        ``horizon=None`` on an unbounded drawn schedule would never return,
        so it requires ``max_windows >= 0`` or explicit windows.
        """
        if horizon is None and not self.explicit_windows and self.max_windows < 0:
            raise FaultError("an unbounded fault schedule needs a horizon")
        collected: List[Tuple[float, float]] = []
        for on, off in self._iter_windows():
            if horizon is not None and on >= horizon:
                break
            collected.append((on, off))
        return collected

    def schedule_fingerprint(self, count: int = 64) -> str:
        """Content hash of the first ``count`` windows (fewer if finite).

        Two schedules share a fingerprint iff they would toggle identically;
        the determinism tests compare fingerprints across runs and across
        parallel campaign workers — the same contract as
        :meth:`repro.load.arrivals.ArrivalProcess.schedule_fingerprint`.
        """
        boundaries: List[float] = []
        for on, off in self._iter_windows():
            boundaries.extend((on, off))
            if len(boundaries) >= 2 * count:
                break
        payload = ",".join("%.9g" % t for t in boundaries)
        return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]
