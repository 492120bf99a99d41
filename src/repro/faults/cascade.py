"""Correlated faults: a secondary model triggered by the primary's windows.

At rack scale faults are rarely independent — a failing router takes its
neighborhood with it, a shed node overloads its peers.  A
:class:`FaultCascade` models that correlation as a seeded trigger: each of
the primary schedule's realized windows fires the secondary model with
probability ``probability``, after a ``delay_cycles`` propagation delay, for
an exponential duration with mean ``mttr_cycles``.  The derived windows are
an ordinary non-overlapping window list, so the injector toggles them with
the same queue-resident events as the primary schedule.

Reproducibility mirrors :class:`~repro.faults.schedule.FaultSchedule`: the
trigger stream restarts from the cascade seed on every realization, windows
are a pure function of ``(primary windows, params, seed)``, and
:meth:`FaultCascade.cascade_fingerprint` content-hashes the realized
boundaries for determinism tests.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Sequence, Tuple

from repro.errors import FaultError

#: ``fault_params`` keys consumed by the cascade layer rather than the
#: primary model or its schedule (split off by ``build_fault_injector``).
CASCADE_PARAM_KEYS = frozenset((
    "cascade",
    "cascade_intensity",
    "cascade_probability",
    "cascade_delay_cycles",
    "cascade_mttr_cycles",
))

#: Defaults for the cascade knobs when ``fault_params`` names a ``cascade``
#: model but omits them.
CASCADE_DEFAULTS = {
    "cascade_probability": 1.0,
    "cascade_delay_cycles": 250.0,
    "cascade_mttr_cycles": 750.0,
}


class FaultCascade:
    """Seeded trigger mapping primary fault windows to secondary windows."""

    def __init__(self, probability: float = 1.0, delay_cycles: float = 250.0,
                 mttr_cycles: float = 750.0, seed: int = 0) -> None:
        if not 0.0 <= probability <= 1.0:
            raise FaultError(
                "cascade trigger probability must be in [0, 1], got %r" % (probability,)
            )
        if delay_cycles < 0:
            raise FaultError("cascade propagation delay cannot be negative")
        if mttr_cycles <= 0:
            raise FaultError("cascade MTTR must be a positive cycle count")
        self.probability = float(probability)
        self.delay_cycles = float(delay_cycles)
        self.mttr_cycles = float(mttr_cycles)
        self.seed = int(seed)

    def windows(
        self, primary_windows: Sequence[Tuple[float, float]]
    ) -> List[Tuple[float, float]]:
        """The secondary windows triggered by the given primary windows.

        One seeded stream is consumed in primary-window order (a trigger
        draw, then a duration draw when it fires), so the realization is a
        pure function of the primary windows and the cascade's ``(params,
        seed)``.  Windows are clamped non-overlapping the same way the
        schedule validates explicit windows; a window squeezed to nothing by
        the clamp is dropped.
        """
        rng = random.Random(self.seed)
        realized: List[Tuple[float, float]] = []
        previous_off = 0.0
        for on, _off in primary_windows:
            if rng.random() >= self.probability:
                continue
            duration = rng.expovariate(1.0 / self.mttr_cycles)
            start = max(on + self.delay_cycles, previous_off)
            end = on + self.delay_cycles + duration
            if end <= start:
                continue
            realized.append((start, end))
            previous_off = end
        return realized

    def cascade_fingerprint(
        self, primary_windows: Sequence[Tuple[float, float]], count: int = 64
    ) -> str:
        """Content hash of the realized secondary boundaries.

        The cascade analogue of
        :meth:`~repro.faults.schedule.FaultSchedule.schedule_fingerprint`:
        two cascades share a fingerprint for the same primary windows iff
        they would toggle the secondary model identically.
        """
        boundaries: List[float] = []
        for on, off in self.windows(primary_windows):
            boundaries.extend((on, off))
            if len(boundaries) >= 2 * count:
                break
        payload = ",".join("%.9g" % t for t in boundaries)
        return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


class CascadeFaultState:
    """Both member fault states behind the single hot-path interface.

    The fabric, core and directory hooks see one ``faults`` attachment
    point; this composite delegates to the primary and cascade
    :class:`~repro.faults.injector.FaultState` members (each gating on its
    own ``active`` flag and keeping its own hit accounting) and sums their
    perturbations.  The aggregate ``windows``/``hits`` properties keep the
    driver's result collection and the ``fault_windows`` probe working
    unchanged on cascading runs.
    """

    __slots__ = ("primary", "cascade")

    def __init__(self, primary, cascade) -> None:
        self.primary = primary
        self.cascade = cascade

    @property
    def model(self):
        return self.primary.model

    @property
    def active(self) -> bool:
        return self.primary.active or self.cascade.active

    @property
    def windows(self) -> int:
        return self.primary.windows + self.cascade.windows

    @property
    def hits(self) -> int:
        return self.primary.hits + self.cascade.hits

    def hop_delay(self, link_key, arrival: float, hop_cycles: int) -> float:
        return (self.primary.hop_delay(link_key, arrival, hop_cycles)
                + self.cascade.hop_delay(link_key, arrival, hop_cycles))

    def loss_delay(self, packet_id: int) -> float:
        return (self.primary.loss_delay(packet_id)
                + self.cascade.loss_delay(packet_id))

    def issue_penalty(self, core_id: int) -> float:
        return (self.primary.issue_penalty(core_id)
                + self.cascade.issue_penalty(core_id))

    def core_rejects(self, core_id: int) -> bool:
        # Both members must be consulted (no short-circuit) so each keeps
        # its own hit accounting regardless of the other's verdict.
        primary = self.primary.core_rejects(core_id)
        cascade = self.cascade.core_rejects(core_id)
        return primary or cascade

    def directory_retry(self, addr: int, attempt: int) -> float:
        return (self.primary.directory_retry(addr, attempt)
                + self.cascade.directory_retry(addr, attempt))
