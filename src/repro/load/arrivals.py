"""Open-loop arrival processes.

Closed-loop drivers (a core issues the next request only after the previous
one completes) cannot expose queueing behaviour: when the system slows down,
the offered load politely slows down with it.  The paper's latency-under-load
methodology — and datacenter-scale evaluation in general — instead injects
requests on an *arrival clock* that does not care how the system is doing,
which is what makes tail latencies blow up as load approaches saturation.

Every arrival process is a registered component in
:data:`repro.scenario.registry.ARRIVALS` and produces an endless stream of
inter-arrival *gaps* (cycles) for a target mean rate, seeded and fully
reproducible: the same ``(name, rate, seed, params)`` tuple always yields the
same injection schedule, on any worker process (see
:meth:`ArrivalProcess.schedule_fingerprint`).

Built-ins:

* ``deterministic`` — constant gaps (the lowest-variance baseline);
* ``poisson`` — exponential gaps (memoryless, the standard open-loop model);
* ``bursty`` — MMPP-style on/off modulation: exponential dwell times switch
  between a silent state and an on state whose instantaneous rate is scaled
  so the long-run mean matches the requested rate;
* ``trace`` — replay of a JSONL schedule (one object per line, ``{"time": t}``
  absolute cycles or ``{"gap": g}``), rescaled to the requested mean rate so
  a recorded burst structure can be swept across load levels.
"""

from __future__ import annotations

import abc
import hashlib
import json
import random
from typing import Dict, Iterator, List, Mapping, Optional

from repro.errors import WorkloadError, reject_unknown_params
from repro.scenario.registry import register_arrival_process

#: The rate unit used throughout the load subsystem: requests per 1000 cycles
#: (at the paper's 2 GHz core clock, 1 req/kcycle = 2 M requests/s).
CYCLES_PER_RATE_UNIT = 1000.0


class ArrivalProcess(abc.ABC):
    """An endless, seeded stream of inter-arrival gaps for one mean rate."""

    #: Canonical registry name, for results and error messages.
    name: str = ""
    #: Constructor parameters a caller may override, with their defaults
    #: (mirrors :attr:`repro.scenario.workload.Workload.param_defaults`).
    param_defaults: Mapping[str, object] = {}

    def __init__(self, rate_per_kcycle: float, seed: int = 0) -> None:
        if rate_per_kcycle <= 0:
            raise WorkloadError("arrival rate must be positive (requests per kcycle)")
        self.rate_per_kcycle = float(rate_per_kcycle)
        self.seed = int(seed)

    @property
    def mean_gap_cycles(self) -> float:
        """The mean inter-arrival gap implied by the target rate."""
        return CYCLES_PER_RATE_UNIT / self.rate_per_kcycle

    # ------------------------------------------------------------------
    # The stream
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def gaps(self) -> Iterator[float]:
        """A fresh endless iterator of inter-arrival gaps in cycles.

        Each call restarts the process from its seed, so two iterations of
        the same instance produce identical schedules.
        """

    def arrival_times(self, limit: int) -> List[float]:
        """The first ``limit`` absolute arrival times (cycles from start).

        Finite processes (a non-looping trace) may return fewer than
        ``limit`` times.
        """
        times: List[float] = []
        now = 0.0
        stream = self.gaps()
        for _ in range(limit):
            gap = next(stream, None)
            if gap is None:
                break
            now += gap
            times.append(now)
        return times

    def schedule_fingerprint(self, count: int = 256) -> str:
        """Content hash of the first ``count`` arrivals (fewer if finite).

        Two processes share a fingerprint iff they would inject identically;
        the determinism tests compare fingerprints across runs and across
        parallel campaign workers.
        """
        payload = ",".join("%.9g" % t for t in self.arrival_times(count))
        return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]

    # ------------------------------------------------------------------
    # Construction from validated parameters
    # ------------------------------------------------------------------
    @classmethod
    def from_params(cls, rate_per_kcycle: float, seed: int = 0,
                    **params: object) -> "ArrivalProcess":
        """Instantiate with validated parameters (unknown names fail loudly)."""
        reject_unknown_params("arrival process %r" % (cls.name or cls.__name__,),
                              params, cls.param_defaults, WorkloadError)
        return cls(rate_per_kcycle, seed=seed, **params)


@register_arrival_process("deterministic")
class DeterministicArrivals(ArrivalProcess):
    """Constant inter-arrival gaps: the zero-variance open-loop baseline."""

    name = "deterministic"
    param_defaults: Mapping[str, object] = {}

    def gaps(self) -> Iterator[float]:
        gap = self.mean_gap_cycles
        while True:
            yield gap


@register_arrival_process("poisson")
class PoissonArrivals(ArrivalProcess):
    """Memoryless exponential gaps (the standard datacenter arrival model)."""

    name = "poisson"
    param_defaults: Mapping[str, object] = {}

    def gaps(self) -> Iterator[float]:
        rng = random.Random(self.seed)
        mean = self.mean_gap_cycles
        expovariate = rng.expovariate
        rate = 1.0 / mean
        while True:
            yield expovariate(rate)


@register_arrival_process("bursty")
class BurstyArrivals(ArrivalProcess):
    """MMPP-style on/off bursts with exponential dwell times.

    The process alternates between an *on* state emitting Poisson arrivals
    and a silent *off* state.  The on-state rate is scaled by
    ``(on_cycles + off_cycles) / on_cycles`` so the long-run mean equals the
    requested rate — identical mean load, much heavier tail than ``poisson``.
    """

    name = "bursty"
    param_defaults: Mapping[str, object] = {"on_cycles": 2000.0, "off_cycles": 6000.0}

    def __init__(self, rate_per_kcycle: float, seed: int = 0,
                 on_cycles: float = 2000.0, off_cycles: float = 6000.0) -> None:
        super().__init__(rate_per_kcycle, seed=seed)
        if on_cycles <= 0 or off_cycles < 0:
            raise WorkloadError("burst dwell times must be positive (on) and non-negative (off)")
        self.on_cycles = float(on_cycles)
        self.off_cycles = float(off_cycles)

    def gaps(self) -> Iterator[float]:
        rng = random.Random(self.seed)
        duty = self.on_cycles / (self.on_cycles + self.off_cycles)
        on_rate = 1.0 / (self.mean_gap_cycles * duty)  # arrivals per cycle while on
        now = 0.0
        last = 0.0
        while True:
            on_end = now + rng.expovariate(1.0 / self.on_cycles)
            while True:
                step = rng.expovariate(on_rate)
                if now + step > on_end:
                    break
                now += step
                yield now - last
                last = now
            now = on_end
            if self.off_cycles > 0:
                now += rng.expovariate(1.0 / self.off_cycles)


@register_arrival_process("trace")
class TraceReplayArrivals(ArrivalProcess):
    """Replay of a recorded JSONL arrival schedule.

    Each line is one JSON object carrying either ``{"time": t}`` (absolute
    cycles, non-decreasing) or ``{"gap": g}`` (cycles since the previous
    arrival); the two forms may not be mixed.  The recorded schedule is
    rescaled so its mean rate matches ``rate_per_kcycle`` — the burst
    *structure* is the trace's, the load level is the sweep's — and loops
    when exhausted (``loop=False`` instead ends injection with the trace).
    """

    name = "trace"
    param_defaults: Mapping[str, object] = {"path": "", "loop": True}

    def __init__(self, rate_per_kcycle: float, seed: int = 0,
                 path: str = "", loop: bool = True) -> None:
        super().__init__(rate_per_kcycle, seed=seed)
        if not path:
            raise WorkloadError("trace arrivals need a 'path' to a JSONL schedule")
        self.path = path
        self.loop = bool(loop)
        self._gaps = _load_trace_gaps(path)
        natural_mean = sum(self._gaps) / len(self._gaps)
        if natural_mean <= 0:
            raise WorkloadError("trace %s has a zero-length schedule" % path)
        self._scale = self.mean_gap_cycles / natural_mean

    def gaps(self) -> Iterator[float]:
        scale = self._scale
        while True:
            for gap in self._gaps:
                yield gap * scale
            if not self.loop:
                return


def _load_trace_gaps(path: str) -> List[float]:
    """Parse a JSONL arrival trace into a list of inter-arrival gaps."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except OSError as exc:
        raise WorkloadError("cannot read arrival trace %s: %s" % (path, exc)) from None
    if not lines:
        raise WorkloadError("arrival trace %s is empty" % path)
    gaps: List[float] = []
    previous_time: Optional[float] = None
    mode: Optional[str] = None
    for number, line in enumerate(lines, start=1):
        try:
            record: Dict[str, object] = json.loads(line)
        except json.JSONDecodeError as exc:
            raise WorkloadError("%s:%d: invalid JSON: %s" % (path, number, exc)) from None
        if not isinstance(record, dict) or ("time" in record) == ("gap" in record):
            raise WorkloadError(
                "%s:%d: each trace line must carry exactly one of 'time' or 'gap'"
                % (path, number)
            )
        key = "time" if "time" in record else "gap"
        if mode is None:
            mode = key
        elif key != mode:
            raise WorkloadError(
                "%s:%d: trace mixes 'time' and 'gap' records" % (path, number)
            )
        try:
            value = float(record[key])  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise WorkloadError(
                "%s:%d: %r must be a number, got %r" % (path, number, key, record[key])
            ) from None
        if key == "gap":
            if value < 0:
                raise WorkloadError("%s:%d: gaps cannot be negative" % (path, number))
            gaps.append(value)
        else:
            floor = 0.0 if previous_time is None else previous_time
            if value < floor:
                raise WorkloadError(
                    "%s:%d: absolute times must be non-negative and non-decreasing"
                    % (path, number)
                )
            gaps.append(value - floor)
            previous_time = value
    return gaps
