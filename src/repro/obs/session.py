"""One telemetry session: a sink plus probe/cadence configuration.

A session owns an :class:`~repro.obs.stream.ObsStream` and the names of the
probes to sample.  Activating it (:meth:`ObsSession.activate`) pushes it on
the process-local :mod:`repro.obs.hooks` stack; while active, simulators
self-register for deterministic ``sim`` indices and the load driver attaches
a :class:`~repro.obs.sampler.Sampler`.  Campaign pool workers rebuild an
equivalent session in their own process from :meth:`worker_spec`, appending
to the same stream path.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.errors import ObsError
from repro.obs import hooks
from repro.obs.stream import ObsStream
from repro.scenario.registry import PROBES

#: Default sim-time sampling cadence (cycles between probe ticks).
DEFAULT_SAMPLE_CYCLES = 500.0


class ObsSession:
    """Live telemetry configuration threaded through campaign/explore runs."""

    __slots__ = ("stream", "probe_names", "sample_cycles", "run_label", "_sim_count")

    def __init__(
        self,
        stream: ObsStream,
        probes: Optional[Sequence[str]] = None,
        sample_cycles: Optional[float] = None,
    ) -> None:
        self.stream = stream
        if probes is None:
            self.probe_names: List[str] = PROBES.names()
        else:
            self.probe_names = [PROBES.resolve(name) for name in probes]
        cadence = DEFAULT_SAMPLE_CYCLES if sample_cycles is None else float(sample_cycles)
        if cadence <= 0:
            raise ObsError("sample cadence must be positive (got %g)" % cadence)
        self.sample_cycles = cadence
        #: Current run identity stamped on sample records (a campaign sets
        #: this to the entry's config fingerprint; standalone spec runs fall
        #: back to the spec name).
        self.run_label = ""
        self._sim_count = 0

    # -- hook targets ---------------------------------------------------

    def set_run(self, label: str) -> None:
        """Start a new run: stamp *label* and restart simulator indices."""
        self.run_label = str(label)
        self._sim_count = 0

    def register_simulator(self, sim: Any) -> int:
        """Deterministic 0-based index of the next simulator in this run."""
        index = self._sim_count
        self._sim_count += 1
        return index

    # -- probes ---------------------------------------------------------

    def build_probes(self) -> List[Any]:
        """Fresh default-parameter instances of the configured probes."""
        return [PROBES.get(name).from_params() for name in self.probe_names]

    # -- emission -------------------------------------------------------

    def emit(self, event: str, **fields: Any) -> None:
        """Write one validated event record to the sink."""
        record: Dict[str, Any] = {"event": event}
        record.update(fields)
        self.stream.emit(record)

    def emit_sample(self, probe: str, sim_index: int, t: float, data: Dict[str, Any]) -> None:
        """Write one probe sample stamped with the current run label."""
        self.stream.write_sample(self.run_label, sim_index, t, probe, data)

    # -- lifecycle ------------------------------------------------------

    @contextmanager
    def activate(self, run: Optional[str] = None) -> Iterator["ObsSession"]:
        """Make this the innermost active session for the ``with`` body."""
        if run is not None:
            self.set_run(run)
        hooks.push(self)
        try:
            yield self
        finally:
            hooks.pop(self)

    def close(self) -> None:
        self.stream.close()

    # -- process boundary -----------------------------------------------

    def worker_spec(self) -> Optional[Dict[str, Any]]:
        """Picklable config for pool workers (``None`` for pathless sinks)."""
        if self.stream.path is None:
            return None
        return {
            "path": self.stream.path,
            "probes": list(self.probe_names),
            "sample_cycles": self.sample_cycles,
        }

    @classmethod
    def from_worker_spec(cls, spec: Dict[str, Any]) -> "ObsSession":
        """Rebuild a session in a worker, appending to the shared stream."""
        return cls(
            ObsStream.attach(spec["path"]),
            probes=spec["probes"],
            sample_cycles=spec["sample_cycles"],
        )
