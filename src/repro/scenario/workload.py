"""The unified workload lifecycle protocol.

Every workload — the paper's microbenchmarks and applications as well as
registry-added extensions — drives a machine through the same four phases:

* :meth:`Workload.setup` — bind to a built machine: register memory
  contexts, attach the remote-end emulator, allocate queue pairs and cores;
* :meth:`Workload.inject` — start the traffic (hand each core its WQ-entry
  iterator);
* :meth:`Workload.drain` — advance the simulation until the traffic is
  complete (bounded workloads) or the measurement window closes;
* :meth:`Workload.metrics` — report JSON-native measurements.

:class:`~repro.scenario.builder.MachineBuilder` resolves a
:class:`~repro.scenario.spec.ScenarioSpec` into a machine plus a workload
instance and runs exactly this lifecycle, so any registered workload runs on
any registered machine composition.  Workload classes declare their accepted
constructor parameters in :attr:`Workload.param_defaults`; the builder
validates spec overrides against it so a typo fails before the machine is
built.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from repro.config import SystemConfig
from repro.errors import WorkloadError


class Workload(abc.ABC):
    """Abstract workload: a traffic pattern with a uniform lifecycle."""

    #: Canonical registry name, for results and error messages.
    name: str = ""
    #: Constructor parameters a :class:`ScenarioSpec` may override, with their
    #: defaults.  Used by the builder for validation and by ``repro list``.
    param_defaults: Mapping[str, object] = {}

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        self.config = config if config is not None else SystemConfig.paper_defaults()
        #: The machine this workload was set up on (None before setup()).
        self.machine = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def setup(self, machine) -> None:
        """Bind to ``machine``: contexts, remote port, queue pairs, cores."""

    @abc.abstractmethod
    def inject(self) -> None:
        """Start the traffic (no simulated time passes until drain())."""

    def drain(self) -> None:
        """Advance the simulation until the workload is finished.

        The default runs the machine to event-queue exhaustion, which is
        right for bounded workloads; open-loop workloads override this with
        their warm-up/measurement windows.
        """
        if self.machine is None:
            raise WorkloadError("workload %r was not set up on a machine" % (self.name,))
        self.machine.run()

    @abc.abstractmethod
    def metrics(self) -> Dict[str, object]:
        """JSON-native measurements of the finished run."""

    # ------------------------------------------------------------------
    # Open-loop driving (optional)
    # ------------------------------------------------------------------
    def request_stream(self, core_id: int) -> Iterator:
        """An *endless* per-core stream of WQ entries for open-loop driving.

        The :class:`repro.load.driver.OpenLoopDriver` calls this after
        :meth:`setup` and pulls exactly one entry per arrival of its arrival
        clock, instead of running :meth:`inject`'s closed-loop iterators.
        Workloads whose traffic is inherently self-limiting (e.g. a bounded
        graph traversal) leave this unimplemented.
        """
        raise WorkloadError(
            "workload %r does not support open-loop driving "
            "(no request_stream implementation)" % (self.name or type(self).__name__,)
        )

    @property
    def driven_cores(self) -> List:
        """The :class:`CoreModel` objects this workload drives (post-setup).

        The default returns ``self._cores``, the attribute every built-in
        workload populates in :meth:`setup`; a workload that stores its cores
        elsewhere must override this property for open-loop driving to find
        them.
        """
        return list(getattr(self, "_cores", []))

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def core_traffic_metrics(self, cores: Sequence) -> Dict[str, object]:
        """Common statistics over a set of driven :class:`CoreModel` objects.

        The shared slice of every traffic workload's :meth:`metrics`:
        completed operation/payload counts, elapsed time, application
        bandwidth and mean end-to-end latency; callers merge in their
        workload-specific keys.
        """
        machine = self.machine
        if machine is None:
            raise WorkloadError("workload %r was not set up on a machine" % (self.name,))
        elapsed = machine.sim.now
        payload = sum(core.completed_bytes for core in cores)
        samples = [sample for core in cores for sample in core.latency.samples]
        mean_latency = sum(samples) / len(samples) if samples else 0.0
        frequency = machine.config.cores.frequency_ghz
        return {
            "design": machine.config.ni.design,
            "completed_ops": sum(core.completed_ops for core in cores),
            "payload_bytes": payload,
            "elapsed_cycles": elapsed,
            "application_gbps": payload / elapsed * frequency if elapsed > 0 else 0.0,
            "mean_latency_ns": mean_latency / frequency,
        }

    def run_on(self, machine) -> Dict[str, object]:
        """Full lifecycle on an already-built machine."""
        self.setup(machine)
        self.inject()
        self.drain()
        return self.metrics()

    @classmethod
    def from_params(cls, config: Optional[SystemConfig] = None, **params: object) -> "Workload":
        """Instantiate from validated scenario parameters.

        Unknown parameter names fail loudly, listing what the workload
        accepts (the builder calls :meth:`validate_params` first, but direct
        callers get the same guarantee).
        """
        cls.validate_params(params)
        return cls(config=config, **params)

    @classmethod
    def validate_params(cls, params: Mapping[str, object]) -> None:
        """Raise :class:`WorkloadError` for parameter names not in param_defaults."""
        unknown = sorted(set(params) - set(cls.param_defaults))
        if unknown:
            raise WorkloadError(
                "workload %r does not accept parameter(s) %s (accepted: %s)"
                % (
                    cls.name or cls.__name__,
                    ", ".join(repr(name) for name in unknown),
                    ", ".join(sorted(cls.param_defaults)) or "none",
                )
            )
