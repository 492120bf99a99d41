"""The unified workload lifecycle protocol.

Every workload — the paper's microbenchmarks and applications as well as
registry-added extensions — drives a machine through the same four phases:

* :meth:`Workload.setup` — bind to a built machine the way the paper's
  single-node methodology does (§5): export the 64 MB region, attach the
  rate-matched remote-end emulator that plays the rest of the rack, and give
  each driven core a queue pair and a :class:`CoreModel`;
* :meth:`Workload.inject` — start the traffic (hand each core its WQ-entry
  iterator);
* :meth:`Workload.drain` — advance the simulation until the traffic is
  complete (bounded workloads) or the measurement window closes;
* :meth:`Workload.metrics` — report JSON-native measurements.

A workload declares its parameters (:attr:`Workload.param_defaults` and a
constructor), its per-core WQ-entry generator :meth:`Workload.entries` and
its metric keys; the base class does the rest.  Open-loop drivers pull the
same generator endlessly through :meth:`Workload.request_stream`.

:class:`~repro.scenario.builder.MachineBuilder` resolves a
:class:`~repro.scenario.spec.ScenarioSpec` into a machine plus a workload
instance and runs exactly this lifecycle, so any registered workload runs on
any registered machine composition.  :meth:`Workload.from_params` checks
spec overrides against ``param_defaults``, so a typo fails before the
machine is built.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Sequence

from repro.config import SystemConfig
from repro.errors import WorkloadError, reject_unknown_params
from repro.qp.entries import WorkQueueEntry

if TYPE_CHECKING:
    from repro.node.core_model import CoreModel

#: Context id of the region every workload exports and reads remotely.
CTX_ID = 0
#: Size of that region: large enough that every data access misses the
#: on-chip caches (the paper sizes both regions and the local buffers to
#: exceed aggregate cache capacity, §5).
REGION_BYTES = 64 * 1024 * 1024


class Workload(abc.ABC):
    """Abstract workload: a traffic pattern with a uniform lifecycle.

    Subclasses set the instance attributes ``active_cores`` (0 = every core
    of the chip) and ``ops_per_core`` (WQ entries per core that
    :meth:`inject` feeds) and may override the class constants below.
    """

    #: Canonical registry name, for results and error messages.
    name: str = ""
    #: Constructor parameters a :class:`ScenarioSpec` may override, with their
    #: defaults.  Used by :meth:`from_params` for validation and by ``repro list``.
    param_defaults: Mapping[str, object] = {}
    #: Rack hops between this node and the emulated remote end.
    hops: int = 1
    #: Operations each core keeps in flight during :meth:`inject`.
    max_outstanding: int = 8

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        self.config = config if config is not None else SystemConfig.paper_defaults()
        #: The machine this workload was set up on (None before setup()).
        self.machine = None
        self._cores: List[CoreModel] = []

    # ------------------------------------------------------------------
    # What a workload declares
    # ------------------------------------------------------------------
    def entries(self, core_id: int, count: Optional[int]) -> Iterator[WorkQueueEntry]:
        """WQ entries for one core: ``count`` of them, or endless when None."""
        raise WorkloadError(
            "workload %r defines no entries(core_id, count) stream, so it "
            "cannot be injected by default or driven open-loop"
            % (self.name or type(self).__name__,)
        )

    @abc.abstractmethod
    def metrics(self) -> Dict[str, object]:
        """JSON-native measurements of the finished run."""

    def core_ids(self) -> Sequence[int]:
        """The cores to drive: the first ``active_cores`` (0 = all of them)."""
        return range(self.active_cores or self.machine.config.cores.count)

    @property
    def incoming_region_bytes(self) -> int:
        """Bytes of the exported region the rate-matched incoming requests hit."""
        return REGION_BYTES

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def setup(self, machine) -> None:
        """Bind to ``machine``: the region, the remote end, one QP and core per driven core."""
        # The node model registers components through this package, so it is
        # imported on use rather than with this module.
        from repro.node.core_model import CoreModel
        from repro.node.traffic import RemoteEndEmulator

        self.machine = machine
        machine.register_context(CTX_ID, REGION_BYTES)
        RemoteEndEmulator(
            machine,
            hops=self.hops,
            rate_match_incoming=True,
            incoming_ctx_id=CTX_ID,
            incoming_region_bytes=self.incoming_region_bytes,
        )
        self._cores = [CoreModel(core_id, machine, machine.create_queue_pair(core_id))
                       for core_id in self.core_ids()]

    def inject(self) -> None:
        """Start every driven core on its ``ops_per_core`` closed-loop entries."""
        for core in self._cores:
            core.start(self.entries(core.core_id, self.ops_per_core),
                       max_outstanding=self.max_outstanding)

    def drain(self) -> None:
        """Advance the simulation until the workload is finished.

        The default runs the machine to event-queue exhaustion, which is
        right for bounded workloads; open-loop workloads override this with
        their warm-up/measurement windows.
        """
        if self.machine is None:
            raise WorkloadError("workload %r was not set up on a machine" % (self.name,))
        self.machine.run()

    def run_on(self, machine) -> Dict[str, object]:
        """Full lifecycle on an already-built machine."""
        self.setup(machine)
        self.inject()
        self.drain()
        return self.metrics()

    # ------------------------------------------------------------------
    # Open-loop driving
    # ------------------------------------------------------------------
    def request_stream(self, core_id: int) -> Iterator[WorkQueueEntry]:
        """An *endless* per-core stream of WQ entries for open-loop driving.

        The :class:`repro.load.driver.OpenLoopDriver` calls this after
        :meth:`setup` and pulls exactly one entry per arrival of its arrival
        clock, instead of running :meth:`inject`'s closed-loop iterators.
        """
        return self.entries(core_id, None)

    @property
    def driven_cores(self) -> List[CoreModel]:
        """The :class:`CoreModel` objects this workload drives (post-setup)."""
        return list(self._cores)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def core_traffic_metrics(self) -> Dict[str, object]:
        """Common statistics over the driven cores.

        The shared slice of every traffic workload's :meth:`metrics`:
        completed operation/payload counts, elapsed time, application
        bandwidth and mean end-to-end latency; callers merge in their
        workload-specific keys.
        """
        machine = self.machine
        if machine is None:
            raise WorkloadError("workload %r was not set up on a machine" % (self.name,))
        cores = self._cores
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

    @classmethod
    def from_params(cls, config: Optional[SystemConfig] = None, **params: object) -> "Workload":
        """Instantiate from scenario parameters; unknown names fail loudly."""
        reject_unknown_params("workload %r" % (cls.name or cls.__name__,),
                              params, cls.param_defaults, WorkloadError)
        return cls(config=config, **params)
