"""Memory controller model.

One :class:`MemoryController` sits at each MC tile on the chip's east edge
(mesh) or hangs off the flattened butterfly (NOC-Out).  The controller owns a
:class:`~repro.memory.dram.DramModel` and adds a small scheduling occupancy
per request.  NOC traversal to/from the controller is the caller's business
(the SoC model routes packets to the MC's node), so this class only models
what happens once a request has arrived.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

from repro.errors import ConfigurationError
from repro.memory.dram import DramModel
from repro.sim.engine import Simulator
from repro.sim.resource import Resource


class MemoryController:
    """Queues requests onto a DRAM channel."""

    #: Fixed scheduling/command occupancy per request, in cycles.  The paper
    #: intentionally provisions memory so it never throttles the studied
    #: workloads (§5), so the scheduler accepts one request per cycle and
    #: the DRAM channel bandwidth is the only memory-side rate limit.
    SCHEDULING_CYCLES = 1

    def __init__(
        self,
        sim: Simulator,
        index: int,
        node: Hashable,
        dram: DramModel,
    ) -> None:
        if index < 0:
            raise ConfigurationError("memory controller index cannot be negative")
        self.sim = sim
        self.index = index
        self.node = node
        self.dram = dram
        self._scheduler = Resource(sim, name="mc%d-scheduler" % index)
        self.requests = 0

    def service(self, nbytes: int, is_write: bool, on_done: Optional[Callable[[], None]] = None) -> float:
        """Service a request that has arrived at this controller.

        Returns the completion time (when read data is available / the write
        is durable) and schedules ``on_done`` at that time.
        """
        self.requests += 1
        grant = self._scheduler.acquire(self.SCHEDULING_CYCLES)
        start_delay = grant + self.SCHEDULING_CYCLES - self.sim.now
        finish_holder = {}

        def issue() -> None:
            finish_holder["t"] = self.dram.access(nbytes, is_write, on_done)

        if start_delay <= 0:
            issue()
            return finish_holder["t"]
        self.sim.schedule(start_delay, issue)
        # Conservative estimate for callers that want a time without waiting.
        return grant + self.SCHEDULING_CYCLES + self.dram.latency_cycles + \
            self.dram.channel.serialization_cycles(nbytes)

    def utilization(self) -> float:
        """Fraction of time the controller's scheduler has been busy."""
        return self._scheduler.utilization()
