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

    def service(self, nbytes: int, is_write: bool,
                on_done: Optional[Callable[..., None]] = None, *args) -> None:
        """Service a request that has arrived at this controller.

        ``on_done(*args)`` runs when read data is available / the write is
        durable.
        """
        self.requests += 1
        # The grant is never before now, so the DRAM access always starts
        # at least one scheduling slot later.
        grant = self._scheduler.acquire(self.SCHEDULING_CYCLES)
        self.sim.schedule(grant + self.SCHEDULING_CYCLES - self.sim.now,
                          DramModel.access, self.dram, nbytes, is_write, on_done, *args)

    def utilization(self) -> float:
        """Fraction of time the controller's scheduler has been busy."""
        return self._scheduler.utilization()
