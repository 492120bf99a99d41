"""DRAM timing model.

Table 2 specifies a flat 50 ns access latency and the paper intentionally
assumes memory bandwidth is not the bottleneck (HMC-class interfaces,
§5 "Memory and Network Bandwidth Assumptions").  The model therefore charges
a fixed access latency plus a (generous) bandwidth occupancy so that the
memory system only ever throttles a run if an experiment misconfigures it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.resource import Channel


class DramModel:
    """A single DRAM device/channel behind one memory controller."""

    def __init__(
        self,
        sim: Simulator,
        latency_cycles: int,
        bandwidth_bytes_per_cycle: float,
        name: str = "dram",
    ) -> None:
        if latency_cycles < 0:
            raise ConfigurationError("DRAM latency cannot be negative")
        if bandwidth_bytes_per_cycle <= 0:
            raise ConfigurationError("DRAM bandwidth must be positive")
        self.sim = sim
        self.latency_cycles = latency_cycles
        self.channel = Channel(sim, bandwidth_bytes_per_cycle, name="%s-channel" % name)
        self.name = name
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def access(self, nbytes: int, is_write: bool,
               on_done: Optional[Callable[..., None]] = None, *args) -> float:
        """Issue an access; returns its completion time and schedules ``on_done(*args)``."""
        if nbytes <= 0:
            raise ConfigurationError("DRAM access size must be positive")
        if is_write:
            self.writes += 1
            self.bytes_written += nbytes
        else:
            self.reads += 1
            self.bytes_read += nbytes
        grant = self.channel.send(nbytes)
        finish = grant + self.channel.serialization_cycles(nbytes) + self.latency_cycles
        if on_done is not None:
            self.sim.schedule(finish - self.sim.now, on_done, *args)
        return finish

    @property
    def accesses(self) -> int:
        return self.reads + self.writes
