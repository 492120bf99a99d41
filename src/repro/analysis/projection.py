"""End-to-end latency projection across rack hop counts (Figure 5).

Figure 5 extends the Table-3 breakdowns from one network hop to the full
diameter of the 512-node 3D torus (0-12 hops, 70 cycles per hop per
direction) and reports both absolute latency in nanoseconds and the
percentage overhead of the messaging designs over the NUMA projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.breakdown import LatencyBreakdownModel
from repro.config import SystemConfig
from repro.errors import ConfigurationError
from repro.fabric.torus import Torus3D


@dataclass(frozen=True)
class ProjectionPoint:
    """Latency of every design at one hop count."""

    hops: int
    latency_ns: Dict[str, float]
    overhead_over_numa: Dict[str, float]


class HopProjection:
    """Builds the Figure-5 latency-vs-hop-count projection."""

    def __init__(self, config: Optional[SystemConfig] = None,
                 designs: Sequence[str] = ("numa", "split", "edge")) -> None:
        self.config = config if config is not None else SystemConfig.paper_defaults()
        self.designs = tuple(designs)
        self.model = LatencyBreakdownModel(self.config)
        self.torus = Torus3D(self.config.rack.torus_dims)

    def max_hops(self) -> int:
        """The rack diameter (12 for the default 8x8x8 torus)."""
        return self.torus.max_hop_count()

    def average_hops(self) -> float:
        """The average node-to-node distance (6 for the default torus)."""
        return self.torus.average_hop_count()

    def point(self, hops: int) -> ProjectionPoint:
        """Latencies and overheads at one hop count."""
        if hops < 0:
            raise ConfigurationError("hop count cannot be negative")
        frequency = self.config.cores.frequency_ghz
        latency_ns: Dict[str, float] = {}
        for design in self.designs:
            latency_ns[design] = self.model.breakdown(design, hops).total_ns(frequency)
        numa = self.model.breakdown("numa", hops)
        overhead: Dict[str, float] = {}
        for design in self.designs:
            if design == "numa":
                overhead[design] = 0.0
            else:
                overhead[design] = self.model.breakdown(design, hops).overhead_over(numa)
        return ProjectionPoint(hops=hops, latency_ns=latency_ns, overhead_over_numa=overhead)

    def sweep(self, max_hops: Optional[int] = None) -> List[ProjectionPoint]:
        """The full Figure-5 series: every hop count from 0 to the diameter."""
        limit = self.max_hops() if max_hops is None else max_hops
        return [self.point(h) for h in range(limit + 1)]
