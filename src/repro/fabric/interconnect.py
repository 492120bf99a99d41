"""Fixed-latency inter-node interconnect model.

The paper models the supercomputer-like rack fabric as a lossless network
with a fixed 35 ns latency per hop [Towles et al., Anton 2]; bandwidth is
intentionally provisioned so that it never throttles the studied workloads
(§5).  The model therefore exposes latency only.
"""

from __future__ import annotations

from repro.config import RackConfig, SystemConfig
from repro.errors import ConfigurationError
from repro.fabric.torus import Torus3D


class InterconnectModel:
    """Latency model of the intra-rack network."""

    def __init__(self, rack: RackConfig, frequency_ghz: float = 2.0) -> None:
        if frequency_ghz <= 0:
            raise ConfigurationError("frequency must be positive")
        self.rack = rack
        self.frequency_ghz = frequency_ghz
        self.torus = Torus3D(rack.torus_dims)
        # Precomputed once: node_to_node_latency_cycles sits on the
        # remote-request hot path, and round() per call is measurable there.
        self._hop_latency_cycles = int(round(rack.network_hop_ns * frequency_ghz))

    @classmethod
    def from_config(cls, config: SystemConfig) -> "InterconnectModel":
        return cls(config.rack, config.cores.frequency_ghz)

    @property
    def hop_latency_cycles(self) -> int:
        return self._hop_latency_cycles

    def one_way_latency_cycles(self, hops: int) -> int:
        """One-way network latency for a path of ``hops`` chip-to-chip hops."""
        if hops < 0:
            raise ConfigurationError("hop count cannot be negative")
        return hops * self._hop_latency_cycles

    def round_trip_latency_cycles(self, hops: int) -> int:
        """Round-trip network latency (excludes remote-node servicing)."""
        return 2 * self.one_way_latency_cycles(hops)

    def node_to_node_latency_cycles(self, src: int, dst: int) -> int:
        """One-way latency between two specific rack nodes."""
        return self.one_way_latency_cycles(self.torus.hop_count(src, dst))
