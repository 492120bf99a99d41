"""Idealized NUMA baseline (Table 1 / Table 3 "NUMA projection").

The comparison point used throughout the paper is a hardware NUMA machine in
the spirit of the Cray T3D: a core issues a remote load/store directly (one
cycle), the request travels to the chip edge, crosses the rack network, is
serviced by the remote node's memory system and the reply returns straight
to the issuing core — no queue pairs, no NI interaction, no coherence
ping-pong.  The paper constructs this point analytically (it optimistically
charges a single cycle for issuing the load), and for multi-block transfers
it notes that a NUMA machine fundamentally moves one cache block per
load/store.

:class:`NumaMachine` provides both the analytical projection used by the
tables/figures and a small message-level simulation of the single-block path
over the same mesh NOC model, used for cross-validation in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import MessageClass, SystemConfig
from repro.errors import ConfigurationError
from repro.noc.fabric import NocFabric
from repro.noc.mesh import MeshTopology
from repro.scenario.registry import register_ni_design
from repro.sim.engine import Simulator
from repro.sonuma.unroll import block_count


@dataclass(frozen=True)
class NumaLatencyComponent:
    """One row of the NUMA column of Table 1 / Table 3."""

    label: str
    cycles: float


@register_ni_design("numa", label="NUMA", messaging=False)
class NumaMachine:
    """Analytical + simulated model of the load/store baseline."""

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        self.config = config if config is not None else SystemConfig.paper_defaults()
        self.calibration = self.config.calibration

    # ------------------------------------------------------------------
    # Analytical projection (Tables 1/3, Figures 5/6)
    # ------------------------------------------------------------------
    def breakdown(self, hops: int = 1) -> List[NumaLatencyComponent]:
        """Component-wise zero-load latency of a single-block remote read."""
        if hops < 0:
            raise ConfigurationError("hop count cannot be negative")
        cal = self.calibration
        network = hops * self.config.network_hop_cycles
        return [
            NumaLatencyComponent("Remote read issuing (single load)", cal.numa_issue_cycles),
            NumaLatencyComponent("Transfer request to chip edge", cal.tile_to_edge_transfer_cycles),
            NumaLatencyComponent("Intra-rack network (%d hop)" % hops, network),
            NumaLatencyComponent("Read data from memory", cal.rrpp_service_cycles),
            NumaLatencyComponent("Intra-rack network (%d hop)" % hops, network),
            NumaLatencyComponent("Transfer reply to requesting core", cal.tile_to_edge_transfer_cycles),
        ]

    def remote_read_cycles(self, hops: int = 1) -> float:
        """Zero-load end-to-end latency of a single-block remote read."""
        return sum(component.cycles for component in self.breakdown(hops))

    def remote_read_ns(self, hops: int = 1) -> float:
        return self.config.cycles_to_ns(self.remote_read_cycles(hops))

    def transfer_latency_cycles(self, size_bytes: int, hops: int = 1) -> float:
        """Zero-load latency of a transfer of ``size_bytes``.

        The projection (used for Fig. 6) charges the fixed request path once
        and streams the remaining blocks back-to-back at one block per NOC
        injection slot; this matches the paper's construction of the "NUMA
        projection" curve (NIsplit minus its QP-interaction components).
        """
        blocks = block_count(size_bytes, self.config.cache_block_bytes)
        single = self.remote_read_cycles(hops)
        flits_per_block = self.config.blocks_per_noc_packet_flits
        return single + (blocks - 1) * flits_per_block

    # ------------------------------------------------------------------
    # Message-level simulation of the single-block path
    # ------------------------------------------------------------------
    def simulate_remote_read_cycles(self, tile_id: Optional[int] = None, hops: int = 1) -> float:
        """Simulate the on-chip part of a remote load on an idle mesh NOC.

        The request crosses the NOC from the issuing tile to the network
        router at the chip edge, the rack network and remote servicing are
        charged analytically (as in §5), and the reply crosses the NOC back
        to the core.
        """
        sim = Simulator()
        topology = MeshTopology(self.config.mesh_side, self.config.noc)
        fabric = NocFabric(sim, topology, self.config.noc)
        if tile_id is None:
            side = self.config.mesh_side
            tile_id = max(0, (side // 2 - 1) * side + (side // 2 - 1))
        source = topology.tile_coord(tile_id)
        port = (topology.ni_edge_column(), source[1])
        done = {}

        request_header = 8
        block = self.config.cache_block_bytes
        cal = self.calibration
        remote = 2 * hops * self.config.network_hop_cycles + cal.rrpp_service_cycles

        def reply_arrived(_packet) -> None:
            done["t"] = sim.now

        def at_remote() -> None:
            fabric.send(port, source, block, MessageClass.MEMORY_RESPONSE, reply_arrived)

        def at_port(_packet) -> None:
            sim.schedule(remote, at_remote)

        def issue() -> None:
            fabric.send(source, port, request_header, MessageClass.MEMORY_REQUEST, at_port)

        sim.schedule(cal.numa_issue_cycles, issue)
        sim.run()
        if "t" not in done:
            raise ConfigurationError("NUMA simulation did not complete")
        return done["t"]
