"""Analytical bandwidth bounds (cross-checks for Figure 7).

The model captures the first-order limits the paper discusses in §6.2:

* the NOC bisection caps the achievable *application* bandwidth, because
  every application byte drags protocol headers, memory requests and LLC
  write-backs across the chip with it (the paper measures 594 GBps of NOC
  traffic for 214 GBps of application bandwidth, a ~2.7x expansion);
* for small transfers, the edge design is limited by how fast a core can
  create WQ entries when every QP interaction is a chip-crossing coherence
  transaction;
* for large transfers, the per-tile design is limited by the serialization of
  unrolled requests onto its tile's injection link and the doubled response
  traffic caused by the source-NI indirection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import SystemConfig
from repro.errors import ConfigurationError
from repro.sonuma.unroll import block_count
from repro.sonuma.wire import REQUEST_HEADER_BYTES, RESPONSE_HEADER_BYTES


@dataclass(frozen=True)
class BandwidthEstimate:
    """An estimated application-bandwidth bound, in GBps."""

    design: str
    transfer_bytes: int
    limit_gbps: float
    limiting_factor: str


class BandwidthModel:
    """Closed-form bandwidth bounds per NI design."""

    #: Approximate wire-to-application traffic expansion on the NOC
    #: (headers, memory requests, LLC write-backs); §6.2 measures ~2.7x.
    WIRE_EXPANSION = 2.7

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        self.config = config if config is not None else SystemConfig.paper_defaults()

    # ------------------------------------------------------------------
    # Chip-level ceilings
    # ------------------------------------------------------------------
    def bisection_limit_gbps(self) -> float:
        """Application bandwidth supportable by the NOC bisection."""
        return self.config.noc_bisection_bandwidth_gbps / self.WIRE_EXPANSION

    def memory_limit_gbps(self) -> float:
        """Aggregate memory bandwidth (never the bottleneck by construction, §5)."""
        return (
            self.config.memory.controllers
            * self.config.memory.bandwidth_gbps_per_controller
        )

    # ------------------------------------------------------------------
    # Per-design bounds
    # ------------------------------------------------------------------
    def issue_rate_limit_gbps(self, design: str, transfer_bytes: int) -> float:
        """Bandwidth bound imposed by per-core WQ/CQ interaction latency.

        A core must spend the WQ-write and (amortized) CQ-read costs for
        every transfer; with all cores issuing concurrently the chip cannot
        request data faster than ``cores x transfer / per_transfer_cost``.
        The factor of two accounts for the rate-matched incoming traffic that
        is counted in the application bandwidth as well (§6.2).
        """
        if transfer_bytes <= 0:
            raise ConfigurationError("transfer size must be positive")
        cal = self.config.calibration
        if design == "edge":
            per_transfer = (
                cal.edge_wq_write_cycles
                + cal.edge_cq_read_cycles
            )
        elif design in ("per_tile", "split"):
            per_transfer = (
                cal.wq_write_instruction_cycles
                + cal.qp_entry_local_transfer_cycles
                + cal.cq_read_instruction_cycles
                + cal.qp_entry_local_transfer_cycles
            )
        else:
            raise ConfigurationError("issue-rate bound is only defined for QP designs")
        cores = self.config.cores.count
        bytes_per_cycle = cores * transfer_bytes / per_transfer
        return 2.0 * bytes_per_cycle * self.config.cores.frequency_ghz

    def per_tile_injection_limit_gbps(self, transfer_bytes: int) -> float:
        """Bound from unrolling at the source tile (per-tile design, §6.1.3/§6.2).

        Each unrolled block costs a two-flit request on the tile's single
        injection link and, on the way back, a response that visits the
        source NI before its payload moves to the home LLC tile — roughly
        doubling the per-block on-chip traffic relative to the edge designs.
        """
        link_bytes = self.config.noc.link_bytes
        block = self.config.cache_block_bytes
        blocks = block_count(transfer_bytes, block)
        request_flits = 1 + (REQUEST_HEADER_BYTES + link_bytes - 1) // link_bytes
        response_flits = 1 + (RESPONSE_HEADER_BYTES + block + link_bytes - 1) // link_bytes
        # Cycles of injection-link occupancy per block at the source tile
        # (request out, response in, payload back out toward the LLC).
        per_block_cycles = request_flits + 2 * response_flits
        bytes_per_cycle_per_tile = block / per_block_cycles * blocks / max(1, blocks)
        cores = self.config.cores.count
        # Only half the chip's tiles can stream concurrently before the
        # edge-column links saturate; use the bisection as the binding cap.
        raw = 2.0 * cores * bytes_per_cycle_per_tile * self.config.cores.frequency_ghz
        return min(raw, 0.5 * self.bisection_limit_gbps())

    def estimate(self, design: str, transfer_bytes: int) -> BandwidthEstimate:
        """The binding bound for one design and transfer size."""
        ceilings = {
            "bisection": self.bisection_limit_gbps(),
            "memory": self.memory_limit_gbps(),
            "issue_rate": self.issue_rate_limit_gbps(design, transfer_bytes),
        }
        if design == "per_tile":
            ceilings["tile_injection"] = self.per_tile_injection_limit_gbps(transfer_bytes)
        factor, limit = min(ceilings.items(), key=lambda item: item[1])
        return BandwidthEstimate(
            design=design,
            transfer_bytes=transfer_bytes,
            limit_gbps=limit,
            limiting_factor=factor,
        )
