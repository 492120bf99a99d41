"""Zero-load latency breakdowns (Tables 1 and 3).

The breakdowns are built from the calibrated component costs of
:class:`~repro.config.LatencyCalibration` (the paper's measured instruction
overheads and pipeline occupancies) plus the network latency for the chosen
hop count.  They reproduce, by construction, the totals of Table 1
(710 vs 395 cycles, 79.7 % overhead) and Table 3 (710 / 445 / 447 / 395
cycles); the simulator is cross-checked against them in the test suite and
in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import SystemConfig
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class BreakdownComponent:
    """One row of a latency breakdown."""

    label: str
    cycles: float


@dataclass(frozen=True)
class DesignBreakdown:
    """The full breakdown for one design at one hop count."""

    design: str
    hops: int
    components: List[BreakdownComponent]

    @property
    def total_cycles(self) -> float:
        return sum(component.cycles for component in self.components)

    def total_ns(self, frequency_ghz: float) -> float:
        return self.total_cycles / frequency_ghz

    def overhead_over(self, baseline: "DesignBreakdown") -> float:
        """Fractional latency overhead relative to ``baseline`` (e.g. NUMA)."""
        if baseline.total_cycles <= 0:
            raise ConfigurationError("baseline breakdown has non-positive total")
        return self.total_cycles / baseline.total_cycles - 1.0

    def as_dict(self) -> Dict[str, float]:
        return {component.label: component.cycles for component in self.components}


class LatencyBreakdownModel:
    """Builds the per-design zero-load breakdowns of a single-block remote read."""

    #: The designs with a calibrated breakdown (each has a ``_<name>``
    #: component builder below), in Table 3 order.
    DESIGNS = ("edge", "per_tile", "split", "numa")

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        self.config = config if config is not None else SystemConfig.paper_defaults()
        self.calibration = self.config.calibration

    # ------------------------------------------------------------------
    # Per-design breakdowns
    # ------------------------------------------------------------------
    def breakdown(self, design: str, hops: int = 1) -> DesignBreakdown:
        """Breakdown of a single-cache-block remote read for ``design``."""
        if hops < 0:
            raise ConfigurationError("hop count cannot be negative")
        if design not in self.DESIGNS:
            raise ConfigurationError(
                "no latency breakdown for NI design %r (calibrated: %s)"
                % (design, ", ".join(self.DESIGNS))
            )
        components = getattr(self, "_" + design)(hops)
        return DesignBreakdown(design=design, hops=hops, components=components)

    def all_breakdowns(self, hops: int = 1) -> Dict[str, DesignBreakdown]:
        """Table 3: every design at the same hop count."""
        return {design: self.breakdown(design, hops) for design in self.DESIGNS}

    def overhead_over_numa(self, design: str, hops: int = 1) -> float:
        """Fractional overhead of ``design`` over the NUMA projection."""
        return self.breakdown(design, hops).overhead_over(self.breakdown("numa", hops))

    # ------------------------------------------------------------------
    # Component builders
    # ------------------------------------------------------------------
    def _network(self, hops: int) -> float:
        return hops * self.config.network_hop_cycles

    def _edge(self, hops: int) -> List[BreakdownComponent]:
        cal = self.calibration
        network = self._network(hops)
        return [
            BreakdownComponent("WQ write (core)", cal.edge_wq_write_cycles),
            BreakdownComponent("WQ read and RGP processing (NI)", cal.edge_wq_read_cycles),
            BreakdownComponent("Intra-rack network (%d hop)" % hops, network),
            BreakdownComponent("RRPP servicing", cal.rrpp_service_cycles),
            BreakdownComponent("Intra-rack network (%d hop)" % hops, network),
            BreakdownComponent("RCP processing and CQ entry write (NI)", cal.edge_cq_write_cycles),
            BreakdownComponent("CQ read (core)", cal.edge_cq_read_cycles),
        ]

    def _per_tile(self, hops: int) -> List[BreakdownComponent]:
        cal = self.calibration
        network = self._network(hops)
        return [
            BreakdownComponent("WQ write software overhead", cal.wq_write_instruction_cycles),
            BreakdownComponent("WQ entry transfer", cal.qp_entry_local_transfer_cycles),
            BreakdownComponent("RGP processing", cal.rgp_processing_cycles),
            BreakdownComponent("Transfer request to chip edge", cal.tile_to_edge_transfer_cycles),
            BreakdownComponent("Intra-rack network (%d hop)" % hops, network),
            BreakdownComponent("RRPP servicing", cal.rrpp_service_cycles),
            BreakdownComponent("Intra-rack network (%d hop)" % hops, network),
            BreakdownComponent("Transfer reply to RCP", cal.tile_to_edge_transfer_cycles),
            BreakdownComponent("RCP processing", cal.rcp_processing_cycles),
            BreakdownComponent("CQ entry transfer", cal.qp_entry_local_transfer_cycles),
            BreakdownComponent("CQ read software overhead", cal.cq_read_instruction_cycles),
        ]

    def _split(self, hops: int) -> List[BreakdownComponent]:
        cal = self.calibration
        network = self._network(hops)
        return [
            BreakdownComponent("WQ write software overhead", cal.wq_write_instruction_cycles),
            BreakdownComponent("WQ entry transfer", cal.qp_entry_local_transfer_cycles),
            BreakdownComponent("RGP frontend processing", cal.rgp_frontend_cycles),
            BreakdownComponent("Transfer request to RGP backend", cal.tile_to_edge_transfer_cycles),
            BreakdownComponent("RGP backend processing", cal.rgp_backend_cycles),
            BreakdownComponent("Intra-rack network (%d hop)" % hops, network),
            BreakdownComponent("RRPP servicing", cal.rrpp_service_cycles),
            BreakdownComponent("Intra-rack network (%d hop)" % hops, network),
            BreakdownComponent("RCP backend processing", cal.rcp_backend_cycles),
            BreakdownComponent("Transfer reply to RCP frontend", cal.tile_to_edge_transfer_cycles),
            BreakdownComponent("RCP frontend processing", cal.rcp_frontend_cycles),
            BreakdownComponent("CQ entry transfer", cal.qp_entry_local_transfer_cycles),
            BreakdownComponent("CQ read software overhead", cal.cq_read_instruction_cycles),
        ]

    def _numa(self, hops: int) -> List[BreakdownComponent]:
        cal = self.calibration
        network = self._network(hops)
        return [
            BreakdownComponent("Exec. of load instruction", cal.numa_issue_cycles),
            BreakdownComponent("Transfer request to chip edge", cal.tile_to_edge_transfer_cycles),
            BreakdownComponent("Intra-rack network (%d hop)" % hops, network),
            BreakdownComponent("Read data from memory", cal.rrpp_service_cycles),
            BreakdownComponent("Intra-rack network (%d hop)" % hops, network),
            BreakdownComponent("Transfer reply to core", cal.tile_to_edge_transfer_cycles),
        ]

    # ------------------------------------------------------------------
    # Table 1 view (QP-based model vs NUMA, coarse components)
    # ------------------------------------------------------------------
    def table1(self, hops: int = 1) -> Dict[str, DesignBreakdown]:
        """The two-column comparison of Table 1."""
        cal = self.calibration
        network = self._network(hops)
        qp_components = [
            BreakdownComponent("A1) WQ write (core)", cal.edge_wq_write_cycles),
            BreakdownComponent("A2) WQ read (NI)", cal.edge_wq_read_cycles),
            BreakdownComponent("A3) Intra-rack network (%d hop)" % hops, network),
            BreakdownComponent("A4) Read data from memory", cal.rrpp_service_cycles),
            BreakdownComponent("A5) Intra-rack network (%d hop)" % hops, network),
            BreakdownComponent("A6) CQ write (NI)", cal.edge_cq_write_cycles),
            BreakdownComponent("A7) CQ read (core)", cal.edge_cq_read_cycles),
        ]
        numa_components = [
            BreakdownComponent("B1) Exec. of load instruction", cal.numa_issue_cycles),
            BreakdownComponent("B2) Transfer req. to chip edge", cal.tile_to_edge_transfer_cycles),
            BreakdownComponent("B3) Intra-rack network (%d hop)" % hops, network),
            BreakdownComponent("B4) Read data from memory", cal.rrpp_service_cycles),
            BreakdownComponent("B5) Intra-rack network (%d hop)" % hops, network),
            BreakdownComponent("B6) Transfer reply to core", cal.tile_to_edge_transfer_cycles),
        ]
        return {
            "qp_based": DesignBreakdown("edge", hops, qp_components),
            "numa": DesignBreakdown("numa", hops, numa_components),
        }
