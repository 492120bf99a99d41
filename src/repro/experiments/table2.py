"""Table 2: system parameters used for simulation."""

from __future__ import annotations

from typing import Optional

from repro.config import SystemConfig
from repro.experiments.base import ExperimentResult
from repro.experiments.spec import experiment


@experiment(
    name="table2",
    title="Table 2",
    description="System parameters of the modelled rack-scale node.",
    fast=True,
    tags=("analytical",),
)
def run_table2(config: Optional[SystemConfig] = None) -> ExperimentResult:
    """Report the modelled system configuration (Table 2)."""
    config = config if config is not None else SystemConfig.paper_defaults()
    result = ExperimentResult(
        name="Table 2",
        description="System parameters of the modelled rack-scale node.",
        headers=["Parameter", "Value"],
    )
    result.add_row("Cores", "%d ARM-like OoO @ %.1f GHz" % (config.cores.count, config.cores.frequency_ghz))
    result.add_row("L1 caches", "split I/D, %d KiB, %d-way, %d-cycle"
                   % (config.cores.l1_size_kib, config.cores.l1_ways, config.cores.l1_latency_cycles))
    result.add_row("LLC", "shared NUCA, %d MiB, %d-way, %d-cycle"
                   % (config.llc.total_size_mib, config.llc.ways, config.llc.latency_cycles))
    result.add_row("Coherence", "directory-based non-inclusive MESI")
    result.add_row("Memory", "%.0f ns latency, %d MCs" % (config.memory.latency_ns, config.memory.controllers))
    result.add_row("Interconnect", "%s, %d-byte links, %d cycles/hop, routing %s"
                   % (config.noc.topology, config.noc.link_bytes,
                      config.noc.mesh_hop_cycles, config.noc.routing.value))
    result.add_row("NI", "RGP/RCP/RRPP, %d RRPPs, %d-entry WQ/CQ, design=%s"
                   % (config.ni.rrpp_count, config.ni.wq_entries, config.ni.design))
    result.add_row("Network", "fixed %.0f ns per hop, %d-node 3D torus %r"
                   % (config.rack.network_hop_ns, config.rack.nodes, config.rack.torus_dims))
    return result
