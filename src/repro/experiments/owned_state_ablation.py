"""NI-cache owned-state ablation (§3.4).

The per-tile and split designs attach the NI cache behind the core's L1.
The common case of the core polling a CQ block that the NI cache holds
modified would, under plain MESI, force a write-back to the LLC before the
block can be forwarded; the owned state lets the NI cache forward a clean
copy immediately.  This experiment measures the single-block remote-read
latency with the optimization enabled and disabled.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.config import SystemConfig
from repro.experiments.base import ExperimentResult
from repro.experiments.spec import Parameter, experiment
from repro.workloads.microbench import RemoteReadLatencyBenchmark


@experiment(
    name="owned-state",
    title="Owned-state ablation",
    description="Remote-read latency with the NI-cache owned state on vs. off (§3.4).",
    parameters=(
        Parameter("transfer_bytes", int, default=64, help="remote-read transfer size"),
        Parameter("iterations", int, default=6, help="measured reads per variant"),
    ),
    tags=("simulated", "latency", "ablation"),
)
def run_owned_state_ablation(
    config: Optional[SystemConfig] = None,
    transfer_bytes: int = 64,
    iterations: int = 6,
) -> ExperimentResult:
    """Latency with and without the NI-cache owned-state optimization."""
    config = config if config is not None else SystemConfig.paper_defaults()
    result = ExperimentResult(
        name="Owned-state ablation",
        description="Zero-load latency (cycles) of a %d-byte remote read with the NI-cache "
                    "owned state enabled vs disabled." % transfer_bytes,
        headers=["Design", "Owned state", "Latency (cycles)"],
    )
    for design in ("per_tile", "split"):
        for enabled in (True, False):
            variant = config.with_design(design)
            variant = variant.replace(ni=dataclasses.replace(variant.ni, ni_cache_owned_state=enabled))
            bench = RemoteReadLatencyBenchmark(variant, iterations=iterations, warmup=2)
            run = bench.run(transfer_bytes)
            result.add_row(design, "on" if enabled else "off", run.mean_cycles)
    result.add_note("disabling the owned state adds an LLC round trip to every CQ poll of a "
                    "dirty block (§3.4)")
    return result
