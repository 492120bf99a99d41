"""Table 3: zero-load latency breakdown of a single-block remote read, per design.

The paper reports 710 / 445 / 447 / 395 cycles for NIedge / NIper-tile /
NIsplit / the NUMA projection.  The analytical breakdown reproduces these by
construction; optionally the experiment also cross-checks against the
discrete-event simulator's measured end-to-end latency.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.breakdown import LatencyBreakdownModel
from repro.config import SystemConfig
from repro.experiments.base import ExperimentResult
from repro.experiments.spec import Parameter, experiment
from repro.numa.machine import NumaMachine
from repro.workloads.microbench import RemoteReadLatencyBenchmark

_PAPER_TOTALS = {"edge": 710, "per_tile": 445, "split": 447, "numa": 395}


@experiment(
    name="table3",
    title="Table 3",
    description="Zero-load remote-read latency breakdown per NI design.",
    parameters=(
        Parameter("hops", int, default=1, help="inter-node network hops per direction"),
        Parameter("simulate", bool, default=False,
                  help="add a simulated cross-check column from the discrete-event simulator"),
        Parameter("iterations", int, default=4,
                  help="measured reads per design when simulate is on"),
    ),
    fast=True,
    tags=("analytical", "latency"),
)
def run_table3(
    config: Optional[SystemConfig] = None,
    hops: int = 1,
    simulate: bool = False,
    iterations: int = 4,
) -> ExperimentResult:
    """Regenerate Table 3 (optionally adding a simulated cross-check column)."""
    config = config if config is not None else SystemConfig.paper_defaults()
    model = LatencyBreakdownModel(config)
    headers = ["Design", "Analytical cycles", "Paper cycles", "Overhead over NUMA (%)"]
    if simulate:
        headers.append("Simulated cycles")
    result = ExperimentResult(
        name="Table 3",
        description="Zero-load latency breakdown of a single-block remote read "
                    "(%d network hop)." % hops,
        headers=headers,
    )
    numa = model.breakdown("numa", hops)
    for design, paper_total in _PAPER_TOTALS.items():
        breakdown = model.breakdown(design, hops)
        overhead = 0.0 if design == "numa" else 100 * breakdown.overhead_over(numa)
        row = [design, breakdown.total_cycles, paper_total, overhead]
        if simulate:
            row.append(_simulated_latency(config, design, hops, iterations))
        result.add_row(*row)
    result.add_note("components per design are available via "
                    "repro.analysis.LatencyBreakdownModel.breakdown()")
    return result


def _simulated_latency(config: SystemConfig, design: str, hops: int, iterations: int) -> float:
    if design == "numa":
        return NumaMachine(config).simulate_remote_read_cycles(hops=hops)
    bench = RemoteReadLatencyBenchmark(
        config.with_design(design), hops=hops, iterations=iterations, warmup=1
    )
    return bench.run(config.cache_block_bytes).mean_cycles
