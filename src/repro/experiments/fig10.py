"""Figure 10: application bandwidth of asynchronous remote reads on NOC-Out (§6.3.1).

Same microbenchmark as Figure 7 on the NOC-Out topology.  The paper finds
the same qualitative trends as on the mesh but a significantly lower peak
bandwidth, because the NOC-Out organization has far fewer LLC tiles/banks
and they become highly contended.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import SystemConfig
from repro.experiments.base import ExperimentResult
from repro.experiments.fig6 import design_label, select_designs
from repro.experiments.fig7 import FIG7_SIZES
from repro.experiments.spec import Parameter, experiment
from repro.scenario.registry import NI_DESIGNS
from repro.workloads.microbench import RemoteReadBandwidthBenchmark


@experiment(
    name="fig10",
    title="Figure 10",
    description="Asynchronous remote-read application bandwidth vs. transfer size "
                "on NOC-Out.",
    parameters=(
        Parameter("design", str, default=None,
                  choices=lambda: NI_DESIGNS.names(messaging=True),
                  help="restrict the sweep to one messaging design (default: all three)"),
        Parameter("sizes", int, default=FIG7_SIZES, repeated=True,
                  help="transfer sizes in bytes (x-axis)"),
        Parameter("warmup_cycles", float, default=5_000.0,
                  help="cycles simulated before measurement starts"),
        Parameter("measure_cycles", float, default=15_000.0,
                  help="cycles in the measurement window"),
    ),
    default_config=SystemConfig.noc_out_defaults,
    tags=("simulated", "bandwidth", "noc-out"),
)
def run_fig10(
    config: Optional[SystemConfig] = None,
    design: Optional[str] = None,
    sizes: Sequence[int] = FIG7_SIZES,
    warmup_cycles: float = 5_000,
    measure_cycles: float = 15_000,
) -> ExperimentResult:
    """Regenerate the Figure-10 bandwidth sweep on NOC-Out."""
    base = config if config is not None else SystemConfig.noc_out_defaults()
    designs = select_designs(design)
    util_design = "split" if "split" in designs else designs[0]
    result = ExperimentResult(
        name="Figure 10",
        description="Aggregate application bandwidth (GBps) for asynchronous remote reads "
                    "on NOC-Out with rate-matched incoming traffic.",
        headers=["Transfer (B)"]
                + ["%s (GBps)" % design_label(d) for d in designs]
                + ["LLC bank utilization, %s" % design_label(util_design)],
    )
    bandwidth = {}
    llc_util = {}
    for d in designs:
        bench = RemoteReadBandwidthBenchmark(
            base.with_design(d),
            warmup_cycles=warmup_cycles,
            measure_cycles=measure_cycles,
        )
        for size in sizes:
            run = bench.run(size)
            bandwidth[(d, size)] = run.application_gbps
            if d == util_design:
                llc_util[size] = run.llc_bank_utilization
    for size in sizes:
        result.add_row(
            size,
            *[bandwidth[(d, size)] for d in designs],
            llc_util[size],
        )
    result.metadata.events["bandwidth_runs"] = len(sizes) * len(designs)
    result.add_note("paper: trends match the mesh but the peak is significantly lower because "
                    "the 8-bank LLC row is highly contended")
    return result
