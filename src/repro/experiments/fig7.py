"""Figure 7: application bandwidth of asynchronous remote reads (mesh NOC).

All 64 cores issue asynchronous remote reads while the remote-end emulator
mirrors the outgoing request rate back as incoming requests.  The paper
reports NIedge and NIsplit saturating at ~214 GBps aggregate application
bandwidth (the NOC bisection being the limiter at ~594 GBps of total NOC
traffic), NIedge penalized at small transfers by QP-block ping-ponging, and
NIper-tile collapsing for bulk transfers because of source-tile unrolling.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import SystemConfig
from repro.experiments.base import ExperimentResult
from repro.experiments.fig6 import design_label, select_designs
from repro.experiments.spec import Parameter, experiment
from repro.scenario.registry import NI_DESIGNS
from repro.workloads.microbench import RemoteReadBandwidthBenchmark

#: The transfer sizes on the Figure-7 x-axis.
FIG7_SIZES = (64, 128, 256, 512, 1024, 2048, 4096, 8192)


@experiment(
    name="fig7",
    title="Figure 7",
    description="Asynchronous remote-read application bandwidth vs. transfer size "
                "on the mesh NOC.",
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
        Parameter("converge", bool, default=False,
                  help="measure window after window until the bandwidth converges "
                       "(the paper's §5 methodology) instead of one fixed window"),
        Parameter("max_windows", int, default=8,
                  help="window budget when converging; running out is flagged as a "
                       "measurement warning"),
        Parameter("tolerance", float, default=0.01,
                  help="relative window-to-window change below which the metric "
                       "counts as converged"),
    ),
    tags=("simulated", "bandwidth", "mesh"),
)
def run_fig7(
    config: Optional[SystemConfig] = None,
    design: Optional[str] = None,
    sizes: Sequence[int] = FIG7_SIZES,
    warmup_cycles: float = 5_000,
    measure_cycles: float = 15_000,
    converge: bool = False,
    max_windows: int = 8,
    tolerance: float = 0.01,
) -> ExperimentResult:
    """Regenerate the Figure-7 bandwidth sweep using the discrete-event simulator."""
    config = config if config is not None else SystemConfig.paper_defaults()
    designs = select_designs(design)
    # The NOC wire-traffic column follows NIsplit in the paper; when the sweep
    # is restricted to another design it reports that design's wire traffic.
    wire_design = "split" if "split" in designs else designs[0]
    result = ExperimentResult(
        name="Figure 7",
        description="Aggregate application bandwidth (GBps) for asynchronous remote reads "
                    "on the mesh NOC with rate-matched incoming traffic.",
        headers=["Transfer (B)"]
                + ["%s (GBps)" % design_label(d) for d in designs]
                + ["NOC wire traffic, %s (GBps)" % design_label(wire_design)],
    )
    bandwidth = {}
    wire = {}
    for d in designs:
        bench = RemoteReadBandwidthBenchmark(
            config.with_design(d),
            warmup_cycles=warmup_cycles,
            measure_cycles=measure_cycles,
            converge=converge,
            max_windows=max_windows,
            tolerance=tolerance,
        )
        for size in sizes:
            run = bench.run(size)
            bandwidth[(d, size)] = run.application_gbps
            if d == wire_design:
                wire[size] = run.noc_wire_gbps
            if run.convergence_warning:
                result.metadata.warnings.append(
                    "%s, %d B: %s" % (design_label(d), size, run.convergence_warning)
                )
    for size in sizes:
        result.add_row(
            size,
            *[bandwidth[(d, size)] for d in designs],
            wire[size],
        )
    result.metadata.events["bandwidth_runs"] = len(sizes) * len(designs)
    result.add_note("paper: NIedge/NIsplit peak at 214 GBps; NIper-tile reaches only ~25% of "
                    "NIedge for 8 KB transfers; NOC traffic is ~2.7x the application bandwidth")
    return result
