"""Figure 6: latency of synchronous remote reads vs. transfer size (mesh NOC).

A single core issues synchronous remote reads of 64 B to 16 KB in an
unloaded system (one network hop per direction).  The paper shows the three
messaging designs converging as the transfer grows — except NIper-tile,
whose source-tile unrolling makes it the *slowest* design for the largest
transfers — with the NUMA projection as the lower bound.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.experiments.base import ExperimentResult
from repro.experiments.spec import Parameter, experiment
from repro.numa.machine import NumaMachine
from repro.scenario.registry import NI_DESIGNS
from repro.workloads.microbench import RemoteReadLatencyBenchmark

#: The transfer sizes on the Figure-6 x-axis.
FIG6_SIZES = (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)


#: Column order of the paper's figures (edge, split, per-tile).
FIGURE_DESIGN_ORDER = ("edge", "split", "per_tile")


def select_designs(design: Optional[object]) -> Tuple[str, ...]:
    """The messaging designs an experiment sweeps: all three, or just one."""
    if design is None:
        return FIGURE_DESIGN_ORDER
    return (NI_DESIGNS.resolve(design),)


def design_label(design: str) -> str:
    """The paper's display name for a design (its registered ``label``)."""
    return NI_DESIGNS.entry(design).metadata.get("label", design)


@experiment(
    name="fig6",
    title="Figure 6",
    description="Synchronous remote-read latency vs. transfer size on the mesh NOC.",
    parameters=(
        Parameter("design", str, default=None,
                  choices=lambda: NI_DESIGNS.names(messaging=True),
                  help="restrict the sweep to one messaging design (default: all three)"),
        Parameter("sizes", int, default=FIG6_SIZES, repeated=True,
                  help="transfer sizes in bytes (x-axis)"),
        Parameter("hops", int, default=1, help="inter-node network hops per direction"),
        Parameter("iterations", int, default=5, help="measured reads per size"),
        Parameter("warmup", int, default=2, help="discarded warm-up reads per size"),
    ),
    tags=("simulated", "latency", "mesh"),
)
def run_fig6(
    config: Optional[SystemConfig] = None,
    design: Optional[str] = None,
    sizes: Sequence[int] = FIG6_SIZES,
    hops: int = 1,
    iterations: int = 5,
    warmup: int = 2,
) -> ExperimentResult:
    """Regenerate the Figure-6 latency sweep using the discrete-event simulator."""
    config = config if config is not None else SystemConfig.paper_defaults()
    designs = select_designs(design)
    result = ExperimentResult(
        name="Figure 6",
        description="End-to-end latency (ns) of synchronous remote reads on the mesh NOC, "
                    "one network hop per direction.",
        headers=["Transfer (B)"]
                + ["%s (ns)" % design_label(d) for d in designs]
                + ["NUMA projection (ns)"],
    )
    numa = NumaMachine(config)
    latencies = {}
    for d in designs:
        bench = RemoteReadLatencyBenchmark(
            config.with_design(d), hops=hops, iterations=iterations, warmup=warmup
        )
        latencies[d] = {size: bench.run(size).mean_ns for size in sizes}
    for size in sizes:
        result.add_row(
            size,
            *[latencies[d][size] for d in designs],
            config.cycles_to_ns(numa.transfer_latency_cycles(size, hops)),
        )
    result.metadata.events["latency_samples"] = (warmup + iterations) * len(sizes) * len(designs)
    result.add_note("paper: NIsplit tracks NIper-tile for small sizes, NIedge carries a ~130 ns "
                    "constant penalty, and NIper-tile becomes the slowest design at 8-16 KB")
    return result
