"""Figure 9: latency of synchronous remote reads on the NOC-Out topology (§6.3).

Same microbenchmark as Figure 6, but the chip uses NOC-Out: an LLC row
interconnected by a flattened butterfly with per-column core trees.  The
paper finds up to 30 % lower latency than the mesh for small transfers, with
NIedge still ~30 % slower than NIsplit/NIper-tile because the QP
interactions remain chip-crossing coherence transactions.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import SystemConfig
from repro.experiments.base import ExperimentResult
from repro.experiments.fig6 import FIG6_SIZES, design_label, select_designs
from repro.experiments.spec import Parameter, experiment
from repro.scenario.registry import NI_DESIGNS
from repro.workloads.microbench import RemoteReadLatencyBenchmark


@experiment(
    name="fig9",
    title="Figure 9",
    description="Synchronous remote-read latency vs. transfer size on NOC-Out.",
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
    default_config=SystemConfig.noc_out_defaults,
    tags=("simulated", "latency", "noc-out"),
)
def run_fig9(
    config: Optional[SystemConfig] = None,
    design: Optional[str] = None,
    sizes: Sequence[int] = FIG6_SIZES,
    hops: int = 1,
    iterations: int = 5,
    warmup: int = 2,
) -> ExperimentResult:
    """Regenerate the Figure-9 latency sweep on NOC-Out."""
    base = config if config is not None else SystemConfig.noc_out_defaults()
    if config is not None:
        base = SystemConfig.noc_out_defaults().replace(
            calibration=config.calibration, ni=config.ni, rack=config.rack
        )
    designs = select_designs(design)
    result = ExperimentResult(
        name="Figure 9",
        description="End-to-end latency (ns) of synchronous remote reads on NOC-Out, "
                    "one network hop per direction.",
        headers=["Transfer (B)"] + ["%s (ns)" % design_label(d) for d in designs],
    )
    latencies = {}
    for d in designs:
        bench = RemoteReadLatencyBenchmark(
            base.with_design(d), hops=hops, iterations=iterations, warmup=warmup
        )
        latencies[d] = {size: bench.run(size).mean_ns for size in sizes}
    for size in sizes:
        result.add_row(size, *[latencies[d][size] for d in designs])
    # The effective config differs from the caller's (NOC-Out merge above);
    # stamp its fingerprint so metadata matches what was actually simulated.
    result.metadata.config_fingerprint = base.fingerprint()
    result.metadata.events["latency_samples"] = (warmup + iterations) * len(sizes) * len(designs)
    result.add_note("paper: NOC-Out lowers small-transfer latency by up to 30% vs the mesh; "
                    "NIedge remains up to 30% slower than NIsplit")
    return result
