"""Figure 5: end-to-end latency projection across intra-rack hop counts.

The figure plots, for hop counts 0-12 (the diameter of the 512-node 3D
torus), the zero-load end-to-end latency of a single-block remote read for
the NUMA projection, NIsplit and NIedge, plus the percentage overhead of the
two messaging designs over NUMA (28.6 % vs 4.7 % at the 6-hop average,
16.2 % vs 2.6 % at the 12-hop diameter).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.projection import HopProjection
from repro.config import SystemConfig
from repro.experiments.base import ExperimentResult
from repro.experiments.spec import Parameter, experiment


@experiment(
    name="fig5",
    title="Figure 5",
    description="Projected remote-read latency vs. intra-rack hop count.",
    parameters=(
        Parameter("max_hops", int, default=None,
                  help="largest hop count to project (default: the torus diameter)"),
    ),
    fast=True,
    tags=("analytical", "latency"),
)
def run_fig5(config: Optional[SystemConfig] = None, max_hops: Optional[int] = None) -> ExperimentResult:
    """Regenerate the Figure-5 series."""
    config = config if config is not None else SystemConfig.paper_defaults()
    projection = HopProjection(config)
    result = ExperimentResult(
        name="Figure 5",
        description="Projected end-to-end latency of a cache-block remote read vs. "
                    "intra-rack hop count (ns, and % overhead over NUMA).",
        headers=[
            "Hops",
            "NUMA (ns)",
            "NIsplit (ns)",
            "NIedge (ns)",
            "NIsplit overhead (%)",
            "NIedge overhead (%)",
        ],
    )
    for point in projection.sweep(max_hops):
        result.add_row(
            point.hops,
            point.latency_ns["numa"],
            point.latency_ns["split"],
            point.latency_ns["edge"],
            100 * point.overhead_over_numa["split"],
            100 * point.overhead_over_numa["edge"],
        )
    result.add_note("average hop count in the 512-node torus: %.1f; diameter: %d"
                    % (projection.average_hops(), projection.max_hops()))
    result.add_note("paper reports 28.6% (NIedge) vs 4.7% (NIsplit) overhead at 6 hops")
    return result
