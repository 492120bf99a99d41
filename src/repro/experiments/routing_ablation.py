"""Routing ablation (§4.3, §6.2 text).

The paper reports that without CDR the bandwidth curves keep their shape but
the peak any design reaches is less than half of the CDR peak (~100 GBps vs
214 GBps), because dimension-order routing turns the MC (or NI) edge column
into a hotspot.  This experiment sweeps the routing policy for one design
and one transfer size and reports the achieved application bandwidth.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import RoutingAlgorithm, SystemConfig
from repro.experiments.base import ExperimentResult
from repro.experiments.spec import Parameter, experiment
from repro.scenario.registry import NI_DESIGNS
from repro.workloads.microbench import RemoteReadBandwidthBenchmark

_DEFAULT_POLICIES = (
    RoutingAlgorithm.XY,
    RoutingAlgorithm.YX,
    RoutingAlgorithm.O1TURN,
    RoutingAlgorithm.CDR,
    RoutingAlgorithm.CDR_EXTENDED,
)


@experiment(
    name="routing",
    title="Routing ablation",
    description="Application bandwidth under each on-chip routing policy (§4.3).",
    parameters=(
        Parameter("design", str, default="split",
                  choices=lambda: NI_DESIGNS.names(messaging=True),
                  help="messaging design to drive the NOC with"),
        Parameter("transfer_bytes", int, default=2048, help="remote-read transfer size"),
        Parameter("policies", str, default=tuple(p.value for p in _DEFAULT_POLICIES),
                  repeated=True, help="routing policies to sweep"),
        Parameter("warmup_cycles", float, default=5_000.0,
                  help="cycles simulated before measurement starts"),
        Parameter("measure_cycles", float, default=15_000.0,
                  help="cycles in the measurement window"),
    ),
    tags=("simulated", "bandwidth", "ablation"),
)
def run_routing_ablation(
    config: Optional[SystemConfig] = None,
    design: str = "split",
    transfer_bytes: int = 2048,
    policies: Sequence[object] = _DEFAULT_POLICIES,
    warmup_cycles: float = 5_000,
    measure_cycles: float = 15_000,
) -> ExperimentResult:
    """Application bandwidth under each on-chip routing policy."""
    config = config if config is not None else SystemConfig.paper_defaults()
    design = NI_DESIGNS.resolve(design)
    policies = tuple(RoutingAlgorithm.coerce(policy) for policy in policies)
    result = ExperimentResult(
        name="Routing ablation",
        description="Application bandwidth (GBps) of %s with %d-byte transfers under "
                    "different on-chip routing policies." % (design, transfer_bytes),
        headers=["Routing", "Application (GBps)", "NOC wire (GBps)", "Max link utilization"],
    )
    for policy in policies:
        bench = RemoteReadBandwidthBenchmark(
            config.with_design(design).with_routing(policy),
            warmup_cycles=warmup_cycles,
            measure_cycles=measure_cycles,
        )
        run = bench.run(transfer_bytes)
        result.add_row(policy.value, run.application_gbps, run.noc_wire_gbps, run.max_link_utilization)
    result.metadata.events["bandwidth_runs"] = len(policies)
    result.add_note("paper: without CDR the peak bandwidth is less than half of the CDR peak")
    return result
