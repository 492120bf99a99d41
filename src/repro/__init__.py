"""repro — a reproduction of "Manycore Network Interfaces for In-Memory
Rack-Scale Computing" (Daglis et al., ISCA 2015).

The package provides a message-level simulator of a 64-core rack-scale SoC
with the three NI designs studied in the paper (NIedge, NIper-tile, NIsplit),
an idealized hardware-NUMA baseline, the analytical latency/bandwidth models
behind the paper's tables and projections, the microbenchmarks of §5 and an
experiment harness that regenerates every table and figure of the evaluation.

Quick start::

    from repro import SystemConfig
    from repro.workloads import RemoteReadLatencyBenchmark

    config = SystemConfig.paper_defaults().with_design("split")
    bench = RemoteReadLatencyBenchmark(config, iterations=5)
    result = bench.run(transfer_bytes=64)
    print(result.mean_ns, "ns")
"""

from repro.version import __version__
from repro.config import (
    SystemConfig,
    RoutingAlgorithm,
    MessageClass,
    CACHE_BLOCK_BYTES,
)
from repro.errors import ReproError

#: Scenario-composition API, re-exported lazily (PEP 562) so that importing
#: ``repro`` stays light and low-level modules can import ``repro.config``
#: without dragging in the full node model.
_LAZY_SCENARIO = ("ScenarioSpec", "MachineBuilder", "Scenario", "ScenarioResult", "Workload")

__all__ = [
    "__version__",
    "SystemConfig",
    "RoutingAlgorithm",
    "MessageClass",
    "CACHE_BLOCK_BYTES",
    "ReproError",
    *_LAZY_SCENARIO,
]


def __getattr__(name: str):
    if name in _LAZY_SCENARIO:
        import repro.scenario

        return getattr(repro.scenario, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
