"""Workload drivers: the paper's microbenchmarks plus application-level workloads.

All workloads implement the unified :class:`repro.scenario.workload.Workload`
lifecycle (setup / inject / drain / metrics) and are registered by name in
:data:`repro.scenario.registry.WORKLOADS`, so any of them — and any
third-party registration — runs on any machine composition through
:class:`repro.scenario.MachineBuilder`.
"""

from repro.workloads.microbench import (
    LatencyResult,
    BandwidthResult,
    RemoteReadLatencyBenchmark,
    RemoteReadBandwidthBenchmark,
    UniformRandomReadWorkload,
)
from repro.workloads.kvstore import KeyValueStoreWorkload, ZipfKeySampler
from repro.workloads.graphproc import GraphTraversalWorkload, SyntheticPowerLawGraph
from repro.workloads.hotspot import HotspotReadWorkload
from repro.workloads.rwmix import ReadWriteMixWorkload

__all__ = [
    "LatencyResult",
    "BandwidthResult",
    "RemoteReadLatencyBenchmark",
    "RemoteReadBandwidthBenchmark",
    "UniformRandomReadWorkload",
    "KeyValueStoreWorkload",
    "ZipfKeySampler",
    "GraphTraversalWorkload",
    "SyntheticPowerLawGraph",
    "HotspotReadWorkload",
    "ReadWriteMixWorkload",
]
