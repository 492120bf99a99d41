"""Discrete-event simulation substrate.

The kernel is deliberately small: a time-ordered event queue
(:class:`~repro.sim.engine.Simulator`), busy-until resources that model
serialization and queuing on links, ports and pipelines
(:mod:`repro.sim.resource`), and statistics collection with the
windowed-convergence methodology of the paper's §5
(:mod:`repro.sim.stats`).
"""

from repro.sim.engine import Simulator, Process
from repro.sim.resource import Resource, Channel, Pipeline
from repro.sim.stats import (
    StatAccumulator,
    ThroughputMeter,
    WindowedMonitor,
    LatencyHistogram,
    LatencyRecorder,
)

__all__ = [
    "Simulator",
    "Process",
    "Resource",
    "Channel",
    "Pipeline",
    "StatAccumulator",
    "ThroughputMeter",
    "WindowedMonitor",
    "LatencyHistogram",
    "LatencyRecorder",
]
