"""Discrete-event simulation substrate.

The kernel is deliberately small: a time-ordered queue of callbacks
(:class:`~repro.sim.engine.Simulator`) whose run loop checks only the
``until`` horizon per event, busy-until resources that model
serialization and queuing on links, ports and pipelines
(:mod:`repro.sim.resource`), and statistics collection with the
windowed-convergence methodology of the paper's §5
(:mod:`repro.sim.stats`).
"""

from repro.sim.engine import Simulator
from repro.sim.resource import Resource, Channel, Pipeline
from repro.sim.stats import (
    StatAccumulator,
    WindowedMonitor,
    LatencyHistogram,
    LatencyRecorder,
)

__all__ = [
    "Simulator",
    "Resource",
    "Channel",
    "Pipeline",
    "StatAccumulator",
    "WindowedMonitor",
    "LatencyHistogram",
    "LatencyRecorder",
]
