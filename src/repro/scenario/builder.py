"""Resolving a :class:`ScenarioSpec` into a ready-to-run simulation.

:class:`MachineBuilder` is the single construction path for simulated
machines: it resolves the spec's design/topology/override names through the
component registries, derives the :class:`~repro.config.SystemConfig`,
builds the machine (a :class:`~repro.node.soc.ManycoreSoc` for the QP-based
designs, a :class:`~repro.numa.machine.NumaMachine` for the load/store
baseline) and instantiates the workload with its validated parameters.
The returned :class:`Scenario` runs the unified workload lifecycle
(setup / inject / drain / metrics) and reports a fingerprint-stamped
:class:`ScenarioResult`; :meth:`MachineBuilder.run` builds, runs and closes
the machine in one step::

    spec = ScenarioSpec(design="split", workload="hotspot")
    result = MachineBuilder(spec).run()
    print(result.metrics["application_gbps"])
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Union

from repro.config import SystemConfig
from repro.errors import ScenarioError
from repro.node.soc import ManycoreSoc
from repro.numa.machine import NumaMachine
from repro.scenario.registry import NI_DESIGNS, WORKLOADS
from repro.scenario.spec import ScenarioSpec, _jsonable
from repro.scenario.workload import Workload


@dataclass
class ScenarioResult:
    """Metrics and identity of one finished scenario run."""

    spec: Dict[str, object]
    scenario_fingerprint: str
    config_fingerprint: str
    metrics: Dict[str, object] = field(default_factory=dict)
    wall_time_s: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": dict(self.spec),
            "scenario_fingerprint": self.scenario_fingerprint,
            "config_fingerprint": self.config_fingerprint,
            "metrics": dict(self.metrics),
            "wall_time_s": self.wall_time_s,
        }


class Scenario:
    """A built machine plus a workload, ready to run."""

    def __init__(self, spec: ScenarioSpec, config: SystemConfig,
                 machine: ManycoreSoc, workload: Workload) -> None:
        self.spec = spec
        self.config = config
        self.machine = machine
        self.workload = workload

    def run(self) -> ScenarioResult:
        """Run the workload lifecycle to completion and report metrics.

        The machine stays open: whoever built it closes it.
        """
        started = time.perf_counter()
        metrics = self.workload.run_on(self.machine)
        return ScenarioResult(
            spec=self.spec.to_dict(),
            scenario_fingerprint=self.spec.fingerprint(),
            config_fingerprint=self.config.fingerprint(),
            metrics=_jsonable(metrics),
            wall_time_s=time.perf_counter() - started,
        )


class MachineBuilder:
    """Builds machines and workloads from declarative scenario specs."""

    def __init__(self, spec: Union[ScenarioSpec, Mapping[str, object]],
                 base_config: Optional[SystemConfig] = None) -> None:
        if isinstance(spec, Mapping):
            spec = ScenarioSpec.from_dict(spec)
        if not isinstance(spec, ScenarioSpec):
            raise ScenarioError("MachineBuilder needs a ScenarioSpec or dict, got %r" % (spec,))
        self.spec = spec
        self.base_config = base_config

    # ------------------------------------------------------------------
    # Stages (each usable on its own)
    # ------------------------------------------------------------------
    def resolve_config(self) -> SystemConfig:
        """The fully-resolved :class:`SystemConfig` for this scenario."""
        return self.spec.resolve_config(self.base_config)

    def build_machine(self, config: Optional[SystemConfig] = None):
        """Build the machine for the spec's design (not yet carrying traffic).

        QP-based designs yield a :class:`ManycoreSoc`; the ``numa`` baseline
        yields a :class:`NumaMachine` (analytical + single-block simulation).
        """
        config = config if config is not None else self.resolve_config()
        entry = NI_DESIGNS.entry(self.spec.design)
        if not entry.metadata.get("messaging", True):
            return NumaMachine(config)
        return ManycoreSoc(config)

    def build_workload(self, config: Optional[SystemConfig] = None) -> Workload:
        """Instantiate the spec's workload with validated parameters."""
        config = config if config is not None else self.resolve_config()
        workload_cls = WORKLOADS.get(self.spec.workload)
        return workload_cls.from_params(config=config, **self.spec.workload_params)

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def build(self) -> Scenario:
        """Resolve the spec into a :class:`Scenario` ready to ``run()``."""
        entry = NI_DESIGNS.entry(self.spec.design)
        if not entry.metadata.get("messaging", True):
            raise ScenarioError(
                "NI design %r has no QP pipelines and cannot carry workloads; "
                "messaging designs: %s"
                % (self.spec.design, ", ".join(NI_DESIGNS.names(messaging=True)))
            )
        config = self.resolve_config()
        machine = self.build_machine(config)
        workload = self.build_workload(config)
        return Scenario(self.spec, config, machine, workload)

    def run(self) -> ScenarioResult:
        """Build, run and close the machine in one step."""
        scenario = self.build()
        try:
            return scenario.run()
        finally:
            scenario.machine.close()
