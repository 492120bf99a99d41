"""The ``scenario`` experiment: run any registered scenario composition.

Where the figure/table experiments regenerate fixed paper results, this
experiment exposes the whole registry-backed design space to the campaign
machinery: any registered workload on any messaging NI design and chip
topology, with workload parameters passed as repeated ``key=value`` strings.
Because the parameter choices are enumerated from the registries, sweeps can
range over every registered component::

    repro-experiments run scenario --set workload=hotspot
    repro-experiments sweep scenario --set design=edge,split,per_tile \\
        --set workload=uniform_random,hotspot,rw_mix --parallel 4

A registered third-party workload shows up here automatically once its
module is imported.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.config import SystemConfig
from repro.errors import ExperimentError
from repro.experiments.base import ExperimentResult
from repro.experiments.spec import Parameter, experiment
from repro.scenario.builder import MachineBuilder
from repro.scenario.registry import NI_DESIGNS, TOPOLOGIES, WORKLOADS
from repro.scenario.spec import ScenarioSpec

_TRUE_WORDS = frozenset(("true", "yes", "on"))
_FALSE_WORDS = frozenset(("false", "no", "off"))


def parse_workload_params(assignments: Sequence[str]) -> Dict[str, object]:
    """Parse repeated ``key=value`` strings into typed workload parameters.

    Values are coerced in order int → float → bool-word → string, which
    covers every JSON-native scalar a workload declares in its defaults.
    """
    params: Dict[str, object] = {}
    for assignment in assignments:
        name, separator, text = assignment.partition("=")
        if not separator or not name:
            raise ExperimentError(
                "malformed workload parameter %r (expected key=value)" % assignment
            )
        params[name] = _parse_value(text.strip())
    return params


def _parse_value(text: str) -> object:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    lowered = text.lower()
    if lowered in _TRUE_WORDS:
        return True
    if lowered in _FALSE_WORDS:
        return False
    if lowered == "none":
        return None
    return text


# The scenario axes, shared with the open-loop sweeps (which default the
# workload to kvstore).  Late-bound (callable) choices: components
# registered after this module was imported — e.g. a user plugin — stay
# runnable.
DESIGN = Parameter("design", str, default="split",
                   choices=lambda: NI_DESIGNS.names(messaging=True),
                   help="NI design (from the design registry)")
TOPOLOGY = Parameter("topology", str, default="mesh",
                     choices=lambda: TOPOLOGIES.names(scope="chip"),
                     help="on-chip topology (from the topology registry)")
WORKLOAD = Parameter("workload", str, default="uniform_random",
                     choices=lambda: WORKLOADS.names(),
                     help="workload (from the workload registry)")
WORKLOAD_PARAMS = Parameter("params", str, default=(), repeated=True,
                            help="workload parameter overrides as key=value pairs")


@experiment(
    name="scenario",
    title="Scenario",
    description="Any registered workload on any registered machine composition.",
    parameters=(DESIGN, TOPOLOGY, WORKLOAD, WORKLOAD_PARAMS),
    tags=("simulated", "scenario"),
)
def run_scenario(
    config: Optional[SystemConfig] = None,
    design: str = "split",
    topology: str = "mesh",
    workload: str = "uniform_random",
    params: Sequence[str] = (),
) -> ExperimentResult:
    """Build the scenario with :class:`MachineBuilder`, run it, tabulate metrics."""
    spec = ScenarioSpec(
        design=design,
        topology=topology,
        workload=workload,
        workload_params=parse_workload_params(params),
    )
    scenario_result = MachineBuilder(spec, base_config=config).run()
    result = ExperimentResult(
        name="Scenario %s" % spec.label(),
        description="Workload %r on design %r over the %r topology." % (
            spec.workload, spec.design, spec.topology),
        headers=["Metric", "Value"],
    )
    for metric in sorted(scenario_result.metrics):
        result.add_row(metric, scenario_result.metrics[metric])
    result.add_note("scenario fingerprint: %s" % scenario_result.scenario_fingerprint)
    result.metadata.config_fingerprint = scenario_result.config_fingerprint
    result.metadata.events["scenario_runs"] = 1
    return result
