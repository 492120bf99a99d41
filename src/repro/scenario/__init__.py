"""repro.scenario — pluggable machine/workload composition.

This subsystem makes every axis of the paper's design space a first-class,
registry-backed extension point:

* **Component registries** (:mod:`repro.scenario.registry`) — NI designs,
  topologies, workloads, open-loop arrival processes and fault models
  register themselves by name with decorators
  (``@register_ni_design("edge")``, ``@register_topology("mesh")``,
  ``@register_workload("uniform_random")``,
  ``@register_arrival_process("poisson")``,
  ``@register_fault_model("link_down")``).  The machine builders, the CLI
  (``repro-experiments list --designs/--topologies/--workloads/--arrivals/
  --faults``) and the experiment layer all enumerate and resolve components
  through these registries, so a new design/topology/workload/arrival
  process/fault model never requires editing core modules.
* **Declarative specs** (:mod:`repro.scenario.spec`) — a
  :class:`ScenarioSpec` names a design + topology + workload (+ parameter
  and config overrides), round-trips through JSON and carries a stable
  content fingerprint.
* **MachineBuilder** (:mod:`repro.scenario.builder`) — resolves a spec into
  a ready-to-run :class:`Scenario` and runs the unified workload lifecycle
  (setup / inject / drain / metrics) defined in
  :mod:`repro.scenario.workload`.

Registering and running a custom workload takes about twenty lines; see
the "Composing scenarios" section of the README.
"""

from repro.scenario.registry import (
    ARRIVALS,
    FAULT_MODELS,
    NI_DESIGNS,
    TOPOLOGIES,
    WORKLOADS,
    ComponentRegistry,
    RegistryEntry,
    register_arrival_process,
    register_fault_model,
    register_ni_design,
    register_topology,
    register_workload,
)
from repro.scenario.workload import Workload

#: Names resolved lazily (PEP 562): the builder imports the full node model,
#: which itself registers components through this package — importing it
#: eagerly here would make registration decorators in low-level modules
#: (e.g. core/placement.py) circular.
_LAZY = {
    "ScenarioSpec": "repro.scenario.spec",
    "MachineBuilder": "repro.scenario.builder",
    "Scenario": "repro.scenario.builder",
    "ScenarioResult": "repro.scenario.builder",
}

__all__ = [
    "ComponentRegistry",
    "RegistryEntry",
    "ARRIVALS",
    "FAULT_MODELS",
    "NI_DESIGNS",
    "TOPOLOGIES",
    "WORKLOADS",
    "register_arrival_process",
    "register_fault_model",
    "register_ni_design",
    "register_topology",
    "register_workload",
    "Workload",
    "ScenarioSpec",
    "MachineBuilder",
    "Scenario",
    "ScenarioResult",
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    import importlib

    return getattr(importlib.import_module(module_name), name)
