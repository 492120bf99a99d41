"""Experiment harness: the tables and figures of the paper's evaluation.

Every experiment is declared as an
:class:`~repro.experiments.spec.ExperimentSpec` (typed parameters, defaults,
choices) via the :func:`~repro.experiments.spec.experiment` decorator and
returns an :class:`~repro.experiments.base.ExperimentResult` — a structured,
JSON/CSV-serializable record whose rows mirror the series the paper
reports.  ``repro-experiments`` (the CLI), :mod:`repro.campaign` (parallel
parameter sweeps) and the tier-1 paper-shape tests drive them.
"""

from repro.experiments.base import ExperimentResult, ResultMetadata, load_result
from repro.experiments.spec import ExperimentSpec, Parameter, experiment
from repro.experiments.registry import get_spec, iter_specs, list_specs
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.fig5 import run_fig5
from repro.experiments.transfer_sweeps import run_fig6, run_fig7, run_fig9, run_fig10
from repro.experiments.routing_ablation import run_routing_ablation
from repro.experiments.owned_state_ablation import run_owned_state_ablation

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "Parameter",
    "ResultMetadata",
    "experiment",
    "get_spec",
    "iter_specs",
    "list_specs",
    "load_result",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig9",
    "run_fig10",
    "run_routing_ablation",
    "run_owned_state_ablation",
]
