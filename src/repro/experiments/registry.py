"""Registry of experiment specs.

Importing this module imports every experiment module, which registers its
:class:`~repro.experiments.spec.ExperimentSpec` via the ``@experiment``
decorator; look specs up with :func:`get_spec`, :func:`iter_specs` and
:func:`list_specs`.
"""

from __future__ import annotations

from repro.experiments.spec import ExperimentSpec, get_spec, iter_specs, list_specs

# Importing the experiment modules populates the spec registry.
from repro.experiments import fig5 as _fig5  # noqa: F401
from repro.experiments import open_loop_sweeps as _open_loop_sweeps  # noqa: F401
from repro.experiments import owned_state_ablation as _owned  # noqa: F401
from repro.experiments import routing_ablation as _routing  # noqa: F401
from repro.experiments import scenario_run as _scenario  # noqa: F401
from repro.experiments import table1 as _table1  # noqa: F401
from repro.experiments import table2 as _table2  # noqa: F401
from repro.experiments import table3 as _table3  # noqa: F401
from repro.experiments import transfer_sweeps as _transfer_sweeps  # noqa: F401

__all__ = ["ExperimentSpec", "get_spec", "iter_specs", "list_specs"]
