"""Importable test helpers (kept outside conftest.py).

Test modules import :func:`small_config` from here rather than from
``conftest``: pytest resolves a bare ``conftest`` import against whichever
conftest.py it imported first, so conftest stays fixtures-only.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib.util
import os
from typing import Callable

from repro.config import SystemConfig


def small_config(design: str = "split", **overrides) -> SystemConfig:
    """A 16-core (4x4) configuration that keeps integration tests fast.

    All latency calibration constants are identical to the paper
    configuration; only the chip size shrinks.
    """
    base = SystemConfig.paper_defaults()
    config = base.replace(cores=dataclasses.replace(base.cores, count=16)).with_design(design)
    if overrides:
        config = config.replace(**overrides)
    return config


def cyclic_garbage(run: Callable[[], object]) -> int:
    """Objects that only a cyclic collection frees once ``run()`` has returned.

    The collector is off while ``run`` executes, so whatever reference
    counting did not free is still there to count; ``run``'s result is
    dropped before counting.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def load_tool(name: str):
    """Import the script ``tools/<name>.py`` as a module."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tools", name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
