"""Importable test helpers (kept outside conftest.py).

Test modules import :func:`small_config` from here rather than from
``conftest`` — pytest resolves bare ``conftest`` imports against whichever
conftest.py it imported first (e.g. ``benchmarks/conftest.py`` when both
directories are collected), so conftest must stay fixtures-only.
"""

from __future__ import annotations

import dataclasses
import gc
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
