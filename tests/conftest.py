"""Shared fixtures for the test suite (helpers live in helpers.py)."""

from __future__ import annotations

import pytest

from helpers import small_config
from repro.config import SystemConfig


@pytest.fixture
def paper_config() -> SystemConfig:
    """The full 64-core Table-2 configuration."""
    return SystemConfig.paper_defaults()


@pytest.fixture
def split_config() -> SystemConfig:
    return small_config("split")


@pytest.fixture
def edge_config() -> SystemConfig:
    return small_config("edge")


@pytest.fixture
def per_tile_config() -> SystemConfig:
    return small_config("per_tile")
