"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-fingerprint",
        action="store_true",
        default=False,
        help="rewrite tests/experiments/fingerprint.json from this tree's results",
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator; one fresh instance per test."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session", autouse=True)
def _isolated_dataset_cache(tmp_path_factory):
    """Point the persistent dataset cache at a per-session scratch directory.

    Keeps the suite hermetic (no reads/writes of ``~/.cache/repro``) while
    still exercising the disk layer; individual tests override the directory
    again when they need a private cache.
    """
    from repro.data import registry

    registry.set_cache_dir(tmp_path_factory.mktemp("dataset-cache"))
    yield
    registry.set_cache_dir(None)
