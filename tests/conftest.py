"""Shared fixtures and helpers for the test suite.

Hypothesis runs under the ``tier1`` profile by default: derandomized
(the examples are a fixed function of each test) and without an example
database, so every tier-1 run draws the same examples and nothing a
previous run found leaks into the next. ``HYPOTHESIS_PROFILE=nightly``
selects the scheduled CI run's profile: randomized (fresh examples every
night) with a wider default example budget. Per-test ``@settings`` still
override both, so a test that pins ``max_examples`` keeps its count.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.model.job import Instance

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("nightly", max_examples=1000, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def simple_single_proc() -> Instance:
    """Four overlapping must-finish jobs on one processor."""
    return Instance.classical(
        [(0.0, 4.0, 2.0), (1.0, 2.0, 1.5), (2.5, 3.5, 0.8), (0.5, 3.0, 1.0)],
        m=1,
        alpha=3.0,
    )


@pytest.fixture
def simple_multi_proc() -> Instance:
    """Same jobs on two processors."""
    return Instance.classical(
        [(0.0, 4.0, 2.0), (1.0, 2.0, 1.5), (2.5, 3.5, 0.8), (0.5, 3.0, 1.0)],
        m=2,
        alpha=3.0,
    )


@pytest.fixture
def profitable_instance() -> Instance:
    """Small instance with a value spread that forces mixed decisions."""
    return Instance.from_tuples(
        [
            (0.0, 2.0, 1.0, 0.8),
            (0.0, 1.0, 1.0, 5.0),
            (1.0, 3.0, 2.0, 0.2),
            (1.5, 4.0, 0.5, 2.0),
        ],
        m=1,
        alpha=2.0,
    )


def numeric_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of a vector."""
    g = np.zeros_like(x, dtype=float)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] = max(xm[i] - h, 0.0)
        g[i] = (f(xp) - f(xm)) / (xp[i] - xm[i])
    return g
