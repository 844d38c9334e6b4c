"""Shared fixtures: small, seeded instances of every machine environment.

Also :func:`result_digest`, the byte-level equality check the queue and
supervisor tests compare against a serial run (``from conftest import
result_digest``).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.instance import Instance
from repro.generators import (
    class_uniform_ptimes_instance,
    class_uniform_restrictions_instance,
    identical_instance,
    restricted_instance,
    uniform_instance,
    unrelated_instance,
)


@pytest.fixture
def tiny_uniform() -> Instance:
    """A hand-built uniform instance small enough to reason about by hand.

    Two machines (speeds 1 and 2), two classes (setups 4 and 6), five jobs.
    """
    return Instance.uniform(
        job_sizes=[4.0, 6.0, 2.0, 8.0, 5.0],
        setup_sizes=[4.0, 6.0],
        job_classes=[0, 0, 1, 1, 1],
        speeds=[1.0, 2.0],
        name="tiny-uniform",
    )


@pytest.fixture
def tiny_unrelated() -> Instance:
    """A hand-built unrelated instance with one ineligible pair."""
    processing = np.array([
        [2.0, 5.0, 4.0, np.inf],
        [3.0, 2.0, 6.0, 1.0],
    ])
    setups = np.array([
        [1.0, 2.0],
        [2.0, 1.0],
    ])
    return Instance.unrelated(processing, setups, job_classes=[0, 0, 1, 1],
                              name="tiny-unrelated")


@pytest.fixture
def small_uniform() -> Instance:
    return uniform_instance(18, 3, 4, seed=101, integral=True, speed_spread=4.0)


@pytest.fixture
def small_identical() -> Instance:
    return identical_instance(15, 3, 4, seed=102, integral=True)


@pytest.fixture
def small_unrelated() -> Instance:
    return unrelated_instance(16, 4, 4, seed=103)


@pytest.fixture
def small_restricted() -> Instance:
    return restricted_instance(16, 4, 4, seed=104, min_eligible=2)


@pytest.fixture
def small_cu_restrictions() -> Instance:
    return class_uniform_restrictions_instance(18, 4, 5, seed=105,
                                               min_eligible=2, max_eligible=3)


@pytest.fixture
def small_cu_ptimes() -> Instance:
    return class_uniform_ptimes_instance(18, 4, 5, seed=106)


def result_digest(results) -> str:
    """SHA-256 over the canonical content of a result list.

    Hashes everything a scheduling answer *is* — algorithm name, makespan,
    guarantee, and the full job-to-machine assignment — and nothing that
    merely describes how it was produced (wall times, meta diagnostics),
    so two backends computing the same tasks must collide exactly.
    """
    h = hashlib.sha256()
    for result in results:
        h.update(result.name.encode())
        h.update(repr(result.makespan).encode())
        h.update(repr(result.guarantee).encode())
        arr = np.ascontiguousarray(result.schedule.assignment)
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())
    return h.hexdigest()
