"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.rtx import traversal
from repro.workloads import dense_shuffled_keys, point_lookups, range_lookups
from repro.workloads.table import SecondaryIndexWorkload


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def frontier_block(monkeypatch):
    """``set_block(block)`` runs the rest of the test's traces with
    ``FRONTIER_BLOCK = block``; ``None`` keeps the module's own block."""

    def set_block(block: int | None) -> None:
        if block is not None:
            monkeypatch.setattr(traversal, "FRONTIER_BLOCK", block)

    return set_block


@pytest.fixture
def small_keys() -> np.ndarray:
    """A dense, shuffled key column of 512 keys."""
    return dense_shuffled_keys(512, seed=7)


@pytest.fixture
def small_workload(small_keys) -> SecondaryIndexWorkload:
    """Key column + value column + 256 point lookups + 32 range lookups."""
    queries = point_lookups(small_keys, 256, seed=8)
    lowers, uppers = range_lookups(small_keys, 32, span=8, seed=9)
    return SecondaryIndexWorkload.from_keys(
        small_keys,
        point_queries=queries,
        range_lowers=lowers,
        range_uppers=uppers,
    )


@pytest.fixture
def sparse_workload() -> SecondaryIndexWorkload:
    """Sparse 32-bit keys (as in Section 4 of the paper) with point lookups."""
    from repro.workloads import sparse_uniform_keys

    keys = sparse_uniform_keys(512, key_bits=32, seed=11)
    queries = point_lookups(keys, 256, seed=12)
    return SecondaryIndexWorkload.from_keys(keys, point_queries=queries)
