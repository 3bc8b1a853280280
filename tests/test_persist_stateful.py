"""Seeded update, save, load and restore sequences against a model column.

A Hypothesis state machine drives one index, a small ``DELTA_SHARD``
forest or a single tree, through random sequences of:

* updates: clustered swaps, rewrites of a few keys, growth and shrinkage
  (with values), new values, and no-ops;
* ``save`` into one store;
* ``RXIndex.load`` (memory-mapped or not) and ``restore_from`` of it.

The model is a NumPy key and value column.  After every step the index's
columns are the model's and its point lookups count the model's matches.
After every save a fresh load through both load paths must answer and
count bit-identically to the live index, and every save runs under the
provenance cross-check of ``tests/conftest.py``.  So a segment the save
reused on provenance but whose state an update changed fails here, in
whatever order the steps came.  The single tree's column is duplicate-free
and its policy REBUILD, so its clustered swaps relabel the tree it built
while a loaded or restored tree builds: after every update its tree must
equal a fresh ``build_bvh``.

The runs are derandomised: ``FAULT_SEED`` (env var, default 0) seeds
Hypothesis and the columns, so tier-1 is deterministic and CI's seeds
draw other sequences.
"""

from __future__ import annotations

import itertools
import os
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    get_state_machine_test,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.config import RXConfig
from repro.core.rx_index import RXIndex
from repro.rtx.bvh import build_bvh, bvh_arrays_diff
from repro.workloads import clustered_key_swaps

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))

SETTINGS = settings(
    max_examples=25,
    stateful_step_count=16,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=list(HealthCheck),
)

#: keys are drawn below this bound
KEY_SPACE = 1 << 20
SEEDS = st.integers(min_value=0, max_value=2**16)


def _answers(index: RXIndex, queries: np.ndarray, lowers: np.ndarray) -> list:
    """Hits, aggregates and traversal counters of point and range lookups."""
    runs = [
        index.point_lookup(queries),
        index.range_lookup(lowers, lowers + np.uint64(64)),
        index.range_lookup(lowers, lowers + np.uint64(64), limit=3),
    ]
    return [
        (run.result_rows.tolist(), run.hits_per_lookup.tolist(), run.aggregate, run.stats)
        for run in runs
    ]


class _Sequences(RuleBasedStateMachine):
    """Update/save/load/restore sequences over one index and its store."""

    config = staticmethod(RXConfig.paper_default)

    def __init__(self, root):
        super().__init__()
        self.root = root
        self.store = root / "store"
        self.index: RXIndex | None = None
        self.keys = self.values = None
        #: the model columns of the store's last committed save
        self.saved: tuple[np.ndarray, np.ndarray] | None = None

    def _rng(self, draw: int) -> np.random.Generator:
        return np.random.default_rng([draw, FAULT_SEED])

    def _update(self, keys: np.ndarray, values: np.ndarray | None = None) -> None:
        self.index.update(keys, values)
        self.keys = keys.copy()
        if values is not None:
            self.values = values.copy()

    def _probes(self) -> tuple[np.ndarray, np.ndarray]:
        misses = np.array([KEY_SPACE + 1, KEY_SPACE + 7], dtype=np.uint64)
        queries = np.concatenate([self.keys[::7], misses])
        return queries, np.sort(self.keys)[::16]

    @initialize(n=st.integers(min_value=96, max_value=384), draw=SEEDS)
    def build(self, n, draw):
        rng = self._rng(draw)
        self.keys = rng.choice(KEY_SPACE, size=n, replace=False).astype(np.uint64)
        self.values = rng.integers(0, 1 << 40, size=n, dtype=np.uint64)
        self.index = RXIndex(self.config())
        self.index.build(self.keys, self.values)

    @rule(count=st.integers(min_value=1, max_value=12), draw=SEEDS)
    def swap_clustered_keys(self, count, draw):
        self._update(clustered_key_swaps(self.keys, count, seed=self._rng(draw)))

    @rule(count=st.integers(min_value=1, max_value=6), draw=SEEDS)
    def rewrite_keys(self, count, draw):
        rng = self._rng(draw)
        keys = self.keys.copy()
        rows = rng.choice(keys.shape[0], size=count, replace=False)
        # Next to an existing key (a clustered change) or a duplicate of one.
        near = keys[rng.choice(keys.shape[0], size=count)] + rng.integers(0, 3, count, np.uint64)
        keys[rows] = np.minimum(near, KEY_SPACE - 1)
        self._update(keys)

    @rule(count=st.integers(min_value=1, max_value=40), draw=SEEDS)
    def grow(self, count, draw):
        rng = self._rng(draw)
        keys = np.concatenate([self.keys, rng.integers(0, KEY_SPACE, count, dtype=np.uint64)])
        values = np.concatenate([self.values, rng.integers(0, 1 << 40, count, dtype=np.uint64)])
        self._update(keys, values)

    @precondition(lambda self: self.keys.shape[0] > 64)
    @rule(count=st.integers(min_value=1, max_value=40))
    def shrink(self, count):
        self._update(self.keys[:-count], self.values[:-count])

    @rule(draw=SEEDS)
    def new_values(self, draw):
        values = self._rng(draw).integers(0, 1 << 40, self.keys.shape[0], dtype=np.uint64)
        self._update(self.keys, values)

    @rule()
    def noop(self):
        self._update(self.keys.copy())

    @rule()
    def save(self):
        self.index.save(self.store)
        self.saved = (self.keys.copy(), self.values.copy())
        queries, lowers = self._probes()
        live = _answers(self.index, queries, lowers)
        for mmap in (True, False):
            assert _answers(RXIndex.load(self.store, mmap=mmap), queries, lowers) == live

    @precondition(lambda self: self.saved is not None)
    @rule(mmap=st.booleans())
    def load(self, mmap):
        self.index = RXIndex.load(self.store, mmap=mmap)
        self.keys, self.values = (column.copy() for column in self.saved)

    @precondition(lambda self: self.saved is not None)
    @rule(mmap=st.booleans())
    def restore(self, mmap):
        self.index.restore_from(self.store, mmap=mmap)
        self.keys, self.values = (column.copy() for column in self.saved)

    @invariant()
    def index_holds_the_model(self):
        assert np.array_equal(self.index.keys, self.keys)
        assert np.array_equal(self.index.values, self.values)
        queries, _ = self._probes()
        run = self.index.point_lookup(queries)
        ordered = np.sort(self.keys)
        counts = np.searchsorted(ordered, queries, "right") - np.searchsorted(ordered, queries)
        assert np.array_equal(run.hits_per_lookup, counts)

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)


class ForestSequences(_Sequences):
    config = staticmethod(lambda: RXConfig.paper_default().with_delta_updates(shard_bits=3))


class SingleTreeSequences(_Sequences):
    def _update(self, keys: np.ndarray, values: np.ndarray | None = None) -> None:
        super()._update(keys, values)
        accel = self.index.accel
        fresh = build_bvh(accel.buffer, self.index.config.bvh_options())
        assert bvh_arrays_diff(accel.bvh, fresh) is None


@pytest.mark.parametrize(
    "machine", [ForestSequences, SingleTreeSequences], ids=["forest", "single"]
)
def test_update_save_load_sequences(tmp_path, machine):
    runs = itertools.count()
    test = get_state_machine_test(
        lambda: machine(tmp_path / f"run-{next(runs)}"), settings=SETTINGS
    )
    seed(FAULT_SEED)(test)()
