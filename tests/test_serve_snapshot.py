"""Epoch snapshots under updates racing in-flight batches.

The isolation contract: every batch's results match *exactly one* epoch — a
reference run against the pre-update index or against the post-update index,
never a mix — no matter how submissions and updates interleave.  The tests
drive deterministic interleavings through :class:`repro.serve.IndexService`
and compare each batch bit-for-bit against per-epoch reference indexes.
"""

import os

import numpy as np
import pytest

from repro.core.config import RXConfig, UpdatePolicy
from repro.core.rx_index import RXIndex
from repro.serve import (
    EpochManager,
    FaultInjector,
    FaultSpec,
    IndexService,
    UpdateFailed,
)
from repro.workloads import dense_shuffled_keys

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))


def delta_config():
    return RXConfig.paper_default().with_delta_updates(shard_bits=4)


def epoch_references(config, key_columns):
    """One frozen reference index per epoch's key column."""
    references = []
    for keys in key_columns:
        index = RXIndex(config)
        index.build(keys)
        references.append(index)
    return references


def epoch_of_batch(result, queries, references):
    """Index of the unique epoch whose reference reproduces ``result``."""
    matches = [
        e
        for e, reference in enumerate(references)
        if np.array_equal(
            result.result_rows(), reference.point_lookup(queries).result_rows
        )
    ]
    assert len(matches) >= 1, "batch results match no epoch at all"
    return matches


def shifted(keys, lo, hi):
    out = keys.copy()
    out[lo:hi] = out[lo:hi][::-1]
    return out


class TestRacingUpdates:
    @pytest.mark.parametrize("policy", ["delta", "rebuild"])
    def test_update_racing_inflight_batch_is_isolated(self, policy):
        """Submissions race one update; the open window stays on its epoch."""
        keys0 = dense_shuffled_keys(2048, seed=21)
        keys1 = shifted(keys0, 0, 700)
        config = (
            delta_config()
            if policy == "delta"
            else RXConfig.paper_default()
        )
        references = epoch_references(config, [keys0, keys1])
        # Queries whose rowIDs differ between the epochs, so a mixed batch
        # cannot masquerade as either reference.
        queries = keys0[:64]
        assert not np.array_equal(
            references[0].point_lookup(queries).result_rows,
            references[1].point_lookup(queries).result_rows,
        )

        index = RXIndex(config)
        index.build(keys0)
        service = IndexService(index, max_batch=4096, max_wait=10.0, cache_capacity=0)

        service.submit_point(queries, arrival=0.0)  # window opens on epoch 0
        service.update(keys1)  # racing update -> epoch 1 built on the side
        service.submit_point(queries, arrival=0.1)  # joins the pinned window
        in_flight = service.drain()

        for result in in_flight:
            assert result.epoch == 0
            assert epoch_of_batch(result, queries, references) == [0]

        service.submit_point(queries, arrival=0.2)  # next window
        (after,) = service.drain()
        assert after.epoch == 1
        assert epoch_of_batch(after, queries, references) == [1]

    def test_chained_updates_each_window_matches_one_epoch(self):
        """Three epochs, windows interleaved with updates: every result
        matches exactly its pinned epoch's reference run."""
        keys0 = dense_shuffled_keys(1024, seed=22)
        keys1 = shifted(keys0, 0, 400)
        keys2 = shifted(keys1, 300, 900)
        config = delta_config()
        references = epoch_references(config, [keys0, keys1, keys2])
        queries = keys0[::16]

        index = RXIndex(config)
        index.build(keys0)
        service = IndexService(index, max_batch=4096, max_wait=10.0, cache_capacity=0)

        observed = []
        service.submit_point(queries, arrival=0.0)
        service.update(keys1)
        observed += service.drain()  # pinned to epoch 0
        service.submit_point(queries, arrival=0.1)
        service.update(keys2)
        service.submit_point(queries, arrival=0.2)
        observed += service.drain()  # pinned to epoch 1
        service.submit_point(queries, arrival=0.3)
        observed += service.drain()  # epoch 2

        expected_epochs = [0, 1, 1, 2]
        assert [r.epoch for r in observed] == expected_epochs
        for result, epoch in zip(observed, expected_epochs):
            matched = epoch_of_batch(result, queries, references)
            assert epoch in matched
            # The batch equals its pinned epoch bit-for-bit, including the
            # aggregate over that epoch's value column.
            reference = references[epoch].point_lookup(queries)
            assert np.array_equal(result.result_rows(), reference.result_rows)
            assert np.array_equal(result.hits_per_lookup(), reference.hits_per_lookup)
            snapshot_values = references[epoch].values
            assert result.aggregate(snapshot_values) == reference.aggregate

    def test_window_boundary_repins_current_epoch(self):
        """A flush that leaves requests pending re-pins the *current* epoch
        for the next window."""
        keys0 = dense_shuffled_keys(1024, seed=23)
        keys1 = shifted(keys0, 0, 512)
        config = delta_config()
        references = epoch_references(config, [keys0, keys1])
        queries = keys0[:8]

        index = RXIndex(config)
        index.build(keys0)
        # max_batch of 8 queries: two 8-query requests span two windows.
        service = IndexService(index, max_batch=8, max_wait=10.0, cache_capacity=0)
        service.submit_point(queries, arrival=0.0)
        service.submit_point(queries, arrival=0.1)
        service.update(keys1)
        results = service.drain()
        assert [r.epoch for r in results] == [0, 1]
        assert epoch_of_batch(results[0], queries, references) == [0]
        assert epoch_of_batch(results[1], queries, references) == [1]


class TestCacheEpochIntegrityUnderFaults:
    @pytest.mark.parametrize("trial", range(4))
    def test_cache_never_serves_cross_epoch_under_update_faults(self, trial):
        """Property: no window's result is ever tagged with (or equal to) a
        different epoch than the snapshot that served the window, under a
        random interleaving of submissions and randomly *faulting* updates.

        Each faulted update rolls back (fresh epoch, old content), each
        successful one advances the content — either way the cache sweeps on
        every advance, so a cached result can only be served back to a
        window pinned to the exact epoch it was computed against.
        """
        rng = np.random.default_rng([1201, FAULT_SEED, trial])
        keys = dense_shuffled_keys(1024, seed=27)
        config = delta_config()
        injector = FaultInjector(
            seed=FAULT_SEED + trial,
            specs={"update": FaultSpec(probability=0.5)},
        )
        index = RXIndex(config)
        index.build(keys)
        service = IndexService(
            index,
            max_batch=64,
            max_wait=10.0,
            cache_capacity=128,
            fault_injector=injector,
        )
        # Epoch -> key column, maintained alongside the service's updates.
        columns = {0: keys}
        content = keys
        references = {}
        query_pool = [keys[:16], keys[16:32], keys[:16]]  # repeats hit cache
        queries_of = {}  # request_id -> its query batch

        def check(results):
            for result in results:
                epoch = result.epoch
                assert epoch in columns
                if epoch not in references:
                    ref = RXIndex(config)
                    ref.build(columns[epoch])
                    references[epoch] = ref
                queries = queries_of[result.request_id]
                expected = references[epoch].point_lookup(queries)
                assert np.array_equal(
                    result.result_rows(), expected.result_rows
                ), "cache served a result from a different epoch"

        arrival = 0.0
        for step in range(30):
            action = rng.random()
            if action < 0.3:
                lo = int(rng.integers(0, 512))
                hi = lo + int(rng.integers(64, 512))
                new_keys = shifted(content, lo, hi)
                outcome = service.update(new_keys)
                if isinstance(outcome, UpdateFailed):
                    columns[service.index.epoch - 1] = new_keys
                    columns[service.index.epoch] = content
                else:
                    content = new_keys
                    columns[service.index.epoch] = content
            else:
                queries = query_pool[int(rng.integers(0, len(query_pool)))]
                arrival += 0.01
                request = service.submit_point(queries, arrival=arrival)
                queries_of[request.request_id] = queries
                if rng.random() < 0.7:
                    check(service.drain())
        check(service.drain())


class TestExceptionSafeFlush:
    def test_flush_that_raises_cannot_leak_the_snapshot(self):
        """Bugfix pin discipline: a launch raising mid-flush must release
        the window's snapshot (no permanently pinned dead epoch) and leave
        the service able to serve the next window."""
        keys = dense_shuffled_keys(512, seed=28)
        index = RXIndex(delta_config())
        index.build(keys)
        service = IndexService(index, max_batch=64, max_wait=10.0, cache_capacity=0)
        snapshot = service.epochs.current()

        def boom(window, snap, classes=None):
            raise RuntimeError("mid-flush explosion")

        original = service.scheduler.launch_window
        service.scheduler.launch_window = boom
        service.submit_point(keys[:8], arrival=0.0)
        assert snapshot.pins == 1
        with pytest.raises(RuntimeError, match="mid-flush explosion"):
            service.drain()
        assert snapshot.pins == 0  # released despite the exception

        # The same epoch snapshot serves the next window normally.
        service.scheduler.launch_window = original
        service.submit_point(keys[:8], arrival=0.1)
        (result,) = service.drain()
        assert result.epoch == snapshot.epoch
        with pytest.raises(ValueError, match="released more often"):
            service.epochs.release(snapshot)

    def test_failed_flush_repins_for_requests_beyond_the_window(self):
        """An exception in one window's launch must not orphan the requests
        already queued for the next window."""
        keys = dense_shuffled_keys(512, seed=29)
        index = RXIndex(delta_config())
        index.build(keys)
        service = IndexService(index, max_batch=8, max_wait=10.0, cache_capacity=0)

        calls = {"n": 0}
        original = service.scheduler.launch_window

        def fail_once(window, snap, classes=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("first window fails")
            return original(window, snap, classes)

        service.scheduler.launch_window = fail_once
        service.submit_point(keys[:8], arrival=0.0)  # window 1
        service.submit_point(keys[8:16], arrival=0.1)  # window 2
        with pytest.raises(RuntimeError, match="first window fails"):
            service.drain()
        # The second window was re-pinned and still serves.
        results = service.drain()
        assert len(results) == 1
        assert results[0].num_lookups == 8


class TestEpochManager:
    def test_refit_policy_rejected(self):
        keys = dense_shuffled_keys(256, seed=24)
        index = RXIndex(RXConfig.paper_default().with_updates_enabled())
        index.build(keys)
        assert index.config.update_policy is UpdatePolicy.REFIT
        with pytest.raises(ValueError, match="REBUILD or DELTA_SHARD"):
            EpochManager(index)

    def test_requires_built_index(self):
        with pytest.raises(RuntimeError, match="build"):
            EpochManager(RXIndex(RXConfig.paper_default()))

    def test_pin_release_accounting(self):
        keys = dense_shuffled_keys(256, seed=25)
        index = RXIndex(delta_config())
        index.build(keys)
        manager = EpochManager(index)
        snapshot = manager.pin(manager.current())
        assert snapshot.pins == 1
        manager.release(snapshot)
        assert snapshot.pins == 0
        with pytest.raises(ValueError, match="released more often"):
            manager.release(snapshot)

    def test_advance_notifies_listeners_and_retires(self):
        keys = dense_shuffled_keys(256, seed=26)
        index = RXIndex(delta_config())
        index.build(keys)
        manager = EpochManager(index)
        seen = []
        manager.add_listener(seen.append)
        old = manager.pin(manager.current())
        index.update(shifted(keys, 0, 128))
        new = manager.current()
        assert seen == [new.epoch]
        assert new.epoch == old.epoch + 1
        assert manager.stats.retired == 0  # old epoch still pinned
        manager.release(old)
        assert manager.stats.retired == 1
