"""Result-cache behaviour: counters, LRU eviction, epoch invalidation."""

import numpy as np
import pytest

from repro.core.config import RXConfig
from repro.core.rx_index import RXIndex
from repro.serve import IndexService, ResultCache
from repro.workloads import dense_shuffled_keys


def filled(*names):
    """A capacity-3 cache holding ``names`` in insertion order."""
    cache = ResultCache(capacity=3)
    for name in names:
        cache.put((0, "k", name), name)
    return cache


def lru_order(cache):
    """Query names from least to most recently used."""
    return [key[2] for key in cache._entries]


class TestResultCacheUnit:
    def test_hit_miss_counters(self):
        cache = ResultCache(capacity=4)
        key = ResultCache.key_for(0, "k", ("point", b"q"))
        assert cache.get(key) is None
        cache.put(key, "value")
        assert cache.get(key) == "value"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.insertions == 1
        assert cache.stats.hit_rate == 0.5

    def test_capacity_bound_and_eviction(self):
        cache = ResultCache(capacity=3)
        for i in range(5):
            cache.put((0, "k", i), i)
        assert len(cache) == 3
        assert cache.stats.evictions == 2

    def test_least_recently_used_entry_is_evicted(self):
        cache = filled("a", "b", "c")
        cache.put((0, "k", "d"), "d")
        assert lru_order(cache) == ["b", "c", "d"]
        assert cache.stats.evictions == 1

    def test_hit_refreshes_recency(self):
        cache = filled("a", "b", "c")
        assert cache.get((0, "k", "a")) == "a"
        cache.put((0, "k", "d"), "d")  # "b" is now the least recently used
        assert lru_order(cache) == ["c", "a", "d"]

    def test_put_of_present_key_refreshes_without_inserting(self):
        cache = filled("a", "b", "c")
        cache.put((0, "k", "a"), "a")
        assert cache.stats.insertions == 3
        assert lru_order(cache) == ["b", "c", "a"]
        cache.put((0, "k", "d"), "d")
        assert lru_order(cache) == ["c", "a", "d"]

    def test_invalidate_before_drops_older_epochs(self):
        cache = ResultCache(capacity=8)
        for epoch in (0, 0, 1, 2):
            cache.put((epoch, "k", f"q{epoch}-{len(cache)}"), epoch)
        dropped = cache.invalidate_before(2)
        assert dropped == 3
        assert cache.stats.invalidations == 3
        assert all(k[0] >= 2 for k in cache._entries)

    def test_capacity_zero_disables(self):
        cache = ResultCache(capacity=0)
        cache.put((0, "k", "q"), 1)
        assert cache.get((0, "k", "q")) is None
        assert len(cache) == 0
        assert not cache.enabled

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="capacity"):
            ResultCache(capacity=-1)


class TestServiceCaching:
    def make_service(self, cache_capacity=256):
        keys = dense_shuffled_keys(1024, seed=31)
        index = RXIndex(RXConfig.paper_default().with_delta_updates(shard_bits=4))
        index.build(keys)
        return keys, index, IndexService(
            index, max_batch=64, max_wait=10.0, cache_capacity=cache_capacity
        )

    def test_cached_result_is_bit_identical(self):
        keys, index, service = self.make_service()
        queries = keys[:5]
        service.submit_point(queries, arrival=0.0)
        (fresh,) = service.drain()
        assert not fresh.from_cache
        service.submit_point(queries, arrival=1.0)
        (cached,) = service.drain()
        assert cached.from_cache
        assert cached.epoch == fresh.epoch
        assert np.array_equal(cached.result_rows(), fresh.result_rows())
        assert np.array_equal(
            cached.hits_per_lookup(), fresh.hits_per_lookup()
        )
        assert cached.counters.as_dict() == fresh.counters.as_dict()
        stats = service.stats()
        assert stats["cache"]["hits"] == 1
        # The cached request reached no launch at all.
        assert stats["scheduler"]["launches"] == 1

    def test_cache_hit_is_a_new_result_for_its_request(self):
        keys, index, service = self.make_service()
        queries = keys[:5]
        first = service.submit_point(queries, arrival=0.0, deadline=5.0)
        (fresh,) = service.drain()
        second = service.submit_point(queries, arrival=1.0, deadline=7.0)
        (hit,) = service.drain()
        assert hit is not fresh
        assert hit.from_cache
        assert hit.request_id == second.request_id != first.request_id
        assert hit.arrival == 1.0
        assert hit.deadline == 8.0
        # The stored entry is untouched by the hit's re-stamping.
        snapshot = service.epochs.current()
        key = ResultCache.key_for(
            snapshot.epoch,
            service.scheduler.class_of(second, snapshot),
            second.cache_payload(),
        )
        stored = service.cache.get(key)
        assert stored is not hit
        assert not stored.from_cache
        assert stored.request_id == first.request_id
        assert stored.arrival == 0.0
        assert stored.deadline == 5.0
        # The hit shares the entry's read-only hit arrays and counters.
        assert hit.hits is stored.hits
        assert hit.counters is stored.counters

    def test_coalesced_results_own_their_hit_arrays(self):
        """Each demuxed request gets private hit arrays, never views into
        the launch-wide ones: a cached result must not pin a whole launch."""
        keys, index, service = self.make_service()
        for i in range(12):
            service.submit_point(keys[3 * i : 3 * i + 1 + i % 3], arrival=0.0)
        results = service.drain()
        assert service.stats()["scheduler"]["launches"] == 1
        arrays = []
        for result in results:
            hits = result.hits
            assert hits.count > 0
            for arr in (hits.ray_indices, hits.prim_indices, hits.lookup_ids):
                assert arr.flags.owndata
                arrays.append((result.request_id, arr))
        for i, (rid_a, a) in enumerate(arrays):
            for rid_b, b in arrays[i + 1 :]:
                if rid_a != rid_b:
                    assert not np.shares_memory(a, b), (rid_a, rid_b)

    def test_epoch_advance_invalidates(self):
        keys, index, service = self.make_service()
        queries = keys[:5]
        service.submit_point(queries, arrival=0.0)
        (fresh,) = service.drain()
        new_keys = keys.copy()
        new_keys[:256] = new_keys[:256][::-1]
        service.update(new_keys)
        service.submit_point(queries, arrival=1.0)
        (after,) = service.drain()
        assert not after.from_cache, "stale epoch served from cache"
        assert after.epoch == fresh.epoch + 1
        assert service.stats()["cache"]["invalidations"] >= 1
        # The fresh epoch's result must match a reference against new_keys.
        reference = RXIndex(index.config)
        reference.build(new_keys)
        assert np.array_equal(
            after.result_rows(), reference.point_lookup(queries).result_rows
        )

    def test_superseded_epoch_results_never_enter_cache(self):
        """Results computed for a pinned old epoch stay out of the cache,
        so an invalidation sweep cannot be undone."""
        keys, index, service = self.make_service()
        queries = keys[:5]
        service.submit_point(queries, arrival=0.0)  # pins epoch 0
        new_keys = keys.copy()
        new_keys[:128] = new_keys[:128][::-1]
        service.update(new_keys)  # epoch 1
        (old_result,) = service.drain()  # computed against epoch 0
        assert old_result.epoch == 0
        assert service.stats()["cache"]["insertions"] == 0

    def test_range_and_limit_have_distinct_cache_keys(self):
        keys, index, service = self.make_service()
        lo = np.array([int(keys.min())], dtype=np.uint64)
        hi = lo + np.uint64(31)
        service.submit_range(lo, hi, arrival=0.0)
        service.submit_range(lo, hi, limit=2, arrival=0.0)
        unlimited, limited = service.drain()
        assert service.stats()["cache"]["hits"] == 0
        assert unlimited.hits_per_lookup().sum() > limited.hits_per_lookup().sum()
        service.submit_range(lo, hi, limit=2, arrival=1.0)
        (again,) = service.drain()
        assert again.from_cache
        assert np.array_equal(again.result_rows(), limited.result_rows())
