"""Tests for the traditional GPU index baselines (HT, B+, SA)."""

import numpy as np
import pytest

from repro.baselines import (
    GpuBPlusTree,
    MISS_SENTINEL,
    SortedArrayIndex,
    WarpCoreHashTable,
)
from repro.workloads import dense_shuffled_keys, point_lookups
from repro.workloads.table import SecondaryIndexWorkload

ALL_BASELINES = [WarpCoreHashTable, GpuBPlusTree, SortedArrayIndex]


@pytest.mark.parametrize("index_class", ALL_BASELINES)
class TestCommonBehaviour:
    def test_point_lookups_match_reference(self, index_class, small_workload):
        index = index_class()
        index.build(small_workload.keys, small_workload.values)
        run = index.point_lookup(small_workload.point_queries)
        assert run.aggregate == small_workload.reference_point_aggregate()
        assert np.array_equal(run.hits_per_lookup, small_workload.reference_point_hits())

    def test_misses_marked(self, index_class, small_keys):
        index = index_class()
        index.build(small_keys)
        run = index.point_lookup(np.array([10**9], dtype=np.uint64))
        assert run.result_rows[0] == MISS_SENTINEL
        assert run.hit_rate == 0.0

    def test_lookup_before_build_fails(self, index_class):
        with pytest.raises(RuntimeError):
            index_class().point_lookup(np.array([1], dtype=np.uint64))

    def test_memory_footprint_positive_and_scales(self, index_class, small_keys):
        index = index_class()
        index.build(small_keys)
        footprint = index.memory_footprint()
        scaled = index.memory_footprint(target_keys=2**26)
        assert footprint.final_bytes > 0
        assert scaled.final_bytes > footprint.final_bytes

    def test_build_profiles_nonempty(self, index_class, small_keys):
        index = index_class()
        index.build(small_keys)
        profiles = index.build_profiles(target_keys=2**26)
        assert profiles
        assert all(p.bytes_accessed > 0 for p in profiles)

    def test_lookup_profile_threads_scale(self, index_class, small_workload):
        index = index_class()
        index.build(small_workload.keys, small_workload.values)
        run = index.point_lookup(small_workload.point_queries)
        profile = index.lookup_profile(run, target_keys=2**26, target_lookups=2**27)
        assert profile.threads == 2**27
        assert profile.bytes_accessed > 0


#: Inputs a uint64 cast would change: 1.5 to key 1, -1 to 2^64 - 1 (or an
#: OverflowError), True to 1 and "1" to 1.
CAST_CHANGED_KEYS = {
    "float": [1.5, 2.9999, 7.2],
    "negative": [-1],
    "bool": [True],
    "string": ["1"],
}

_INPUT_CALLS = {
    "build": (lambda index, bad: index.build(bad), "keys"),
    "build-values": (lambda index, bad: index.build([5], bad), "values"),
    "point": (lambda index, bad: index.point_lookup(bad), "queries"),
    "range-lowers": (lambda index, bad: index.range_lookup(bad, [5]), "lowers"),
    "range-uppers": (lambda index, bad: index.range_lookup([0], bad), "uppers"),
    "ordered-page": (
        lambda index, bad: index.range_lookup(bad, [5], limit=2, order="key"),
        "lowers",
    ),
}


class TestKeyInputTypes:
    """The baselines take keys by RX's input rule: only keys the uint64 cast
    keeps unchanged; anything else raises naming the argument and changes
    nothing."""

    COLUMN = [0, 1, 2, 7]

    @pytest.mark.parametrize("bad", CAST_CHANGED_KEYS.values(), ids=CAST_CHANGED_KEYS.keys())
    @pytest.mark.parametrize(
        "index_class, call",
        [
            (index_class, call)
            for index_class in ALL_BASELINES
            for call in _INPUT_CALLS
            if index_class.supports_range_lookups or not call.startswith(("range", "ordered"))
        ],
    )
    def test_refused_naming_the_argument(self, index_class, call, bad):
        call, name = _INPUT_CALLS[call]
        index = index_class()
        index.build(self.COLUMN)
        with pytest.raises(ValueError, match=f"^{name} must hold non-negative integers"):
            call(index, bad)
        assert index.keys.tolist() == self.COLUMN
        assert index.point_lookup(self.COLUMN).result_rows.tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("index_class", ALL_BASELINES)
    @pytest.mark.parametrize(
        "form", [lambda v: np.array(v, dtype=np.int64), list], ids=["int64", "int-list"]
    )
    def test_non_negative_integers_answer_as_their_uint64_keys(self, index_class, form):
        keys = [7, 1, 2, 9]
        want, index = index_class(), index_class()
        want.build(np.array(keys, dtype=np.uint64))
        index.build(form(keys), form([4, 3, 2, 1]))
        assert index.keys.dtype == np.uint64 and index.keys.tolist() == keys
        assert index.values.dtype == np.uint64 and index.values.tolist() == [4, 3, 2, 1]
        as_u64 = lambda v: np.array(v, dtype=np.uint64)
        queries = [2, 9, 5]
        assert (
            index.point_lookup(form(queries)).result_rows.tolist()
            == want.point_lookup(as_u64(queries)).result_rows.tolist()
        )
        if not index_class.supports_range_lookups:
            return
        lowers, uppers = [0, 3], [2, 9]
        assert (
            index.range_lookup(form(lowers), form(uppers)).hits_per_lookup.tolist()
            == want.range_lookup(as_u64(lowers), as_u64(uppers)).hits_per_lookup.tolist()
        )
        page, cursor = index.range_lookup(form([0]), form([9]), limit=2, order="key")
        want_page, want_cursor = want.range_lookup(as_u64([0]), as_u64([9]), limit=2, order="key")
        assert page.row_ids.tolist() == want_page.row_ids.tolist() and cursor == want_cursor


class TestRangeLookups:
    @pytest.mark.parametrize("index_class", [GpuBPlusTree, SortedArrayIndex])
    def test_ranges_match_reference(self, index_class, small_workload):
        index = index_class()
        index.build(small_workload.keys, small_workload.values)
        run = index.range_lookup(small_workload.range_lowers, small_workload.range_uppers)
        assert run.aggregate == small_workload.reference_range_aggregate()
        assert np.array_equal(run.hits_per_lookup, small_workload.reference_range_hits())

    def test_hashtable_rejects_ranges(self, small_keys):
        index = WarpCoreHashTable()
        index.build(small_keys)
        assert index.supports_range_lookups is False
        with pytest.raises(NotImplementedError):
            index.range_lookup(np.array([1], dtype=np.uint64), np.array([2], dtype=np.uint64))

    @pytest.mark.parametrize("index_class", [GpuBPlusTree, SortedArrayIndex])
    def test_mismatched_bounds_rejected(self, index_class, small_keys):
        index = index_class()
        index.build(small_keys)
        with pytest.raises(ValueError):
            index.range_lookup(np.array([1], dtype=np.uint64), np.array([2, 3], dtype=np.uint64))

    @pytest.mark.parametrize("index_class", [GpuBPlusTree, SortedArrayIndex])
    def test_limited_ranges_cap_every_lookup(self, index_class, small_workload):
        # LIMIT-k pushdown: the probe stops after `limit` qualifying rows, so
        # the per-lookup counts are the capped reference counts and the
        # aggregate covers exactly the returned rows.
        index = index_class()
        index.build(small_workload.keys, small_workload.values)
        full = small_workload.reference_range_hits()
        lowers, uppers = small_workload.range_lowers, small_workload.range_uppers
        for limit in (1, 3, 100):
            run = index.range_lookup(lowers, uppers, limit=limit)
            assert np.array_equal(run.hits_per_lookup, np.minimum(full, limit))
            assert run.stats["range_limit"] == limit
        unlimited = index.range_lookup(lowers, uppers)
        assert "range_limit" not in unlimited.stats
        assert np.array_equal(unlimited.hits_per_lookup, full)

    @pytest.mark.parametrize("index_class", [GpuBPlusTree, SortedArrayIndex])
    def test_limited_scan_stats_reflect_the_cap(self, index_class, small_workload):
        # The structural stats feed the cost model: a capped scan must not
        # charge for entries it never touched.
        index = index_class()
        index.build(small_workload.keys, small_workload.values)
        lowers, uppers = small_workload.range_lowers, small_workload.range_uppers
        capped = index.range_lookup(lowers, uppers, limit=1)
        unlimited = index.range_lookup(lowers, uppers)
        scanned_key = (
            "leaf_entries_scanned" if index_class is GpuBPlusTree else "entries_scanned"
        )
        assert capped.stats[scanned_key] < unlimited.stats[scanned_key]

    @pytest.mark.parametrize("index_class", [GpuBPlusTree, SortedArrayIndex])
    def test_invalid_limit_rejected(self, index_class, small_keys):
        index = index_class()
        index.build(small_keys)
        with pytest.raises(ValueError, match="at least 1"):
            index.range_lookup(
                np.array([1], dtype=np.uint64), np.array([5], dtype=np.uint64), limit=0
            )


class TestHashTableSpecifics:
    def test_load_factor_respected(self, small_keys):
        index = WarpCoreHashTable(load_factor=0.8)
        result = index.build(small_keys)
        assert result.stats["achieved_load_factor"] <= 0.8 + 1e-6

    def test_duplicates_supported(self):
        keys = np.array([3, 3, 3, 8], dtype=np.uint64)
        index = WarpCoreHashTable()
        index.build(keys)
        run = index.point_lookup(np.array([3], dtype=np.uint64))
        assert run.hits_per_lookup[0] == 3

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            WarpCoreHashTable(load_factor=0.99)
        with pytest.raises(ValueError):
            WarpCoreHashTable(group_size=0)

    def test_higher_load_factor_lengthens_miss_probes(self):
        # Open addressing: the fuller the table, the longer a miss has to
        # probe before it reaches a group with an empty slot.
        keys = dense_shuffled_keys(2048, seed=5)
        misses = np.arange(10_000, 10_512, dtype=np.uint64)
        dense = WarpCoreHashTable(load_factor=0.9)
        dense.build(keys)
        sparse = WarpCoreHashTable(load_factor=0.5)
        sparse.build(keys)
        assert (
            dense.point_lookup(misses).stats["avg_probe_groups"]
            >= sparse.point_lookup(misses).stats["avg_probe_groups"]
        )

    @pytest.mark.parametrize("key_bytes", [4, 8])
    def test_query_for_the_empty_slot_key_misses(self, key_bytes):
        # 2^64 - 1 marks an empty slot; a query for it used to match every
        # empty slot of its probe window.  The other queries' rows, hits and
        # probes stay as without it.
        empty = np.array([2**64 - 1], dtype=np.uint64)
        index = WarpCoreHashTable(key_bytes=key_bytes)
        index.build(np.array([5, 9], dtype=np.uint64))
        alone = index.point_lookup(empty)
        assert alone.hits_per_lookup.tolist() == [0]
        assert alone.result_rows[0] == MISS_SENTINEL
        keys = dense_shuffled_keys(2048, seed=6)
        index.build(keys)
        others = np.concatenate([keys[:64], np.arange(10_000, 10_064, dtype=np.uint64)])
        plain = index.point_lookup(others)
        mixed = index.point_lookup(np.concatenate([empty, others]))
        assert mixed.hits_per_lookup[0] == 0
        assert mixed.result_rows[0] == MISS_SENTINEL
        assert np.array_equal(mixed.hits_per_lookup[1:], plain.hits_per_lookup)
        assert np.array_equal(mixed.result_rows[1:], plain.result_rows)
        assert mixed.aggregate == plain.aggregate
        assert (
            mixed.stats["total_probe_groups"]
            == plain.stats["total_probe_groups"]
            + index.point_lookup(empty).stats["total_probe_groups"]
        )

    @pytest.mark.parametrize("key_bytes", [4, 8])
    def test_empty_slot_key_refused_at_build(self, key_bytes):
        index = WarpCoreHashTable(key_bytes=key_bytes)
        with pytest.raises(ValueError, match="keys"):
            index.build(np.array([5, 9, 2**64 - 1], dtype=np.uint64))
        with pytest.raises(RuntimeError, match="build"):
            index.point_lookup(np.array([5], dtype=np.uint64))

    def test_memory_has_no_build_overhead(self, small_keys):
        index = WarpCoreHashTable()
        index.build(small_keys)
        assert index.memory_footprint().build_overhead_bytes == 0


class TestBPlusTreeSpecifics:
    @pytest.mark.parametrize("n", [5, 16, 17, 255, 1024, 5000])
    def test_descend_matches_leaf_searchsorted(self, n):
        """The batched level-by-level descent is pinned to a plain
        searchsorted on the leaf level (the two are equivalent for the
        implicit bulk-loaded tree)."""
        rng = np.random.default_rng(n)
        keys = np.unique(rng.integers(0, 2**32 - 1, size=2 * n).astype(np.uint64))[:n]
        tree = GpuBPlusTree()
        tree.build(keys)
        queries = np.concatenate(
            [
                keys[rng.integers(0, keys.shape[0], size=200)],
                rng.integers(0, 2**32 - 1, size=200).astype(np.uint64),
                # Domain edges, including the maximum uint64: a query equal
                # to the window padding value must not miscount separators.
                np.array([0, 2**32 - 1, 2**64 - 1], dtype=np.uint64),
            ]
        )
        assert np.array_equal(
            tree._descend(queries),
            np.searchsorted(tree._sorted_keys, queries, side="left"),
        )

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            GpuBPlusTree().build(np.array([1, 1], dtype=np.uint64))
        rng = np.random.default_rng(7)
        column = dense_shuffled_keys(1000, seed=7)
        GpuBPlusTree().build(column)  # duplicate-free: builds
        for dup in (int(column.min()), int(column.max())):
            keys = column.copy()
            # Overwrite some other key with a copy of the smallest/largest.
            keys[np.flatnonzero(keys != dup)[0]] = dup
            rng.shuffle(keys)
            tree = GpuBPlusTree()
            with pytest.raises(ValueError, match="duplicate"):
                tree.build(keys)
            with pytest.raises(RuntimeError, match="build"):
                tree.num_keys  # rejected before any state was stored

    def test_64_bit_keys_rejected(self):
        with pytest.raises(ValueError):
            GpuBPlusTree().build(np.array([2**40], dtype=np.uint64))
        with pytest.raises(ValueError):
            GpuBPlusTree(key_bytes=8)

    def test_height_grows_with_keys(self):
        small = GpuBPlusTree()
        small.build(dense_shuffled_keys(64, seed=1))
        large = GpuBPlusTree()
        large.build(dense_shuffled_keys(4096, seed=1))
        assert large.height > small.height

    def test_range_stats_report_leaf_scans(self, small_workload):
        index = GpuBPlusTree()
        index.build(small_workload.keys, small_workload.values)
        run = index.range_lookup(small_workload.range_lowers, small_workload.range_uppers)
        assert run.stats["leaf_entries_scanned"] > 0

    def test_build_overhead_from_sort(self, small_keys):
        index = GpuBPlusTree()
        index.build(small_keys)
        assert index.memory_footprint().build_overhead_bytes > 0


class TestSortedArraySpecifics:
    def test_zero_structural_overhead(self, small_keys):
        index = SortedArrayIndex()
        index.build(small_keys)
        footprint = index.memory_footprint(target_keys=2**26)
        assert footprint.final_bytes == 2**26 * 8

    def test_binary_search_depth_scales(self):
        shallow = SortedArrayIndex()
        shallow.build(dense_shuffled_keys(64, seed=2))
        deep = SortedArrayIndex()
        deep.build(dense_shuffled_keys(4096, seed=2))
        assert deep.point_lookup(np.array([1], dtype=np.uint64)).stats["binary_search_depth"] > \
            shallow.point_lookup(np.array([1], dtype=np.uint64)).stats["binary_search_depth"]

    def test_serial_depth_in_profile(self, small_workload):
        index = SortedArrayIndex()
        index.build(small_workload.keys, small_workload.values)
        run = index.point_lookup(small_workload.point_queries)
        profile = index.lookup_profile(run, target_keys=2**26, target_lookups=2**27)
        assert profile.serial_depth >= 20  # ~log2(2^26)

    def test_invalid_key_bytes(self):
        with pytest.raises(ValueError):
            SortedArrayIndex(key_bytes=3)
