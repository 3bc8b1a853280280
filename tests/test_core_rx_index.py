"""Tests for the RX index itself."""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.baselines.base import MISS_SENTINEL
from repro.core import (
    KeyDecomposition,
    KeyMode,
    PointRayMode,
    PrimitiveType,
    RangeRayMode,
    RXConfig,
    RXIndex,
    UpdatePolicy,
)
from repro.core.results import collect_row_ids
from repro.workloads import dense_shuffled_keys, point_lookups
from repro.workloads.table import SecondaryIndexWorkload
from repro.workloads.updates import swap_adjacent_keys, swap_adjacent_positions


class TestBuild:
    def test_build_reports_structure(self, small_workload):
        index = RXIndex()
        result = index.build(small_workload.keys, small_workload.values)
        assert result.num_keys == small_workload.num_keys
        assert result.stats["bvh_nodes"] > 0
        assert result.stats["compacted"] is True

    def test_lookup_before_build_fails(self):
        with pytest.raises(RuntimeError):
            RXIndex().point_lookup(np.array([1], dtype=np.uint64))

    def test_update_before_build_fails(self):
        with pytest.raises(RuntimeError):
            RXIndex().update(np.array([1], dtype=np.uint64))

    def test_naive_mode_rejects_large_keys(self):
        index = RXIndex(RXConfig(key_mode=KeyMode.NAIVE))
        with pytest.raises(ValueError):
            index.build(np.array([2**24], dtype=np.uint64))

    def test_empty_key_array_rejected(self):
        with pytest.raises(ValueError):
            RXIndex().build(np.array([], dtype=np.uint64))


class TestPointLookups:
    def test_results_match_reference(self, small_workload):
        index = RXIndex()
        index.build(small_workload.keys, small_workload.values)
        run = index.point_lookup(small_workload.point_queries)
        assert run.aggregate == small_workload.reference_point_aggregate()
        assert np.array_equal(run.hits_per_lookup, small_workload.reference_point_hits())

    def test_misses_marked_with_sentinel(self, small_keys):
        index = RXIndex()
        index.build(small_keys)
        run = index.point_lookup(np.array([10**9, int(small_keys[0])], dtype=np.uint64))
        assert run.result_rows[0] == MISS_SENTINEL
        assert small_keys[int(run.result_rows[1])] == small_keys[0]

    def test_duplicate_keys_return_all_rows(self):
        keys = np.array([7, 7, 7, 9], dtype=np.uint64)
        index = RXIndex()
        index.build(keys)
        run = index.point_lookup(np.array([7], dtype=np.uint64))
        assert run.hits_per_lookup[0] == 3

    def test_point_launch_collects_every_matching_row(self):
        keys = np.array([4, 4, 8], dtype=np.uint64)
        index = RXIndex()
        index.build(keys)
        queries = np.array([4, 8, 5], dtype=np.uint64)
        rays = index.codec.point_ray_batch(queries, index.config.point_ray_mode)
        launch = index.pipeline.launch(rays, num_lookups=queries.size)
        matches = collect_row_ids(launch.hits, queries.size)
        assert sorted(matches[0].tolist()) == [0, 1]
        assert matches[1].tolist() == [2]
        assert matches[2].size == 0

    def test_stats_populated(self, small_workload):
        index = RXIndex()
        index.build(small_workload.keys, small_workload.values)
        run = index.point_lookup(small_workload.point_queries)
        assert run.stats["node_visits_per_ray"] > 0
        assert run.stats["rays_per_lookup"] == pytest.approx(1.0)

    def test_stats_trace_counters_describe_the_last_launch(self, small_workload):
        index = RXIndex()
        index.build(small_workload.keys, small_workload.values)
        pipeline = index.pipeline
        first = pipeline.launch(
            index.codec.point_ray_batch(small_workload.point_queries, index.config.point_ray_mode)
        )
        second = pipeline.launch(
            index.codec.range_ray_batch(
                small_workload.range_lowers,
                small_workload.range_uppers,
                index.config.range_ray_mode,
            )
        )
        assert index.stats()["trace_counters"] == second.counters.as_dict()
        assert (first.counters.rays, second.counters.rays) == (256, second.num_rays)

    @pytest.mark.parametrize("mode", list(PointRayMode))
    def test_every_point_ray_mode_is_correct(self, small_workload, mode):
        index = RXIndex(RXConfig(point_ray_mode=mode))
        index.build(small_workload.keys, small_workload.values)
        run = index.point_lookup(small_workload.point_queries)
        assert run.aggregate == small_workload.reference_point_aggregate()

    @pytest.mark.parametrize("primitive", list(PrimitiveType))
    def test_every_primitive_type_is_correct(self, small_workload, primitive):
        index = RXIndex(RXConfig(primitive=primitive))
        index.build(small_workload.keys, small_workload.values)
        run = index.point_lookup(small_workload.point_queries)
        assert run.aggregate == small_workload.reference_point_aggregate()

    def test_64_bit_keys(self):
        keys = dense_shuffled_keys(256) + np.uint64(1 << 45)
        queries = point_lookups(keys, 64, seed=2)
        workload = SecondaryIndexWorkload.from_keys(keys, point_queries=queries)
        index = RXIndex()
        index.build(workload.keys, workload.values)
        run = index.point_lookup(queries)
        assert run.aggregate == workload.reference_point_aggregate()


def _accepted_configs() -> list:
    """Every key mode × primitive × point-ray mode × range-ray mode
    combination that ``RXConfig.validate()`` accepts."""
    params = []
    for modes in itertools.product(KeyMode, PrimitiveType, PointRayMode, RangeRayMode):
        key_mode, primitive, point_mode, range_mode = modes
        config = RXConfig(
            key_mode=key_mode,
            primitive=primitive,
            point_ray_mode=point_mode,
            range_ray_mode=range_mode,
        )
        try:
            config.validate()
        except ValueError:
            continue
        params.append(pytest.param(config, id="-".join(m.value for m in modes)))
    return params


ACCEPTED_CONFIGS = _accepted_configs()


class TestEveryAcceptedConfiguration:
    """Point and range rows equal a NumPy oracle under every configuration
    ``validate()`` accepts.

    The keys straddle 2^22, where Extended Mode's coordinates cross a
    float32 binade: there the gap below a key is half as wide as the gap
    above it.
    """

    def test_grid_is_complete(self):
        # 3 key modes × 3 primitives × 3 point-ray × 2 range-ray modes, minus
        # Extended Mode's spheres (6) and offset ray origins (8).
        assert len(ACCEPTED_CONFIGS) == 54 - 6 - 8

    @pytest.mark.parametrize("config", ACCEPTED_CONFIGS)
    def test_rows_match_numpy(self, config):
        rng = np.random.default_rng(17)
        keys = np.uint64(2**22 - 1024) + rng.permutation(2048).astype(np.uint64)
        index = RXIndex(config)
        index.build(keys)

        row_of = {int(key): row for row, key in enumerate(keys)}
        queries = np.concatenate(
            [
                keys[rng.integers(0, keys.size, size=192)],
                np.array([2**22 - 1025, 2**22 + 1024, 7], dtype=np.uint64),
            ]
        )
        want = [[row_of[q]] if q in row_of else [] for q in queries.tolist()]
        rays = index.codec.point_ray_batch(queries, config.point_ray_mode)
        launch = index.pipeline.launch(rays, num_lookups=queries.size)
        got = collect_row_ids(launch.hits, queries.size)
        assert [sorted(rows.tolist()) for rows in got] == want
        run = index.point_lookup(queries)
        assert run.hits_per_lookup.tolist() == [len(rows) for rows in want]
        assert run.result_rows.tolist() == [
            rows[0] if rows else int(MISS_SENTINEL) for rows in want
        ]

        lowers = rng.integers(2**22 - 1040, 2**22 + 1040, size=48).astype(np.uint64)
        uppers = lowers + rng.integers(0, 64, size=48).astype(np.uint64)
        want = [
            np.flatnonzero((keys >= lo) & (keys <= hi)).tolist()
            for lo, hi in zip(lowers, uppers)
        ]
        rays = index.codec.range_ray_batch(
            lowers, uppers, config.range_ray_mode, config.max_rays_per_range
        )
        launch = index.pipeline.launch(rays, num_lookups=lowers.size)
        got = collect_row_ids(launch.hits, lowers.size)
        assert [sorted(rows.tolist()) for rows in got] == want
        run = index.range_lookup(lowers, uppers)
        assert run.hits_per_lookup.tolist() == [len(rows) for rows in want]


class TestPrimitiveResidency:
    """Index triangles are held as their anchor points: no vertex array, and
    no float64 intersection pack built by the first queries.  Spheres and
    AABBs hold their centres or corners, plus the float64 pack their first
    query builds."""

    @pytest.mark.parametrize(
        "key_mode, bytes_per_key", [(KeyMode.THREE_D, 12), (KeyMode.EXTENDED, 16)]
    )
    def test_resident_bytes_after_build_queries_and_load(
        self, tmp_path, key_mode, bytes_per_key
    ):
        keys = dense_shuffled_keys(4096, seed=3)
        config = RXConfig(key_mode=key_mode, range_ray_mode=RangeRayMode.PARALLEL_FROM_ZERO)
        index = RXIndex(config)
        index.build(keys)
        want = bytes_per_key * keys.size
        assert index.stats()["primitive_resident_bytes"] == want
        index.point_lookup(keys[:64])
        index.range_lookup(keys[:8], keys[:8] + np.uint64(16))
        index.range_lookup(keys[:1], keys[:1] + np.uint64(64), limit=4, order="key")
        assert index.stats()["primitive_resident_bytes"] == want
        index.save(tmp_path)
        loaded = RXIndex.load(tmp_path)
        assert loaded.stats()["primitive_resident_bytes"] == want
        loaded.point_lookup(keys[:64])
        assert loaded.stats()["primitive_resident_bytes"] == want

    @pytest.mark.parametrize(
        "primitive, stored_per_key, pack_per_key",
        [(PrimitiveType.SPHERE, 12, 24), (PrimitiveType.AABB, 24, 48)],
    )
    def test_sphere_and_aabb_resident_bytes_after_build_queries_and_load(
        self, tmp_path, primitive, stored_per_key, pack_per_key
    ):
        keys = dense_shuffled_keys(4096, seed=3)
        stored = stored_per_key * keys.size
        warm = (stored_per_key + pack_per_key) * keys.size
        index = RXIndex(RXConfig(primitive=primitive))
        index.build(keys)
        assert index.stats()["primitive_resident_bytes"] == stored
        index.point_lookup(keys[:64])
        assert index.stats()["primitive_resident_bytes"] == warm
        index.save(tmp_path)
        loaded = RXIndex.load(tmp_path)
        assert loaded.stats()["primitive_resident_bytes"] == stored
        loaded.point_lookup(keys[:64])
        assert loaded.stats()["primitive_resident_bytes"] == warm

    def test_first_lookup_after_cold_load_stays_below_a_pack(self, tmp_path):
        n = 1 << 16
        keys = dense_shuffled_keys(n, seed=5)
        index = RXIndex()
        index.build(keys)
        index.save(tmp_path)
        loaded = RXIndex.load(tmp_path)
        tracemalloc.start()
        try:
            loaded.point_lookup(keys[:64])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A nine-array float64 intersection pack alone is 72 B/key.
        assert peak < 72 * n


class TestPointTraceMode:
    """Point lookups trace ``first_k`` with a budget of one hit on a
    duplicate-free column (each ray ends at its first hit, the hardware
    any-hit termination) and report every match otherwise."""

    @staticmethod
    def _all_hits_run(index, queries):
        """The same point lookups traced in all-hits mode."""
        rays = index.codec.point_ray_batch(queries, index.config.point_ray_mode)
        launch = index.pipeline.launch(rays, num_lookups=queries.shape[0])
        return index._run_to_lookup(launch, queries.shape[0], kind="point")

    def test_auto_uses_any_hit_on_unique_keys(self, small_workload):
        index = RXIndex()
        index.build(small_workload.keys, small_workload.values)
        run = index.point_lookup(small_workload.point_queries)
        assert run.stats["trace_mode"] == "first_k"
        assert index.point_limit() == 1
        assert run.aggregate == small_workload.reference_point_aggregate()
        assert np.array_equal(run.hits_per_lookup, small_workload.reference_point_hits())

    def test_auto_falls_back_on_duplicate_keys(self):
        keys = np.array([7, 7, 7, 9, 12], dtype=np.uint64)
        index = RXIndex()
        index.build(keys)
        run = index.point_lookup(np.array([7, 9], dtype=np.uint64))
        assert run.stats["trace_mode"] == "all"
        assert run.hits_per_lookup.tolist() == [3, 1]

    def test_forced_any_hit_matches_all_mode_on_unique_keys(self, small_workload):
        index = RXIndex()
        index.build(small_workload.keys, small_workload.values)
        run_any = index.point_lookup(small_workload.point_queries)
        run_all = self._all_hits_run(index, small_workload.point_queries)
        assert run_any.stats["trace_mode"] == "first_k"
        assert np.array_equal(run_any.result_rows, run_all.result_rows)
        assert np.array_equal(run_any.hits_per_lookup, run_all.hits_per_lookup)
        assert run_any.aggregate == run_all.aggregate
        # Early exit never does more traversal work.
        assert run_any.stats["total_node_visits"] <= run_all.stats["total_node_visits"]
        assert run_any.stats["total_prim_tests"] <= run_all.stats["total_prim_tests"]

    def test_any_hit_reduces_counters_for_from_zero_rays(self):
        # Irregular spacing + from-zero parallel rays: the workload the
        # hardware any-hit termination exists for.
        rng = np.random.default_rng(5)
        keys = np.unique(np.cumsum(rng.integers(1, 9, size=600)).astype(np.uint64))
        queries = point_lookups(keys, 256, seed=6)
        index = RXIndex(
            RXConfig(
                key_mode=KeyMode.NAIVE,
                point_ray_mode=PointRayMode.PARALLEL_FROM_ZERO,
            )
        )
        index.build(keys)
        runs = {
            "any_hit": index.point_lookup(queries),
            "all": self._all_hits_run(index, queries),
        }
        assert runs["any_hit"].stats["trace_mode"] == "first_k"
        assert np.array_equal(
            runs["any_hit"].result_rows, runs["all"].result_rows
        )
        assert (
            runs["any_hit"].stats["total_node_visits"]
            < runs["all"].stats["total_node_visits"]
        )
        assert (
            runs["any_hit"].stats["total_prim_tests"]
            < runs["all"].stats["total_prim_tests"]
        )

    def test_refit_update_rechecks_uniqueness(self, small_keys):
        index = RXIndex(RXConfig.paper_default().with_updates_enabled())
        index.build(small_keys)
        assert index.point_limit() == 1
        index.update(swap_adjacent_keys(small_keys, num_swaps=16))
        assert index.point_limit() == 1

    @staticmethod
    def _column(case, rng):
        base = rng.permutation(np.arange(10, 400, dtype=np.uint64))
        if case == "dup-at-min":
            return rng.permutation(np.append(base, base.min()))
        if case == "dup-at-max":
            return rng.permutation(np.append(base, base.max()))
        if case == "all-equal":
            return np.full(64, 42, dtype=np.uint64)
        if case == "one-key":
            return np.array([123], dtype=np.uint64)
        # "random": wide draws are mostly unique, narrow ones mostly not.
        size = int(rng.integers(2, 300))
        high = int(rng.choice([size // 2 + 1, size, 1 << 40]))
        return rng.integers(0, high, size=size, dtype=np.uint64)

    @pytest.mark.parametrize(
        "case, seed",
        [("dup-at-min", 0), ("dup-at-max", 0), ("all-equal", 0), ("one-key", 0)]
        + [("random", seed) for seed in range(8)],
    )
    def test_resolved_mode_matches_unique_oracle(self, case, seed):
        keys = self._column(case, np.random.default_rng([seed, 41]))
        index = RXIndex()
        index.build(keys)
        expected = 1 if np.unique(keys).size == keys.size else None
        assert index.point_limit() == expected

    def test_delta_shard_update_adding_a_duplicate_flips_to_all(self):
        keys = np.random.default_rng(11).permutation(np.arange(1024, dtype=np.uint64))
        config = RXConfig.paper_default()
        config.compaction = False
        config.shard_bits = 4
        config.update_policy = UpdatePolicy.DELTA_SHARD
        index = RXIndex(config)
        index.build(keys)
        assert index.point_limit() == 1

        new_keys = keys.copy()
        new_keys[5] = new_keys[900]
        index.update(new_keys)
        assert index.point_limit() is None
        run = index.point_lookup(new_keys[[900]])
        assert run.hits_per_lookup.tolist() == [2]


class TestRangeLookups:
    def test_results_match_reference(self, small_workload):
        index = RXIndex()
        index.build(small_workload.keys, small_workload.values)
        run = index.range_lookup(small_workload.range_lowers, small_workload.range_uppers)
        assert run.aggregate == small_workload.reference_range_aggregate()
        assert np.array_equal(run.hits_per_lookup, small_workload.reference_range_hits())

    def test_zero_origin_range_rays_are_correct(self, small_workload):
        index = RXIndex(RXConfig(range_ray_mode=RangeRayMode.PARALLEL_FROM_ZERO))
        index.build(small_workload.keys, small_workload.values)
        run = index.range_lookup(small_workload.range_lowers, small_workload.range_uppers)
        assert run.aggregate == small_workload.reference_range_aggregate()

    def test_multi_row_range_in_narrow_decomposition(self):
        keys = dense_shuffled_keys(256)
        config = RXConfig(decomposition=KeyDecomposition(4, 8, 0), max_rays_per_range=64)
        index = RXIndex(config)
        workload = SecondaryIndexWorkload.from_keys(
            keys,
            range_lowers=np.array([10], dtype=np.uint64),
            range_uppers=np.array([60], dtype=np.uint64),
        )
        index.build(workload.keys, workload.values)
        run = index.range_lookup(workload.range_lowers, workload.range_uppers)
        assert run.aggregate == workload.reference_range_aggregate()
        assert run.stats["rays_per_lookup"] > 1

    def test_mismatched_bounds_rejected(self, small_keys):
        index = RXIndex()
        index.build(small_keys)
        with pytest.raises(ValueError):
            index.range_lookup(np.array([1], dtype=np.uint64), np.array([2, 3], dtype=np.uint64))

    @pytest.mark.parametrize("limit", [None, 4])
    @pytest.mark.parametrize("key_mode", list(KeyMode), ids=lambda mode: mode.value)
    def test_inverted_range_rejected_in_every_key_mode(self, key_mode, limit):
        # From-zero range rays: the one range ray mode every key mode takes.
        config = RXConfig(key_mode=key_mode, range_ray_mode=RangeRayMode.PARALLEL_FROM_ZERO)
        index = RXIndex(config)
        index.build(dense_shuffled_keys(64, seed=5))
        with pytest.raises(ValueError, match="upper >= lower"):
            index.range_lookup(
                np.array([9], dtype=np.uint64), np.array([3], dtype=np.uint64), limit=limit
            )


class TestLookupArgumentShapes:
    """Both lookup boundaries take 1-D key arrays and name a bad argument."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda index: index.point_lookup(np.uint64(7)), r"queries .*shape \(\)"),
            (
                lambda index: index.point_lookup(np.ones((2, 2), dtype=np.uint64)),
                r"queries .*shape \(2, 2\)",
            ),
            (
                lambda index: index.range_lookup(np.uint64(1), np.uint64(5)),
                r"lowers .*shape \(\)",
            ),
            (
                lambda index: index.range_lookup(
                    np.ones((2, 1), dtype=np.uint64), np.full((2, 1), 5, dtype=np.uint64)
                ),
                r"lowers .*shape \(2, 1\)",
            ),
            (
                lambda index: index.range_lookup(
                    np.array([1, 2], dtype=np.uint64), np.full((2, 1), 5, dtype=np.uint64)
                ),
                r"uppers .*shape \(2, 1\)",
            ),
        ],
        ids=["point-0d", "point-2d", "range-0d", "range-2d", "range-2d-uppers"],
    )
    def test_non_1d_input_raises_naming_the_argument(self, small_keys, call, message):
        index = RXIndex()
        index.build(small_keys)
        with pytest.raises(ValueError, match=message):
            call(index)

    def test_out_of_range_query_key_is_named_as_a_query(self):
        index = RXIndex(RXConfig(key_mode=KeyMode.NAIVE))
        index.build(dense_shuffled_keys(64, seed=3))
        with pytest.raises(ValueError, match=r"but queries holds 8388608"):
            index.point_lookup(np.array([2**23], dtype=np.uint64))
        with pytest.raises(ValueError, match=r"but uppers holds 8388608"):
            index.range_lookup(
                np.array([0], dtype=np.uint64), np.array([2**23], dtype=np.uint64)
            )


#: inputs that a uint64 cast would silently turn into other keys: 1.5 into
#: 1, -1 into 2^64 - 1, True into 1 and "1" into 1
CAST_CHANGED_KEYS = {"float": [1.5], "negative": [-1], "bool": [True], "string": ["1"]}


class TestKeyInputTypes:
    """Every index boundary takes only keys the uint64 cast keeps unchanged;
    anything else raises naming the argument and changes nothing."""

    COLUMN = [0, 1, 2, 2**64 - 1]

    @pytest.mark.parametrize("bad", CAST_CHANGED_KEYS.values(), ids=CAST_CHANGED_KEYS.keys())
    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda index, bad: index.build(bad), "keys"),
            (lambda index, bad: index.build([5], bad), "values"),
            (lambda index, bad: index.update(bad), "new_keys"),
            (lambda index, bad: index.update(index.keys, bad * 4), "new_values"),
            (lambda index, bad: index.point_lookup(bad), "queries"),
            (lambda index, bad: index.range_lookup(bad, [5]), "lowers"),
            (lambda index, bad: index.range_lookup([0], bad), "uppers"),
            (lambda index, bad: index.range_lookup(bad, [5], limit=2, order="key"), "lowers"),
        ],
        ids=[
            "build",
            "build-values",
            "update",
            "update-values",
            "point",
            "range-lowers",
            "range-uppers",
            "ordered-page",
        ],
    )
    def test_refused_naming_the_argument(self, call, name, bad):
        index = RXIndex()
        index.build(self.COLUMN)
        with pytest.raises(ValueError, match=f"^{name} must hold non-negative integers"):
            call(index, bad)
        assert index.keys.tolist() == self.COLUMN and index.epoch == 0
        assert index.point_lookup(self.COLUMN).result_rows.tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "form", [lambda v: np.array(v, dtype=np.int64), list], ids=["int64", "int-list"]
    )
    def test_non_negative_integers_answer_as_their_uint64_keys(self, form):
        keys = [7, 1, 2, 9]
        want, index = RXIndex(), RXIndex()
        want.build(np.array(keys, dtype=np.uint64))
        index.build(form(keys))
        assert index.keys.tolist() == keys
        queries, lowers, uppers = [2, 9, 5], [0, 3], [2, 9]
        as_u64 = lambda v: np.array(v, dtype=np.uint64)
        assert (
            index.point_lookup(form(queries)).result_rows.tolist()
            == want.point_lookup(as_u64(queries)).result_rows.tolist()
        )
        assert (
            index.range_lookup(form(lowers), form(uppers)).hits_per_lookup.tolist()
            == want.range_lookup(as_u64(lowers), as_u64(uppers)).hits_per_lookup.tolist()
        )
        index.update(form(keys[::-1]))
        assert index.point_lookup(form([7])).result_rows.tolist() == [3]

    def test_int_list_past_2_63_keeps_every_key(self):
        # NumPy infers float64 for this list; the keys must stay exact.
        index = RXIndex()
        index.build(self.COLUMN)
        assert index.keys.tolist() == self.COLUMN
        assert index.point_lookup([2**64 - 1, 2**64 - 2]).result_rows.tolist() == [
            3,
            int(MISS_SENTINEL),
        ]


class TestRangeLimitPushdown:
    def test_per_call_limit_caps_every_lookup(self, small_workload):
        index = RXIndex()
        index.build(small_workload.keys, small_workload.values)
        full = small_workload.reference_range_hits()
        for limit in (1, 3, 8, 100):
            run = index.range_lookup(
                small_workload.range_lowers, small_workload.range_uppers, limit=limit
            )
            assert np.array_equal(run.hits_per_lookup, np.minimum(full, limit))
            assert run.stats["trace_mode"] == "first_k"
            assert run.stats["range_limit"] == limit

    def test_limited_rows_are_a_stable_cut_of_the_unlimited_run(self, small_workload):
        index = RXIndex()
        index.build(small_workload.keys, small_workload.values)
        unlimited = index.range_lookup(
            small_workload.range_lowers, small_workload.range_uppers
        )
        limited = index.range_lookup(
            small_workload.range_lowers, small_workload.range_uppers, limit=2
        )
        # The first reported row per lookup is unchanged by the cut, and the
        # limited traversal never does more work.
        assert np.array_equal(limited.result_rows, unlimited.result_rows)
        assert limited.stats["total_node_visits"] <= unlimited.stats["total_node_visits"]
        assert limited.stats["total_prim_tests"] <= unlimited.stats["total_prim_tests"]

    def test_config_default_applies_and_per_call_overrides(self, small_workload):
        index = RXIndex()
        index.build(small_workload.keys, small_workload.values)
        full = small_workload.reference_range_hits()
        lowers, uppers = small_workload.range_lowers, small_workload.range_uppers
        # The limit comes from the call: an int caps this call only ...
        override = index.range_lookup(lowers, uppers, limit=4)
        assert np.array_equal(override.hits_per_lookup, np.minimum(full, 4))
        # ... and None, the default, reports every hit.
        default = index.range_lookup(lowers, uppers)
        assert np.array_equal(default.hits_per_lookup, full)
        unlimited = index.range_lookup(lowers, uppers, limit=None)
        assert np.array_equal(unlimited.hits_per_lookup, full)
        assert unlimited.stats["trace_mode"] == "all"
        assert unlimited.aggregate == small_workload.reference_range_aggregate()

    def test_limit_respected_by_multi_row_lookups(self):
        # A narrow decomposition fans one lookup into several rays; the
        # budget must be shared across them, not granted per ray.
        keys = dense_shuffled_keys(256)
        config = RXConfig(
            decomposition=KeyDecomposition(4, 8, 0), max_rays_per_range=64
        )
        index = RXIndex(config)
        workload = SecondaryIndexWorkload.from_keys(
            keys,
            range_lowers=np.array([10], dtype=np.uint64),
            range_uppers=np.array([60], dtype=np.uint64),
        )
        index.build(workload.keys, workload.values)
        run = index.range_lookup(
            workload.range_lowers, workload.range_uppers, limit=5
        )
        assert run.stats["rays_per_lookup"] > 1
        assert run.hits_per_lookup.tolist() == [5]

    def test_invalid_limits_rejected(self, small_keys):
        index = RXIndex()
        index.build(small_keys)
        bounds = np.array([1], dtype=np.uint64), np.array([5], dtype=np.uint64)
        with pytest.raises(ValueError, match="at least 1"):
            index.range_lookup(*bounds, limit=0)
        with pytest.raises(ValueError, match="int or None"):
            index.range_lookup(*bounds, limit="unbounded")


class TestUpdates:
    def test_rebuild_policy_reindexes(self, small_keys):
        index = RXIndex()
        workload = SecondaryIndexWorkload.from_keys(small_keys)
        index.build(workload.keys, workload.values)
        updated = swap_adjacent_positions(small_keys, 32, seed=3)
        outcome = index.update(updated)
        assert outcome.policy is UpdatePolicy.REBUILD
        run = index.point_lookup(updated[:16])
        assert (run.hits_per_lookup > 0).all()

    def test_refit_policy_keeps_results_correct(self, small_keys):
        config = RXConfig.paper_default().with_updates_enabled()
        index = RXIndex(config)
        workload = SecondaryIndexWorkload.from_keys(small_keys)
        index.build(workload.keys, workload.values)
        updated = swap_adjacent_keys(small_keys, 32, seed=4)
        outcome = index.update(updated)
        assert outcome.policy is UpdatePolicy.REFIT
        updated_workload = SecondaryIndexWorkload(
            keys=updated, values=workload.values, point_queries=updated[:64]
        )
        run = index.point_lookup(updated_workload.point_queries)
        assert run.aggregate == updated_workload.reference_point_aggregate()

    def test_refit_position_swaps_degrade_bvh(self, small_keys):
        config = RXConfig.paper_default().with_updates_enabled()
        index = RXIndex(config)
        index.build(small_keys)
        baseline = index.point_lookup(small_keys[:128]).stats["node_visits_per_ray"]
        updated = swap_adjacent_positions(small_keys, len(small_keys) // 4, seed=5)
        outcome = index.update(updated)
        degraded = index.point_lookup(updated[:128]).stats["node_visits_per_ray"]
        assert outcome.surface_area_growth > 1.0
        assert degraded > baseline

    def test_refit_rejects_resize(self, small_keys):
        config = RXConfig.paper_default().with_updates_enabled()
        index = RXIndex(config)
        index.build(small_keys)
        with pytest.raises(ValueError):
            index.update(small_keys[:-1])


class TestCosting:
    def test_memory_footprint_scales(self, small_keys):
        index = RXIndex()
        index.build(small_keys)
        small = index.memory_footprint()
        large = index.memory_footprint(target_keys=2**26)
        assert large.final_bytes > small.final_bytes
        assert large.build_overhead_bytes > 0

    def test_build_profiles_scale_with_target(self, small_keys):
        index = RXIndex()
        index.build(small_keys)
        small = index.build_profiles()[0]
        large = index.build_profiles(target_keys=2**26)[0]
        assert large.bytes_accessed > small.bytes_accessed

    def test_lookup_profile_contains_rt_work(self, small_workload):
        index = RXIndex()
        index.build(small_workload.keys, small_workload.values)
        run = index.point_lookup(small_workload.point_queries)
        profile = index.lookup_profile(run, target_keys=2**26, target_lookups=2**27)
        assert profile.rt_tests > 0
        assert profile.threads == 2**27
        assert profile.working_set_bytes > 0

    def test_lookup_profile_software_primitives_add_instructions(self, small_workload):
        tri = RXIndex(RXConfig(primitive=PrimitiveType.TRIANGLE))
        box = RXIndex(RXConfig(primitive=PrimitiveType.AABB))
        for index in (tri, box):
            index.build(small_workload.keys, small_workload.values)
        tri_profile = tri.lookup_profile(tri.point_lookup(small_workload.point_queries))
        box_profile = box.lookup_profile(box.point_lookup(small_workload.point_queries))
        assert box_profile.instructions > tri_profile.instructions

    def test_limit_pushdown_discounts_cost_on_balanced_dense_trees(self):
        # On a balanced dense tree every leaf sits on the last level, so the
        # wavefront counters alone cannot show first_k's pruning (node visits
        # and prim tests come out identical).  The profile must consume the
        # budget_dropped_hits / leaf_visits stats to model the per-ray
        # hardware termination instead.
        index = RXIndex()
        index.build(np.arange(4096, dtype=np.uint64))
        lowers = np.arange(0, 3000, 3).astype(np.uint64)
        uppers = lowers + 900
        limited = index.range_lookup(lowers, uppers, limit=8)
        unlimited = index.range_lookup(lowers, uppers, limit=None)
        assert limited.stats["budget_dropped_hits"] > 0
        assert unlimited.stats["budget_dropped_hits"] == 0
        p_limited = index.lookup_profile(limited, target_keys=2**26, target_lookups=2**27)
        p_unlimited = index.lookup_profile(unlimited, target_keys=2**26, target_lookups=2**27)
        assert p_limited.rt_tests < 0.5 * p_unlimited.rt_tests
        assert p_limited.bytes_accessed < 0.5 * p_unlimited.bytes_accessed
