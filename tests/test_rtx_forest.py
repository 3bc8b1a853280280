"""Morton-prefix sharded BVH forest: cut and splice, delta updates, persistence checks.

The load-bearing invariant — forest traversal bit-identical to the
single-tree engine across all trace modes — is pinned by the randomised
differential harness (``tests/test_trace_differential.py``, sharding axis).
This suite covers the forest-specific surface: the cut against the
per-shard oracle (each bucket's rows sorted and built on their own) and
the splice of the saved state back into the single tree, on shard-partition
edge cases (empty shards, everything in one shard, more shards than keys,
duplicate-heavy columns, bucket-spanning mixed leaves) and on
``DIFF_SEED``-driven random columns; delta-shard updates (dirty-subset
rebuilds, no-op detection, grid rescales, growing/shrinking columns); and
the RXIndex plumbing around them.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.core import RXConfig, RXIndex
from repro.core.config import KeyMode, UpdatePolicy
from repro.core.keycodec import make_codec
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import RTX_4090
from repro.rtx.build_input import build_input_for_points
from repro.rtx.bvh import (
    BvhBuildOptions,
    build_bvh,
    build_lbvh_over_sorted,
    bvh_arrays_diff,
)
from repro.rtx.forest import (
    build_forest,
    delta_update_forest,
    forest_from_saved,
    forest_state_segments,
    plan_top_level,
)
from repro.rtx.geometry import AabbBuffer, TriangleBuffer, make_triangle_vertices
from repro.rtx.morton import morton_encode_3d
from repro.workloads import clustered_key_swaps, dense_shuffled_keys

DIFF_SEED = int(os.environ.get("DIFF_SEED", "20260727"))


def _buffer(points: np.ndarray) -> TriangleBuffer:
    return TriangleBuffer(make_triangle_vertices(points))


def _line(xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    return np.column_stack([xs, np.zeros_like(xs), np.zeros_like(xs)])


def _assert_trees_equal(got, want, label=""):
    diff = bvh_arrays_diff(got, want)
    assert diff is None, (label, diff)


def _spliced(forest, buffer):
    """The forest reloaded from its own saved state."""
    segments = [(arrays, meta) for _, arrays, meta in forest_state_segments(forest)]
    return forest_from_saved(buffer, forest.options, segments)


def _assert_forest_matches_single(buffer, shard_bits, max_leaf_size=4):
    """The forest's tree is the single tree, its shards are what sorting and
    building each bucket on its own gives, and its saved state splices back
    into the single tree."""
    options = BvhBuildOptions(max_leaf_size=max_leaf_size, shard_bits=shard_bits)
    single = build_bvh(buffer, BvhBuildOptions(max_leaf_size=max_leaf_size))
    forest = build_forest(buffer, options)
    label = f"shard_bits={shard_bits} max_leaf_size={max_leaf_size}"
    _assert_trees_equal(forest.bvh, single, label)

    mins, maxs = (a.astype(np.float64) for a in buffer.compute_aabbs())
    codes = morton_encode_3d(0.5 * (mins + maxs), options.morton_bits)
    # A bucket is the top shard_bits bits of the code.
    bucket = (codes >> np.uint64(3 * options.morton_bits - shard_bits)).astype(np.int64)
    counts = np.bincount(bucket)
    non_empty = np.flatnonzero(counts)
    plan = plan_top_level(non_empty.astype(np.uint64), counts[non_empty], max_leaf_size)
    assert sorted(forest.shard_rows) == non_empty.tolist(), label
    assert sorted(forest.shard_trees) == sorted(plan.delegated), label
    by_bucket = np.lexsort((codes, bucket))  # stable: equal codes keep row order
    ends = np.cumsum(counts)
    for b, rows in forest.shard_rows.items():
        want = by_bucket[ends[b] - counts[b] : ends[b]]
        assert np.array_equal(rows, want), (label, b)
        if b in forest.shard_trees:
            oracle = build_lbvh_over_sorted(codes[want], mins[want], maxs[want], options)
            _assert_trees_equal(forest.shard_trees[b], oracle, (label, b))

    _assert_trees_equal(_spliced(forest, buffer).bvh, single, f"splice {label}")
    return forest


class TestForestBuild:
    def test_empty_shards_are_skipped(self):
        # Two tight clusters at opposite ends: almost every prefix bucket is
        # empty, and the forest must still match the single tree.
        rng = np.random.default_rng(1)
        xs = np.concatenate([rng.uniform(0, 10, 300), rng.uniform(1e6, 1e6 + 10, 300)])
        forest = _assert_forest_matches_single(_buffer(_line(xs)), shard_bits=8)
        assert forest.non_empty_shards < forest.num_shards

    def test_all_keys_in_one_shard(self):
        # A single dense cluster in a scene whose bounds it defines: every
        # key lands in few buckets; the degenerate single-delegate case (no
        # top-level nodes) must hold for shard_bits=1.
        xs = np.arange(500, dtype=np.float64)
        forest = _assert_forest_matches_single(_buffer(_line(xs)), shard_bits=1)
        assert forest.non_empty_shards <= 2

    def test_more_shards_than_keys(self):
        rng = np.random.default_rng(2)
        forest = _assert_forest_matches_single(
            _buffer(rng.uniform(0, 100, size=(7, 3))), shard_bits=10, max_leaf_size=1
        )
        assert forest.non_empty_shards <= 7

    def test_duplicate_heavy_column(self):
        # Many primitives share one coordinate: identical Morton codes force
        # the in-shard median fallback splits, which must still splice into
        # the single tree.
        rng = np.random.default_rng(3)
        xs = np.repeat(rng.uniform(0, 1000, 40), 25)
        for shard_bits in (2, 6):
            _assert_forest_matches_single(_buffer(_line(xs)), shard_bits=shard_bits)

    def test_bucket_spanning_mixed_leaf(self):
        # Three far-apart keys with max_leaf_size=4: the single tree is one
        # leaf spanning three buckets; the top-level planner must absorb the
        # buckets instead of delegating them.
        forest = _assert_forest_matches_single(
            _buffer(_line([0.0, 1e6, 2e6])), shard_bits=8, max_leaf_size=4
        )
        assert forest.delegated_shards == 0
        assert forest.bvh.node_count == 1

    def test_single_primitive(self):
        _assert_forest_matches_single(_buffer(_line([5.0])), shard_bits=4)

    def test_shard_bits_requires_lbvh(self):
        with pytest.raises(ValueError, match="lbvh"):
            BvhBuildOptions(builder="sah", shard_bits=2).validate()

    def test_all_identical_points(self):
        # One Morton code: a single bucket holds every row, so that shard's
        # tree is the whole tree and the top plan is empty.
        points = _line(np.full(300, 7.0))
        forest = _assert_forest_matches_single(_buffer(points), shard_bits=6)
        assert forest.non_empty_shards == forest.delegated_shards == 1
        (tree,) = forest.shard_trees.values()
        _assert_trees_equal(tree, forest.bvh)

    @pytest.mark.parametrize("case_index", range(24))
    def test_random_columns_match_the_shard_oracle(self, case_index):
        # Three key modes, key spans from dense to the codec's full range,
        # 0-100% duplicate rows, shard_bits 1-16 and max_leaf_size 1-8.
        rng = np.random.default_rng([DIFF_SEED, case_index])
        codec = make_codec((KeyMode.NAIVE, KeyMode.EXTENDED, KeyMode.THREE_D)[case_index % 3])
        n = int(rng.integers(1, 3000))
        span = int(min(codec.max_key(), 2 ** rng.uniform(np.log2(n + 1), 64)))
        keys = rng.integers(0, span, size=n, endpoint=True, dtype=np.uint64)
        dupes = rng.random(n) < rng.random()
        keys[dupes] = rng.choice(keys, size=int(dupes.sum()))
        points, x_half_extent = codec.encode_points(keys)
        buffer = build_input_for_points(
            "triangle", points, half_extent=0.5, x_half_extent=x_half_extent
        ).primitive_buffer()
        _assert_forest_matches_single(
            buffer,
            shard_bits=int(rng.integers(1, 17)),
            max_leaf_size=int(rng.integers(1, 9)),
        )

    def test_plan_top_level_counts(self):
        # Four equally full buckets → a balanced 3-inner-node top table.
        vals = np.array([0, 1, 2, 3], dtype=np.uint64)
        counts = np.array([10, 10, 10, 10])
        plan = plan_top_level(vals, counts, max_leaf_size=4)
        kinds = [entry[0] for entry in plan.entries]
        assert kinds.count("inner") == 3
        assert sorted(plan.delegated) == [0, 1, 2, 3]


class TestDeltaUpdate:
    def _forest(self, xs, shard_bits=6):
        buf = _buffer(_line(xs))
        return build_forest(buf, BvhBuildOptions(shard_bits=shard_bits)), buf

    def _check(self, forest, old_buf, new_xs, label):
        new_buf = _buffer(_line(new_xs))
        updated, stats = delta_update_forest(forest, old_buf, new_buf)
        fresh = build_bvh(_buffer(_line(new_xs)), BvhBuildOptions())
        _assert_trees_equal(updated.bvh, fresh, label)
        return updated, stats, new_buf

    def test_noop_update_rebuilds_nothing(self):
        xs = np.arange(1000, dtype=np.float64)
        forest, buf = self._forest(xs)
        updated, stats = delta_update_forest(forest, buf, _buffer(_line(xs)))
        assert stats.noop
        assert stats.dirty_shards == 0 and stats.rebuilt_trees == 0
        assert updated is forest  # the original forest object, untouched

    def test_local_change_dirties_a_subset(self):
        xs = np.arange(4096, dtype=np.float64)
        forest, buf = self._forest(xs, shard_bits=12)
        new_xs = xs.copy()
        new_xs[[100, 101]] = new_xs[[101, 100]]
        _, stats, _ = self._check(forest, buf, new_xs, "local")
        assert 1 <= stats.dirty_shards < forest.non_empty_shards
        assert stats.dirty_keys < stats.total_keys

    @staticmethod
    def _lattice() -> np.ndarray:
        grid = np.arange(16, dtype=np.float64)
        return np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), -1).reshape(-1, 3)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_a_move_along_one_axis_is_seen(self, axis):
        # Two rows swap their coordinate on one axis only, so only that
        # axis's bounds columns tell the update what changed.
        points = self._lattice()
        buf = _buffer(points)
        forest = build_forest(buf, BvhBuildOptions(shard_bits=6))
        moved = points.copy()
        moved[[5, 3000], axis] = points[[3000, 5], axis]
        assert points[5, axis] != points[3000, axis]
        updated, stats = delta_update_forest(forest, buf, _buffer(moved))
        assert 1 <= stats.dirty_shards < forest.non_empty_shards
        _assert_trees_equal(updated.bvh, build_bvh(_buffer(moved)), f"axis {axis}")

    def test_a_box_that_only_grows_is_seen(self):
        # Only one row's max corner moves: the update must diff maxs too.
        mins = self._lattice().astype(np.float32)
        buf = AabbBuffer(mins, mins + 0.5)
        forest = build_forest(buf, BvhBuildOptions(shard_bits=6))
        grown = mins + 0.5
        grown[5, 1] += 0.25
        updated, stats = delta_update_forest(forest, buf, AabbBuffer(mins, grown))
        assert stats.dirty_shards >= 1 and not stats.rescaled
        _assert_trees_equal(updated.bvh, build_bvh(AabbBuffer(mins, grown)), "grown")

    def test_chained_updates_stay_exact(self):
        rng = np.random.default_rng(5)
        xs = np.arange(2048, dtype=np.float64)
        rng.shuffle(xs)
        forest, buf = self._forest(xs, shard_bits=9)
        for step in range(3):
            sel = rng.choice(xs.shape[0] - 1, 5, replace=False)
            new_xs = xs.copy()
            new_xs[sel], new_xs[sel + 1] = xs[sel + 1], xs[sel]
            forest, _, buf = self._check(forest, buf, new_xs, f"chain{step}")
            xs = new_xs

    def test_scene_rescale_forces_full_resort(self):
        xs = np.arange(1024, dtype=np.float64)
        forest, buf = self._forest(xs)
        new_xs = xs.copy()
        new_xs[-1] = 5000.0  # moves the global grid bounds
        _, stats, _ = self._check(forest, buf, new_xs, "rescale")
        assert stats.rescaled
        assert stats.dirty_keys == stats.total_keys

    def test_growing_and_shrinking_column(self):
        xs = np.arange(1024, dtype=np.float64)
        forest, buf = self._forest(xs, shard_bits=9)
        grown = np.concatenate([xs, [500.25, 500.5, 500.75]])
        updated, stats, new_buf = self._check(forest, buf, grown, "grow")
        assert stats.total_keys == 1027
        assert stats.dirty_shards < updated.non_empty_shards
        _, stats, _ = self._check(updated, new_buf, grown[:-10], "shrink")
        assert stats.total_keys == 1017


class TestRXIndexForest:
    def test_build_reports_shards_and_lookups_match_single_tree(self):
        keys = dense_shuffled_keys(2048, seed=21)
        sharded = RXIndex(RXConfig.paper_default().with_delta_updates(shard_bits=9))
        single = RXIndex(RXConfig.paper_default())
        result = sharded.build(keys)
        single.build(keys)
        assert result.stats["shards"] >= 2
        assert result.stats["delegated_shards"] >= 1

        rng = np.random.default_rng(22)
        queries = keys[rng.integers(0, keys.shape[0], 300)]
        a, b = sharded.point_lookup(queries), single.point_lookup(queries)
        assert np.array_equal(a.result_rows, b.result_rows)
        assert a.aggregate == b.aggregate
        assert a.stats["total_node_visits"] == b.stats["total_node_visits"]

        lo = np.sort(queries)[:64]
        a, b = (
            sharded.range_lookup(lo, lo + 40, limit=4),
            single.range_lookup(lo, lo + 40, limit=4),
        )
        assert np.array_equal(a.hits_per_lookup, b.hits_per_lookup)
        assert a.aggregate == b.aggregate
        assert a.stats["total_prim_tests"] == b.stats["total_prim_tests"]

    def test_delta_policy_validation(self):
        with pytest.raises(ValueError, match="delta-shard"):
            RXConfig(update_policy=UpdatePolicy.DELTA_SHARD).validate()
        RXConfig.paper_default().with_delta_updates(shard_bits=6).validate()

    def test_resizing_update_needs_explicit_values(self):
        keys = dense_shuffled_keys(512, seed=27)
        index = RXIndex(RXConfig.paper_default().with_delta_updates(shard_bits=6))
        index.build(keys)
        grown = np.concatenate([keys, [np.uint64(600)]])
        with pytest.raises(ValueError, match="changed the key count"):
            index.update(grown)
        outcome = index.update(grown, np.arange(grown.shape[0], dtype=np.uint64))
        assert outcome.stats["total_keys"] == 513
        assert index.point_lookup(grown[-1:]).hits_per_lookup.sum() == 1

    def test_delta_update_outcome_and_correctness(self):
        keys = dense_shuffled_keys(2048, seed=23)
        index = RXIndex(RXConfig.paper_default().with_delta_updates(shard_bits=12))
        index.build(keys)

        noop = index.update(keys.copy())
        assert noop.policy is UpdatePolicy.DELTA_SHARD
        assert noop.stats["noop"] and noop.stats["dirty_shards"] == 0

        new_keys = clustered_key_swaps(keys, 8, seed=24)
        outcome = index.update(new_keys)
        assert not outcome.stats["noop"]
        assert outcome.stats["dirty_shards"] < outcome.stats["non_empty_shards"]
        assert outcome.stats["dirty_keys"] < outcome.stats["total_keys"]

        fresh = RXIndex(RXConfig.paper_default())
        fresh.build(new_keys)
        queries = new_keys[:256]
        a, b = index.point_lookup(queries), fresh.point_lookup(queries)
        assert np.array_equal(a.result_rows, b.result_rows)
        assert a.aggregate == b.aggregate

    def test_delta_update_cost_scales_with_dirty_shards(self):
        # Extrapolate the profiles to paper scale the way table04 does — at
        # the simulation size the cost model's per-launch floor hides the
        # byte/instruction differences entirely.
        cost_model = CostModel(RTX_4090)
        keys = dense_shuffled_keys(4096, seed=25)
        key_factor = 2**26 / keys.shape[0]

        def update_cost(num_swaps):
            index = RXIndex(RXConfig.paper_default().with_delta_updates(shard_bits=12))
            index.build(keys)
            outcome = index.update(clustered_key_swaps(keys, num_swaps, seed=26))
            ms = sum(
                cost_model.kernel_cost(
                    replace(p.scaled(key_factor), kernel_launches=p.kernel_launches)
                ).time_ms
                for p in outcome.profiles
            )
            return ms, outcome.stats["dirty_shards"]

        small_ms, small_dirty = update_cost(2)
        large_ms, large_dirty = update_cost(512)
        rebuild_index = RXIndex(RXConfig.paper_default())
        rebuild_index.build(keys)
        rebuild_ms = sum(
            cost_model.kernel_cost(p).time_ms
            for p in rebuild_index.build_profiles(target_keys=2**26)
        )
        assert small_dirty < large_dirty
        assert small_ms < large_ms
        assert small_ms < 0.5 * rebuild_ms
