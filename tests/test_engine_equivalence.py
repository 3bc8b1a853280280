"""Golden-equivalence harness for the level-synchronous engine.

The vectorised builder, traversal, refit and hash-table build replaced
per-item Python loops.  These tests pin their observable behaviour to the
seed implementations preserved verbatim in :mod:`repro.rtx._reference`:

* BVH builds must emit *bit-identical* trees — node numbering, bounds,
  ``prim_indices`` permutation — for all three builders across regular,
  random, duplicate-heavy and pathologically skewed workloads;
* ``TraversalEngine.trace`` must produce identical hit records and
  identical counters (including the schedule counters ``traversal_rounds``
  and ``max_frontier_size``) for every primitive type and for any
  ``FRONTIER_BLOCK`` size;
* the refit pass must produce bit-identical refitted bounds;
* the hash-table bulk build must match the sequential insert loop's probe
  statistics, per-group occupancy and lookup results.

The builder cases draw their columns from ``DIFF_SEED`` (env var) as well as
their fixed seeds, so CI's extra seeds check the build chain on new columns.
"""

import os

import numpy as np
import pytest

from repro.baselines.hashtable import _EMPTY, MISS_SENTINEL, WarpCoreHashTable, _mix_hash
from repro.core.results import collect_row_ids
from repro.rtx._reference import (
    reference_aabb_intersect_pairs,
    reference_build_bvh,
    reference_hashtable_insert,
    reference_refit_bounds,
    reference_sphere_intersect_pairs,
    reference_trace,
    reference_triangle_intersect_pairs,
)
from repro.rtx.build_input import build_input_for_points
from repro.rtx.bvh import BvhBuildOptions, build_bvh
from repro.rtx.geometry import RayBatch, TriangleBuffer, make_triangle_vertices
from repro.rtx.refit import refit_accel
from repro.rtx.traversal import HitRecords, TraversalEngine

BUILDERS = ["lbvh", "median", "sah"]
PRIMITIVES = ["triangle", "sphere", "aabb"]
DIFF_SEED = int(os.environ.get("DIFF_SEED", "20260727"))


def _workloads(rng):
    n = 300
    return {
        "line": np.column_stack([np.arange(n), np.zeros(n), np.zeros(n)]),
        "cloud": rng.uniform(0, 1000, size=(n, 3)),
        "duplicates": np.repeat(rng.uniform(0, 10, size=(15, 3)), 20, axis=0),
        "skewed": np.column_stack(
            [rng.uniform(0, 1e12, n), rng.uniform(0, 1, n), np.zeros(n)]
        ),
    }


def _assert_same_tree(built, golden):
    assert np.array_equal(built.left, golden.left)
    assert np.array_equal(built.first_prim, golden.first_prim)
    assert np.array_equal(built.prim_count, golden.prim_count)
    assert np.array_equal(built.prim_indices, golden.prim_indices)
    assert np.array_equal(built.node_mins, golden.node_mins)
    assert np.array_equal(built.node_maxs, golden.node_maxs)


@pytest.mark.parametrize("builder", BUILDERS)
class TestBuilderEquivalence:
    def test_trees_bit_identical(self, builder):
        rng = np.random.default_rng([42, DIFF_SEED])
        for name, points in _workloads(rng).items():
            for max_leaf_size in (1, 4):
                buffer = TriangleBuffer(make_triangle_vertices(points))
                options = BvhBuildOptions(builder=builder, max_leaf_size=max_leaf_size)
                _assert_same_tree(
                    build_bvh(buffer, options), reference_build_bvh(buffer, options)
                )

    def test_trees_identical_across_primitive_types(self, builder):
        rng = np.random.default_rng([7, DIFF_SEED])
        points = rng.uniform(0, 500, size=(200, 3))
        for primitive in PRIMITIVES:
            buffer = build_input_for_points(primitive, points)
            options = BvhBuildOptions(builder=builder)
            _assert_same_tree(
                build_bvh(buffer, options), reference_build_bvh(buffer, options)
            )

    def test_depth_and_leaves_match_reference(self, builder):
        rng = np.random.default_rng([3, DIFF_SEED])
        buffer = TriangleBuffer(
            make_triangle_vertices(rng.uniform(0, 100, size=(257, 3)))
        )
        options = BvhBuildOptions(builder=builder)
        built = build_bvh(buffer, options)
        golden = reference_build_bvh(buffer, options)
        assert built.depth() == _reference_depth(golden)
        assert built.leaf_count == golden.leaf_count

    def test_duplicate_keys_at_4096(self, builder):
        # 2^12 keys drawn from 1,500 values, so most keys repeat: the equal
        # Morton codes exercise the tie-aware sort's run fix-up.
        rng = np.random.default_rng([12, DIFF_SEED])
        keys = rng.integers(0, 1500, size=1 << 12)
        points = np.column_stack([keys, np.zeros(keys.size), np.zeros(keys.size)])
        buffer = build_input_for_points("triangle", points)
        options = BvhBuildOptions(builder=builder)
        _assert_same_tree(build_bvh(buffer, options), reference_build_bvh(buffer, options))


def _reference_depth(bvh) -> int:
    """The seed per-node stack depth computation."""
    max_depth = 0
    stack = [(0, 0)]
    while stack:
        node, d = stack.pop()
        max_depth = max(max_depth, d)
        if bvh.left[node] >= 0:
            stack.append((int(bvh.left[node]), d + 1))
            stack.append((int(bvh.left[node]) + 1, d + 1))
    return max_depth


@pytest.mark.parametrize("primitive", PRIMITIVES)
@pytest.mark.parametrize("block", [None, 64])
class TestTraversalEquivalence:
    def _engine_and_rays(self, primitive, rng):
        n = 512
        points = np.column_stack([np.arange(n), np.zeros(n), np.zeros(n)])
        buffer = build_input_for_points(primitive, points)
        bvh = build_bvh(buffer)
        xs = rng.uniform(-10, n + 10, size=400)
        origins = np.column_stack([xs, np.zeros_like(xs), np.full_like(xs, -0.5)])
        directions = np.tile([0.0, 0.0, 1.0], (xs.shape[0], 1))
        point_rays = RayBatch(
            origins=origins, directions=directions, tmin=0.0, tmax=1.0
        )
        lows = rng.uniform(0, n - 30, size=100)
        range_rays = RayBatch(
            origins=np.column_stack([lows, np.zeros(100), np.zeros(100)]),
            directions=np.tile([1.0, 0.0, 0.0], (100, 1)),
            tmin=0.0,
            tmax=rng.uniform(1, 25, size=100),
        )
        diag = RayBatch(
            origins=rng.uniform(-5, n + 5, size=(200, 3)),
            directions=rng.uniform(-1, 1, size=(200, 3)),
            tmin=0.0,
            tmax=20.0,
        )
        return bvh, buffer, [point_rays, range_rays, diag]

    def test_hits_and_counters_identical(self, primitive, block, frontier_block):
        rng = np.random.default_rng(17)
        bvh, buffer, batches = self._engine_and_rays(primitive, rng)
        frontier_block(block)
        engine = TraversalEngine(bvh, buffer)
        for rays in batches:
            hits = engine.trace(rays)
            golden_hits, golden_counters = reference_trace(bvh, buffer, rays)
            assert np.array_equal(hits.ray_indices, golden_hits.ray_indices)
            assert np.array_equal(hits.prim_indices, golden_hits.prim_indices)
            assert np.array_equal(hits.lookup_ids, golden_hits.lookup_ids)
            assert engine.counters.as_dict() == golden_counters.as_dict()

    def test_any_hit_filter_identical(self, primitive, block, frontier_block):
        rng = np.random.default_rng(23)
        bvh, buffer, batches = self._engine_and_rays(primitive, rng)
        frontier_block(block)
        engine = TraversalEngine(bvh, buffer)
        keep_even = lambda r, p, l: (p % 2 == 0)
        hits = engine.trace(batches[1], any_hit=keep_even)
        golden_hits, _ = reference_trace(bvh, buffer, batches[1], any_hit=keep_even)
        assert np.array_equal(hits.prim_indices, golden_hits.prim_indices)

    def test_tmin_cull_mode_identical(self, primitive, block, frontier_block):
        rng = np.random.default_rng(29)
        bvh, buffer, _ = self._engine_and_rays(primitive, rng)
        rays = RayBatch(
            origins=np.zeros((40, 3)),
            directions=np.tile([1.0, 0.0, 0.0], (40, 1)),
            tmin=rng.uniform(0, 500, size=40),
            tmax=512.0,
        )
        frontier_block(block)
        engine = TraversalEngine(bvh, buffer)
        hits = engine.trace(rays)
        golden_hits, golden_counters = reference_trace(bvh, buffer, rays)
        assert np.array_equal(hits.prim_indices, golden_hits.prim_indices)
        assert engine.counters.as_dict() == golden_counters.as_dict()


class TestIntersectPairsEquivalence:
    """The SoA intersection packs must reproduce the seed's per-call
    gather-and-recompute intersectors bit for bit."""

    def _pair_workload(self, rng, n=700, m=4000):
        points = rng.uniform(0, 500, size=(n, 3))
        g = rng.integers(0, n, size=m)
        # Mix of aimed rays (high hit rate), axis-parallel rays (the paper's
        # workloads), degenerate zero-direction rays, and random misses.
        target = points[g] + rng.uniform(-0.6, 0.6, size=(m, 3))
        o = target + rng.uniform(-3.0, 3.0, size=(m, 3))
        d = target - o
        d[: m // 8, 1:] = 0.0       # parallel to y/z
        d[m // 8 : m // 6] = 0.0    # fully degenerate
        o[m // 6 : m // 4] = rng.uniform(-100, 600, size=(m // 4 - m // 6, 3))
        tmins = rng.uniform(0, 1.0, size=m)
        tmaxs = tmins + rng.uniform(0, 4.0, size=m)
        return points, o, d, tmins, tmaxs, g

    def test_triangle_masks_bit_identical(self):
        rng = np.random.default_rng(61)
        points, o, d, tmins, tmaxs, g = self._pair_workload(rng)
        buffer = build_input_for_points("triangle", points)
        got = buffer.intersect_pairs(o, d, tmins, tmaxs, g)
        want = reference_triangle_intersect_pairs(
            make_triangle_vertices(points).astype(np.float64), o, d, tmins, tmaxs, g
        )
        assert got.sum() > 0  # the workload must exercise the hit branches
        assert np.array_equal(got, want)

    def test_sphere_masks_bit_identical(self):
        rng = np.random.default_rng(62)
        points, o, d, tmins, tmaxs, g = self._pair_workload(rng)
        buffer = build_input_for_points("sphere", points)
        got = buffer.intersect_pairs(o, d, tmins, tmaxs, g)
        want = reference_sphere_intersect_pairs(
            buffer.centers, buffer.radius, o, d, tmins, tmaxs, g
        )
        assert got.sum() > 0
        assert np.array_equal(got, want)

    def test_aabb_masks_bit_identical(self):
        rng = np.random.default_rng(63)
        points, o, d, tmins, tmaxs, g = self._pair_workload(rng)
        buffer = build_input_for_points("aabb", points)
        got = buffer.intersect_pairs(o, d, tmins, tmaxs, g)
        want = reference_aabb_intersect_pairs(
            buffer.mins, buffer.maxs, o, d, tmins, tmaxs, g
        )
        assert got.sum() > 0
        assert np.array_equal(got, want)

    def test_empty_pair_batch(self):
        rng = np.random.default_rng(64)
        points = rng.uniform(0, 10, size=(5, 3))
        for primitive in PRIMITIVES:
            buffer = build_input_for_points(primitive, points)
            empty = np.zeros(0, dtype=np.int64)
            mask = buffer.intersect_pairs(
                np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0), np.zeros(0), empty
            )
            assert mask.shape == (0,) and mask.dtype == bool


class TestAnyHitModeEquivalence:
    """``first_k`` with a budget of one hit on single-ray lookups (the any-hit
    program ending each ray) must report exactly the default mode's first
    surviving hit per ray and never do more traversal work."""

    def _setup(self, primitive, rng):
        gaps = rng.integers(1, 9, size=600)
        xs = np.cumsum(gaps).astype(np.float64)
        points = np.column_stack([xs, np.zeros_like(xs), np.zeros_like(xs)])
        buffer = build_input_for_points(primitive, points)
        bvh = build_bvh(buffer)
        picks = rng.integers(0, xs.shape[0], size=300)
        k = xs[picks]
        # From-zero parallel point rays: the worst case the any-hit
        # termination exists for (they overlap every preceding key).
        rays = RayBatch(
            origins=np.zeros((k.shape[0], 3)),
            directions=np.tile([1.0, 0.0, 0.0], (k.shape[0], 1)),
            tmin=k - 0.5,
            tmax=k + 0.5,
        )
        return bvh, buffer, rays

    @staticmethod
    def _first_hits(hits: HitRecords) -> dict[int, int]:
        first: dict[int, int] = {}
        for r, p in zip(hits.ray_indices.tolist(), hits.prim_indices.tolist()):
            first.setdefault(r, p)
        return first

    @pytest.mark.parametrize("primitive", PRIMITIVES)
    @pytest.mark.parametrize("block", [None, 48])
    def test_matches_default_mode_first_hits(self, primitive, block, frontier_block):
        rng = np.random.default_rng(71)
        bvh, buffer, rays = self._setup(primitive, rng)
        frontier_block(block)
        default = TraversalEngine(bvh, buffer)
        all_hits = default.trace(rays)
        early = TraversalEngine(bvh, buffer)
        any_hits = early.trace(rays, mode="first_k", limit=1)

        assert self._first_hits(any_hits) == self._first_hits(all_hits)
        # Exactly one hit per hitting ray.
        assert np.unique(any_hits.ray_indices).size == any_hits.count
        # Early exit never does more work, and bookkeeping stays exact.
        a, b = default.counters, early.counters
        assert b.node_visits <= a.node_visits
        assert b.prim_tests <= a.prim_tests
        assert b.traversal_rounds <= a.traversal_rounds
        assert b.rays_with_hits == a.rays_with_hits
        assert b.rays_without_hits == a.rays_without_hits
        assert b.prim_hits == any_hits.count
        assert b.node_bytes_read == b.node_visits * bvh.node_bytes()

    @pytest.mark.parametrize("block", [None, 48])
    def test_callback_filtered_first_hits(self, block, frontier_block):
        rng = np.random.default_rng(73)
        bvh, buffer, rays = self._setup("triangle", rng)
        keep_even = lambda r, p, l: (p % 2 == 0)
        frontier_block(block)
        default = TraversalEngine(bvh, buffer)
        all_hits = default.trace(rays, any_hit=keep_even)
        early = TraversalEngine(bvh, buffer)
        any_hits = early.trace(rays, any_hit=keep_even, mode="first_k", limit=1)
        assert self._first_hits(any_hits) == self._first_hits(all_hits)
        assert np.all(any_hits.prim_indices % 2 == 0)


@pytest.mark.parametrize("builder", BUILDERS)
def test_refit_bounds_bit_identical(builder):
    rng = np.random.default_rng(5)
    n = 400
    points = rng.uniform(0, 500, size=(n, 3))
    buffer = TriangleBuffer(make_triangle_vertices(points))
    bvh = build_bvh(buffer, BvhBuildOptions(builder=builder, allow_update=True))
    moved = TriangleBuffer(make_triangle_vertices(points[rng.permutation(n)]))
    golden_mins, golden_maxs = reference_refit_bounds(bvh, moved)
    refit_accel(bvh, moved)
    assert np.array_equal(bvh.node_mins, golden_mins.astype(np.float32))
    assert np.array_equal(bvh.node_maxs, golden_maxs.astype(np.float32))


class TestHashTableEquivalence:
    @pytest.mark.parametrize(
        "load_factor,group_size", [(0.8, 8), (0.5, 4), (0.95, 8), (0.9, 1)]
    )
    def test_bulk_build_matches_sequential_inserts(self, load_factor, group_size):
        rng = np.random.default_rng(13)
        n = 1500
        keys = rng.integers(0, n // 2, size=n).astype(np.uint64)
        table = WarpCoreHashTable(load_factor=load_factor, group_size=group_size)
        result = table.build(keys)
        group_of = (
            _mix_hash(table.keys) % np.uint64(table._num_groups)
        ).astype(np.int64)
        golden_keys, golden_rows, golden_probes = reference_hashtable_insert(
            table.keys, group_of, table._num_groups, table.group_size
        )

        # Probe statistics and per-group occupancy are insertion-order
        # invariants; both must match the sequential loop exactly.
        assert result.stats["avg_probe_groups_insert"] * n == pytest.approx(
            golden_probes
        )
        fill_new = (table._slot_keys.reshape(-1, group_size) != _EMPTY).sum(axis=1)
        fill_golden = (golden_keys.reshape(-1, group_size) != _EMPTY).sum(axis=1)
        assert np.array_equal(fill_new, fill_golden)
        # Same stored (key, rowID) pairs overall.
        occupied = table._slot_keys != _EMPTY
        golden_occupied = golden_keys != _EMPTY
        assert sorted(
            zip(table._slot_keys[occupied].tolist(), table._slot_rows[occupied].tolist())
        ) == sorted(
            zip(golden_keys[golden_occupied].tolist(), golden_rows[golden_occupied].tolist())
        )

    def test_lookups_match_sequentially_built_table(self):
        rng = np.random.default_rng(31)
        n = 2000
        keys = rng.integers(0, n // 3, size=n).astype(np.uint64)
        queries = rng.integers(0, n // 3 + 50, size=800).astype(np.uint64)

        table = WarpCoreHashTable()
        table.build(keys)
        run = table.point_lookup(queries)

        golden_table = WarpCoreHashTable()
        golden_table.build(keys)
        group_of = (
            _mix_hash(golden_table.keys) % np.uint64(golden_table._num_groups)
        ).astype(np.int64)
        golden_table._slot_keys, golden_table._slot_rows, _ = (
            reference_hashtable_insert(
                golden_table.keys,
                group_of,
                golden_table._num_groups,
                golden_table.group_size,
            )
        )
        golden_run = golden_table.point_lookup(queries)

        assert np.array_equal(run.hits_per_lookup, golden_run.hits_per_lookup)
        assert run.aggregate == golden_run.aggregate
        assert run.stats == golden_run.stats
        # result_rows reports the *minimum* matching rowID, which is
        # independent of slot layout — so the bulk-built and sequentially
        # built tables must agree exactly.
        assert np.array_equal(run.result_rows, golden_run.result_rows)
        hit = run.result_rows != MISS_SENTINEL
        assert np.array_equal(
            table.keys[run.result_rows[hit].astype(np.int64)], queries[hit]
        )

    def test_empty_and_tiny_tables(self):
        table = WarpCoreHashTable()
        result = table.build(np.array([7], dtype=np.uint64))
        assert result.num_keys == 1
        run = table.point_lookup(np.array([7, 8], dtype=np.uint64))
        assert run.hits_per_lookup.tolist() == [1, 0]


class TestCollectRowIds:
    def test_groups_and_order_preserved(self):
        hits = HitRecords(
            ray_indices=np.array([0, 1, 2, 3, 4], dtype=np.int64),
            prim_indices=np.array([10, 11, 12, 13, 14], dtype=np.int64),
            lookup_ids=np.array([2, 0, 2, 2, 5], dtype=np.int64),
            num_rays=5,
        )
        collected = collect_row_ids(hits, 7)
        assert len(collected) == 7
        assert collected[0].tolist() == [11]
        assert collected[2].tolist() == [10, 12, 13]
        assert collected[5].tolist() == [14]
        for lookup_id in (1, 3, 4, 6):
            assert collected[lookup_id].size == 0
            assert collected[lookup_id].dtype == np.uint64

    def test_empty_hits(self):
        hits = HitRecords(
            ray_indices=np.zeros(0, dtype=np.int64),
            prim_indices=np.zeros(0, dtype=np.int64),
            lookup_ids=np.zeros(0, dtype=np.int64),
            num_rays=0,
        )
        collected = collect_row_ids(hits, 3)
        assert [c.size for c in collected] == [0, 0, 0]

    def test_matches_naive_grouping_on_random_hits(self):
        rng = np.random.default_rng(41)
        m, num_lookups = 5000, 300
        hits = HitRecords(
            ray_indices=np.arange(m, dtype=np.int64),
            prim_indices=rng.integers(0, 10000, size=m),
            lookup_ids=rng.integers(0, num_lookups, size=m),
            num_rays=m,
        )
        collected = collect_row_ids(hits, num_lookups)
        for lookup_id in range(num_lookups):
            expected = hits.prim_indices[hits.lookup_ids == lookup_id].astype(np.uint64)
            assert np.array_equal(collected[lookup_id], expected)
