"""Morton-prefix sharded BVH forest: cut and splice, delta updates, persistence checks.

The load-bearing invariant — forest traversal bit-identical to the
single-tree engine across all trace modes — is pinned by the randomised
differential harness (``tests/test_trace_differential.py``, sharding axis).
This suite covers the forest-specific surface: the cut against the
per-shard oracle (each bucket's rows sorted and built on their own) and
the splice of the saved state back into the single tree, on shard-partition
edge cases (empty shards, everything in one shard, more shards than keys,
duplicate-heavy columns, bucket-spanning mixed leaves) and on
``DIFF_SEED``-driven random columns; delta-shard updates on every buffer
kind an index builds (dirty-subset rebuilds, no-op detection, scene bounds
decided from the changed rows, grid rescales, growing/shrinking columns, a
``DIFF_SEED``-driven chain checked against fresh builds, copy-on-write, and
boxes computed for the changed and dirty rows only); and the RXIndex
plumbing around them.
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
    BVH_ARRAY_FIELDS,
    BvhBuildOptions,
    build_bvh,
    build_lbvh_over_sorted,
    bvh_arrays_diff,
    bvh_from_arrays,
)
from repro.rtx.forest import (
    ShardPartitionError,
    _checked_sizes,
    build_forest,
    delta_update_forest,
    forest_from_saved,
    forest_state_segments,
    plan_top_level,
)
from repro.rtx.geometry import (
    AabbBuffer,
    AnchoredTriangleBuffer,
    TriangleBuffer,
    make_triangle_vertices,
)
from repro.rtx.morton import morton_encode_3d
from repro.workloads import clustered_key_swaps, dense_shuffled_keys

DIFF_SEED = int(os.environ.get("DIFF_SEED", "20260727"))


def _buffer(points: np.ndarray) -> TriangleBuffer:
    return TriangleBuffer(make_triangle_vertices(points))


def _line(xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    return np.column_stack([xs, np.zeros_like(xs), np.zeros_like(xs)])


#: the buffers an index builds, by name: key mode and primitive
_INDEX_BUFFERS = {
    "triangle-3d": (KeyMode.THREE_D, "triangle"),
    "triangle-extended": (KeyMode.EXTENDED, "triangle"),
    "sphere": (KeyMode.THREE_D, "sphere"),
    "aabb": (KeyMode.THREE_D, "aabb"),
}
#: every buffer kind the delta-update tests run on: vertex triangles on a
#: line, and the buffers an index builds
_DELTA_KINDS = ["vertex-triangle", *_INDEX_BUFFERS]


def _key_buffer(kind: str, keys):
    """The ``kind`` buffer over the integer key column ``keys``."""
    keys = np.asarray(keys, dtype=np.uint64)
    if kind == "vertex-triangle":
        return _buffer(_line(keys))
    mode, primitive = _INDEX_BUFFERS[kind]
    points, x_half_extent = make_codec(mode).encode_points(keys)
    return build_input_for_points(
        primitive, points, half_extent=0.5, x_half_extent=x_half_extent
    ).primitive_buffer()


def _assert_trees_equal(got, want, label=""):
    diff = bvh_arrays_diff(got, want)
    assert diff is None, (label, diff)


def _forest_bytes(forest) -> dict[str, bytes]:
    """Every array a forest holds, as bytes."""
    held = {
        "bucket_of_row": forest.bucket_of_row,
        "scene_lo": forest.scene_lo,
        "scene_hi": forest.scene_hi,
        "shard_ids": forest.shard_ids,
    }
    held.update({f"bvh.{name}": getattr(forest.bvh, name) for name in BVH_ARRAY_FIELDS})
    held.update({f"rows.{b}": rows for b, rows in forest.shard_rows.items()})
    for b, tree in forest.shard_trees.items():
        held.update({f"tree.{b}.{name}": getattr(tree, name) for name in BVH_ARRAY_FIELDS})
    return {name: f"{a.dtype} {a.shape}".encode() + a.tobytes() for name, a in held.items()}


def _assert_forest_is_fresh(forest, buffer, label=""):
    """``forest`` is what a fresh build over ``buffer`` gives: its tree is
    ``build_bvh``'s bit for bit, and its partition and saved state are a
    fresh ``build_forest``'s byte for byte."""
    _assert_trees_equal(forest.bvh, build_bvh(buffer, forest.options), label)
    fresh = build_forest(buffer, forest.options)
    for name in ("bucket_of_row", "scene_lo", "scene_hi", "shard_ids"):
        assert np.array_equal(getattr(forest, name), getattr(fresh, name)), (label, name)
    got, want = list(forest_state_segments(forest)), list(forest_state_segments(fresh))
    assert [(b, meta) for b, _, meta in got] == [(b, meta) for b, _, meta in want], label
    for (b, arrays, _), (_, fresh_arrays, _) in zip(got, want):
        assert arrays.keys() == fresh_arrays.keys(), (label, b)
        for name, array in arrays.items():
            assert array.dtype == fresh_arrays[name].dtype, (label, b, name)
            assert array.tobytes() == fresh_arrays[name].tobytes(), (label, b, name)


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
        assert forest.non_empty_shards < 1 << forest.options.shard_bits

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
    @pytest.fixture(params=_DELTA_KINDS)
    def kind(self, request):
        return request.param

    @staticmethod
    def _forest(kind, keys, shard_bits=6):
        buf = _key_buffer(kind, keys)
        return build_forest(buf, BvhBuildOptions(shard_bits=shard_bits)), buf

    @staticmethod
    def _check(kind, forest, old_buf, new_keys, label):
        """Update ``forest`` to ``new_keys`` and require the result to be a
        fresh build's."""
        new_buf = _key_buffer(kind, new_keys)
        updated, stats = delta_update_forest(forest, old_buf, new_buf)
        _assert_forest_is_fresh(updated, _key_buffer(kind, new_keys), label)
        return updated, stats, new_buf

    def test_noop_update_rebuilds_nothing(self, kind):
        keys = np.arange(1000)
        forest, buf = self._forest(kind, keys)
        updated, stats = delta_update_forest(forest, buf, _key_buffer(kind, keys))
        assert stats.noop
        assert stats.dirty_shards == 0 and stats.rebuilt_trees == 0
        assert updated is forest  # the original forest object, untouched

    def test_local_change_dirties_a_subset(self, kind):
        keys = np.arange(4096)
        forest, buf = self._forest(kind, keys, shard_bits=12)
        new_keys = keys.copy()
        new_keys[[100, 101]] = new_keys[[101, 100]]
        _, stats, _ = self._check(kind, forest, buf, new_keys, "local")
        assert 1 <= stats.dirty_shards < forest.non_empty_shards
        assert stats.dirty_keys < stats.total_keys

    @staticmethod
    def _lattice() -> np.ndarray:
        grid = np.arange(16, dtype=np.float64)
        return np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), -1).reshape(-1, 3)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_a_move_along_one_axis_is_seen(self, axis):
        # Two rows swap their coordinate on one axis only, so only that
        # axis's column tells the update what changed.
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

    def test_chained_updates_stay_exact(self, kind):
        rng = np.random.default_rng(5)
        keys = rng.permutation(2048)
        forest, buf = self._forest(kind, keys, shard_bits=9)
        for step in range(3):
            sel = rng.choice(keys.shape[0] - 1, 5, replace=False)
            new_keys = keys.copy()
            new_keys[sel], new_keys[sel + 1] = keys[sel + 1], keys[sel]
            forest, _, buf = self._check(kind, forest, buf, new_keys, f"chain{step}")
            keys = new_keys

    @pytest.mark.parametrize(
        "update, rescaled",
        [
            # Row 1023 still holds the top bound that row 1024 held too.
            (lambda keys: _moved(keys, 1024, 500), False),
            (lambda keys: keys[:1024], False),
            # The only row at the bottom bound moves in, or both copies of
            # the top key leave.
            (lambda keys: _moved(keys, 0, 500), True),
            (lambda keys: keys[:1023], True),
            # An entering row, or a grown tail, lies past the top bound.
            (lambda keys: _moved(keys, 5, 5000), True),
            (lambda keys: np.append(keys, 5000), True),
        ],
        ids=[
            "duplicate-extreme-moves-in",
            "shrink-drops-a-duplicate-extreme",
            "only-extreme-moves-in",
            "shrink-drops-every-extreme",
            "entering-row-widens",
            "grown-tail-past-the-bound",
        ],
    )
    def test_scene_bounds_follow_from_the_changed_rows(self, kind, update, rescaled):
        # One key per value 0..1023, and a second copy of 1023 in row 1024.
        keys = np.append(np.arange(1024), 1023)
        forest, buf = self._forest(kind, keys)
        _, stats, _ = self._check(kind, forest, buf, update(keys), "bounds")
        assert not stats.noop
        assert stats.rescaled is rescaled
        if rescaled:
            assert stats.dirty_keys == stats.total_keys

    def test_growing_and_shrinking_column(self, kind):
        keys = np.arange(1024)
        forest, buf = self._forest(kind, keys, shard_bits=9)
        grown = np.concatenate([keys, [500, 501, 502]])
        updated, stats, new_buf = self._check(kind, forest, buf, grown, "grow")
        assert stats.total_keys == 1027 and not stats.rescaled
        assert stats.dirty_shards < updated.non_empty_shards
        _, stats, _ = self._check(kind, updated, new_buf, grown[:-10], "shrink")
        assert stats.total_keys == 1017

    def test_random_chain_matches_fresh_builds(self, kind):
        """A ``DIFF_SEED``-driven chain of swaps, rewrites, growth,
        shrinkage and no-ops over a duplicate-heavy column; every step is a
        fresh build's tree, partition and saved state."""
        rng = np.random.default_rng([DIFF_SEED, 31, _DELTA_KINDS.index(kind)])
        n = int(rng.integers(200, 2000))
        span = int(rng.integers(n, 4 * n))
        keys = rng.integers(0, span, n)
        options = BvhBuildOptions(
            shard_bits=int(rng.integers(1, 13)), max_leaf_size=int(rng.integers(1, 9))
        )
        buf = _key_buffer(kind, keys)
        forest = build_forest(buf, options)
        for step in range(24):
            op = ("swap", "rewrite", "grow", "shrink", "noop")[int(rng.integers(0, 5))]
            n = keys.shape[0]
            new_keys = keys.copy()
            if op == "swap":
                a, b = rng.integers(0, n, (2, int(rng.integers(1, 16))))
                new_keys[a], new_keys[b] = keys[b], keys[a]
            elif op == "rewrite":
                rows = rng.integers(0, n, int(rng.integers(1, 16)))
                new_keys[rows] = rng.integers(0, span, rows.shape[0])
            elif op == "grow":
                new_keys = np.append(keys, rng.integers(0, span, int(rng.integers(1, 16))))
            elif op == "shrink":
                new_keys = keys[: n - int(rng.integers(1, 16))]
            label = f"step {step} {op}"
            updated, stats, buf = self._check(kind, forest, buf, new_keys, label)
            assert stats.noop == (op == "noop" or np.array_equal(new_keys, keys)), label
            assert (updated is forest) == stats.noop, label
            forest, keys = updated, new_keys

    def test_update_leaves_the_old_forest_untouched(self, kind):
        # Old epochs pinned by in-flight windows keep reading the forest an
        # update started from: every update patches copies.
        rng = np.random.default_rng(8)
        keys = rng.permutation(4096)
        forest, buf = self._forest(kind, keys, shard_bits=9)
        before = _forest_bytes(forest)
        swapped = keys.copy()
        swapped[[7, 8, 900, 901]] = keys[[8, 7, 901, 900]]
        for label, new_keys in (
            ("swap", swapped),
            ("grow", np.append(swapped, [10, 11])),
            ("shrink", swapped[:-3]),
            ("rescale", _moved(keys, 3, 9000)),
        ):
            self._check(kind, forest, buf, new_keys, label)
            assert _forest_bytes(forest) == before, label

    # The O(changed) contract, pinned by counts rather than time.

    @pytest.fixture
    def boxed_rows(self, monkeypatch) -> list:
        """The row count of every ``compute_aabbs`` call on an index's
        buffers, ``None`` for a whole buffer."""
        calls = []
        compute_aabbs = AnchoredTriangleBuffer.compute_aabbs

        def spy(self, rows=None):
            calls.append(None if rows is None else len(rows))
            return compute_aabbs(self) if rows is None else compute_aabbs(self, rows)

        monkeypatch.setattr(AnchoredTriangleBuffer, "compute_aabbs", spy)
        return calls

    @staticmethod
    def _dense_index(n: int) -> tuple[RXIndex, np.ndarray]:
        keys = dense_shuffled_keys(n, seed=29)
        index = RXIndex(RXConfig.paper_default().with_delta_updates(shard_bits=12))
        index.build(keys)
        return index, keys

    def test_a_noop_update_computes_no_boxes(self, boxed_rows):
        index, keys = self._dense_index(1 << 14)
        boxed_rows.clear()
        assert index.update(keys.copy()).stats["noop"]
        assert boxed_rows == []

    def test_a_small_swap_boxes_its_changed_and_dirty_rows_only(self, boxed_rows):
        # Its changed rows in both buffers, the dirty shards' rows and the
        # top leaves' rows: never a whole buffer.
        n = 1 << 14
        index, keys = self._dense_index(n)
        new_keys = clustered_key_swaps(keys, 2, seed=30)
        changed = int(np.count_nonzero(new_keys != keys))
        assert changed == 4
        boxed_rows.clear()
        stats = index.update(new_keys).stats
        assert None not in boxed_rows, "a whole buffer was boxed"
        forest = index.accel.forest
        top_leaf_rows = sum(
            rows.shape[0] for b, rows in forest.shard_rows.items() if b not in forest.shard_trees
        )
        assert sum(boxed_rows) <= 2 * changed + stats["dirty_keys"] + top_leaf_rows
        assert sum(boxed_rows) < n // 4
        _assert_forest_is_fresh(forest, index.accel.build_input.primitive_buffer())


def _moved(keys: np.ndarray, row: int, key: int) -> np.ndarray:
    """``keys`` with ``row`` rewritten to ``key``."""
    new_keys = keys.copy()
    new_keys[row] = key
    return new_keys


def _chain_tree(leaves: list[tuple[int, int]], rows: int):
    """A shard tree the splice can place, leaning right: inner node ``2i``
    has the children ``2i + 1`` and ``2i + 2``, and its leaves hold the
    ``(first, count)`` ranges ``leaves`` in node order."""
    k = 2 * len(leaves) - 1
    left, right = np.full((2, k), -1, dtype=np.int64)
    inner = np.arange(0, k - 1, 2)
    left[inner], right[inner] = inner + 1, inner + 2
    first_prim, prim_count = np.zeros((2, k), dtype=np.int64)
    first_prim[left < 0], prim_count[left < 0] = np.array(leaves, dtype=np.int64).T
    boxes = np.zeros((k, 3), dtype=np.float32)
    arrays = {
        "left": left,
        "right": right,
        "first_prim": first_prim,
        "prim_count": prim_count,
        "node_mins": boxes,
        "node_maxs": boxes.copy(),
        "prim_indices": np.arange(rows, dtype=np.int64),
    }
    return bvh_from_arrays(arrays, rows, BvhBuildOptions())


def _first_untiled_row(leaves, rows) -> tuple[int, int] | None:
    """``(row, leaves holding it)`` of the first row of ``[0, rows)`` that
    not exactly one of the ``(first, count)`` ranges holds."""
    held = np.zeros(rows, dtype=np.int64)
    for first, count in leaves:
        held[first : first + count] += 1
    bad = np.flatnonzero(held != 1)
    return (int(bad[0]), int(held[bad[0]])) if bad.size else None


class TestShardTreeTiling:
    """The leaf-tiling check of persisted shard trees, against a per-row
    count of the leaves that hold each row."""

    def test_leaves_off_row_zero_with_the_right_total_are_refused(self):
        # Distinct starts, every end at a start or the shard's end, and
        # three rows held in all; row 0 is held by no leaf, row 2 by two.
        tree = _chain_tree([(1, 2), (2, 1)], rows=3)
        with pytest.raises(ShardPartitionError, match="0 tree leaves hold its row 0, not one"):
            _checked_sizes([5], [tree], np.array([3]))

    def test_random_leaf_ranges_agree_with_the_row_count(self):
        rng = np.random.default_rng([DIFF_SEED, 9])
        refused = 0
        for case in range(300):
            buckets, trees, all_leaves, shard_rows = [], [], [], []
            for bucket in sorted(rng.choice(64, size=int(rng.integers(1, 4)), replace=False)):
                rows = int(rng.integers(2, 40))
                cut_count = int(rng.integers(1, min(rows, 8)))
                cuts = np.sort(rng.choice(np.arange(1, rows), size=cut_count, replace=False))
                edges = np.concatenate([[0], cuts, [rows]])
                leaves = [[int(a), int(b - a)] for a, b in zip(edges[:-1], edges[1:])]
                rng.shuffle(leaves)
                if rng.random() < 0.6:
                    # Move one start or end by a row or two, staying inside
                    # the shard so only the tiling can fail.
                    leaf = leaves[int(rng.integers(len(leaves)))]
                    if rng.random() < 0.5:
                        leaf[0] = int(np.clip(leaf[0] + rng.choice([-2, -1, 1, 2]), 0, rows - 1))
                    leaf[1] = int(np.clip(leaf[1] + rng.choice([-1, 0, 1]), 1, rows - leaf[0]))
                buckets.append(int(bucket))
                trees.append(_chain_tree(leaves, rows))
                all_leaves.append(leaves)
                shard_rows.append(rows)
            want = next(
                (
                    (bucket, found)
                    for bucket, leaves, rows in zip(buckets, all_leaves, shard_rows)
                    if (found := _first_untiled_row(leaves, rows)) is not None
                ),
                None,
            )
            if want is None:
                sizes = _checked_sizes(buckets, trees, np.array(shard_rows))
                assert sizes.tolist() == [2 * len(leaves) - 1 for leaves in all_leaves]
                continue
            refused += 1
            bucket, (row, held) = want
            with pytest.raises(ShardPartitionError) as excinfo:
                _checked_sizes(buckets, trees, np.array(shard_rows))
            assert excinfo.value.bucket == bucket, case
            assert f"{held} tree leaves hold its row {row}, not one" in str(excinfo.value), case
        assert 50 < refused < 250


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
