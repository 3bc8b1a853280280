"""Tests for the BVH builders and their invariants."""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.core.layout import shard_segment
from repro.rtx import bvh as bvh_module
from repro.rtx._reference import reference_refit_bounds
from repro.rtx.build_input import build_input_for_points
from repro.rtx.bvh import Bvh, BvhBuildOptions, build_bvh, fit_bounds_bottom_up, sort_codes
from repro.rtx.forest import build_forest, delta_update_forest, forest_from_saved
from repro.rtx.geometry import (
    AabbBuffer,
    AnchoredTriangleBuffer,
    SphereBuffer,
    TriangleBuffer,
    make_triangle_vertices,
)
from repro.rtx.refit import refit_accel


def _buffer(n: int, spread: str = "line") -> TriangleBuffer:
    if spread == "line":
        points = np.column_stack([np.arange(n), np.zeros(n), np.zeros(n)])
    else:
        rng = np.random.default_rng(3)
        points = rng.uniform(0, 1000, size=(n, 3))
    return TriangleBuffer(make_triangle_vertices(points.astype(np.float64)))


def _check_invariants(bvh: Bvh, buffer: TriangleBuffer) -> None:
    """Structural invariants every well-formed BVH must satisfy."""
    # 1. The permutation covers every primitive exactly once.
    assert sorted(bvh.prim_indices.tolist()) == list(range(len(buffer)))
    # 2. Every leaf range lies within bounds and leaves partition the range.
    leaves = np.flatnonzero(bvh.left < 0)
    covered = []
    for leaf in leaves:
        first = int(bvh.first_prim[leaf])
        count = int(bvh.prim_count[leaf])
        assert count >= 1
        covered.extend(range(first, first + count))
    assert sorted(covered) == list(range(len(buffer)))
    # 3. Every node's bounds enclose its primitives' bounds.
    prim_mins, prim_maxs = buffer.compute_aabbs()
    for leaf in leaves:
        first = int(bvh.first_prim[leaf])
        count = int(bvh.prim_count[leaf])
        idx = bvh.prim_indices[first : first + count]
        assert np.all(bvh.node_mins[leaf] <= prim_mins[idx].min(axis=0) + 1e-5)
        assert np.all(bvh.node_maxs[leaf] >= prim_maxs[idx].max(axis=0) - 1e-5)
    # 4. Parents enclose their children.
    inner = np.flatnonzero(bvh.left >= 0)
    for node in inner:
        l = int(bvh.left[node])
        r = l + 1
        assert np.all(bvh.node_mins[node] <= bvh.node_mins[l] + 1e-5)
        assert np.all(bvh.node_mins[node] <= bvh.node_mins[r] + 1e-5)
        assert np.all(bvh.node_maxs[node] >= bvh.node_maxs[l] - 1e-5)
        assert np.all(bvh.node_maxs[node] >= bvh.node_maxs[r] - 1e-5)


class TestBuildOptions:
    def test_unknown_builder_rejected(self):
        with pytest.raises(ValueError):
            BvhBuildOptions(builder="octree").validate()

    def test_leaf_size_must_be_positive(self):
        with pytest.raises(ValueError):
            BvhBuildOptions(max_leaf_size=0).validate()

    def test_morton_bits_range(self):
        with pytest.raises(ValueError):
            BvhBuildOptions(morton_bits=25).validate()

    def test_sah_bins_range(self):
        with pytest.raises(ValueError):
            BvhBuildOptions(sah_bins=1).validate()


@pytest.mark.parametrize("builder", ["lbvh", "sah", "median"])
class TestBuilders:
    def test_invariants_on_line(self, builder):
        buffer = _buffer(100)
        bvh = build_bvh(buffer, BvhBuildOptions(builder=builder))
        _check_invariants(bvh, buffer)

    def test_invariants_on_random_cloud(self, builder):
        buffer = _buffer(200, spread="cloud")
        bvh = build_bvh(buffer, BvhBuildOptions(builder=builder))
        _check_invariants(bvh, buffer)

    def test_leaf_size_respected(self, builder):
        buffer = _buffer(128)
        bvh = build_bvh(buffer, BvhBuildOptions(builder=builder, max_leaf_size=2))
        leaves = bvh.left < 0
        assert bvh.prim_count[leaves].max() <= 2

    def test_single_primitive(self, builder):
        buffer = _buffer(1)
        bvh = build_bvh(buffer, BvhBuildOptions(builder=builder))
        assert bvh.node_count == 1
        assert bvh.leaf_count == 1

    def test_duplicate_positions_handled(self, builder):
        # Several primitives at identical coordinates (duplicate keys) must
        # not break the build.
        points = np.zeros((16, 3))
        buffer = TriangleBuffer(make_triangle_vertices(points))
        bvh = build_bvh(buffer, BvhBuildOptions(builder=builder, max_leaf_size=4))
        _check_invariants(bvh, buffer)


class TestBvhProperties:
    def test_depth_grows_logarithmically(self):
        shallow = build_bvh(_buffer(64))
        deep = build_bvh(_buffer(1024))
        assert deep.depth() > shallow.depth()
        assert deep.depth() <= 2 * np.log2(1024) + 4

    def test_node_count_bounded(self):
        bvh = build_bvh(_buffer(256), BvhBuildOptions(max_leaf_size=1))
        assert bvh.node_count <= 2 * 256

    def test_empty_build_rejected(self):
        with pytest.raises(ValueError):
            build_bvh(TriangleBuffer(np.zeros((0, 3, 3), dtype=np.float32)))

    def test_surface_areas_nonnegative(self):
        bvh = build_bvh(_buffer(32))
        assert (bvh.surface_areas() >= 0).all()


class TestBuildInputIntegration:
    @pytest.mark.parametrize("primitive", ["triangle", "sphere", "aabb"])
    def test_build_via_build_input(self, primitive):
        points = np.column_stack([np.arange(50), np.zeros(50), np.zeros(50)])
        buffer = build_input_for_points(primitive, points)
        buffer_type = {
            "triangle": AnchoredTriangleBuffer,
            "sphere": SphereBuffer,
            "aabb": AabbBuffer,
        }[primitive]
        assert type(buffer) is buffer_type
        bvh = build_bvh(buffer)
        assert bvh.num_primitives == 50

    def test_unknown_primitive_rejected(self):
        with pytest.raises(ValueError):
            build_input_for_points("torus", np.zeros((3, 3)))

    def test_build_input_byte_accounting(self):
        points = np.column_stack([np.arange(10), np.zeros(10), np.zeros(10)])
        tri = build_input_for_points("triangle", points)
        sph = build_input_for_points("sphere", points)
        box = build_input_for_points("aabb", points)
        assert tri.primitive_bytes() > box.primitive_bytes() > sph.primitive_bytes()
        assert len(tri) == len(sph) == len(box) == 10


class TestSortCodes:
    """The tie-aware sort returns ``argsort(kind="stable")``'s order."""

    @staticmethod
    def _codes(duplicate_share: float, n: int = 1 << 14) -> np.ndarray:
        rng = np.random.default_rng(int(duplicate_share * 1000))
        distinct = max(1, round(n * (1 - duplicate_share)))
        values = rng.choice(1 << 62, size=distinct, replace=False).astype(np.uint64)
        picks = np.concatenate([np.arange(distinct), rng.integers(0, distinct, n - distinct)])
        codes = values[rng.permutation(picks)]
        assert np.unique(codes).size == distinct
        return codes

    @pytest.mark.parametrize("duplicate_share", [0.0, 0.5, 0.94, 0.999, 1.0])
    def test_equals_the_stable_argsort(self, duplicate_share):
        codes = self._codes(duplicate_share)
        order, sorted_codes = sort_codes(codes)
        want = np.argsort(codes, kind="stable")
        assert np.array_equal(order, want)
        assert np.array_equal(sorted_codes, codes[want])

    @pytest.mark.parametrize(
        "codes",
        [[7], [3, 3], [5, 5, 1, 1, 1, 9, 5], [0, 2, 1, 2, 0], [1, 2, 3, 4], [4, 3, 2, 1]],
    )
    def test_runs_at_either_end(self, codes):
        codes = np.array(codes, dtype=np.uint64)
        order, _ = sort_codes(codes)
        assert np.array_equal(order, np.argsort(codes, kind="stable"))


class _Boxes:
    """A stand-in primitive buffer whose bounds are given ``(n, 3)`` arrays."""

    def __init__(self, mins: np.ndarray, maxs: np.ndarray):
        self.mins, self.maxs = mins, maxs

    def compute_aabbs(self):
        return self.mins, self.maxs


class TestFloat32Fit:
    """The fit runs on float32 columns; rounding to float32 is monotone, so
    it equals the golden float64 fit cast to float32."""

    def test_build(self):
        buffer = _buffer(700, spread="cloud")
        for builder in ("lbvh", "sah", "median"):
            bvh = build_bvh(buffer, BvhBuildOptions(builder=builder))
            mins, maxs = reference_refit_bounds(bvh, buffer)
            assert np.array_equal(bvh.node_mins, mins.astype(np.float32)), builder
            assert np.array_equal(bvh.node_maxs, maxs.astype(np.float32)), builder

    def test_refit(self):
        rng = np.random.default_rng(12)
        points = rng.uniform(0, 500, size=(600, 3))
        bvh = build_bvh(
            TriangleBuffer(make_triangle_vertices(points)), BvhBuildOptions(allow_update=True)
        )
        moved = TriangleBuffer(make_triangle_vertices(points[rng.permutation(600)]))
        mins, maxs = reference_refit_bounds(bvh, moved)
        refit_accel(bvh, moved)
        assert np.array_equal(bvh.node_mins, mins.astype(np.float32))
        assert np.array_equal(bvh.node_maxs, maxs.astype(np.float32))

    def test_float64_columns_not_representable_in_float32(self):
        # Float64 bounds that float32 cannot hold: fitting their float32
        # roundings equals fitting them in float64 and rounding the result.
        rng = np.random.default_rng(13)
        bvh = build_bvh(_buffer(500, spread="cloud"), BvhBuildOptions(max_leaf_size=3))
        mins = rng.uniform(-1e3, 1e3, size=(3, 500))
        maxs = mins + rng.uniform(0, 1e-3, size=(3, 500))
        topology = (bvh.left, bvh.first_prim, bvh.prim_count, bvh.prim_indices)
        got = fit_bounds_bottom_up(
            *topology, mins.astype(np.float32), maxs.astype(np.float32), bvh.level_ranges()
        )
        golden = reference_refit_bounds(bvh, _Boxes(mins.T, maxs.T))
        for fitted, want in zip(got, golden):
            assert fitted.dtype == np.float32 and fitted.flags["C_CONTIGUOUS"]
            assert np.array_equal(fitted, want.astype(np.float32))


class TestLevelLists:
    """A build hands the tree the per-level node lists it has anyway."""

    @pytest.mark.parametrize("builder", ["lbvh", "sah", "median"])
    def test_handed_levels_are_the_walked_ones(self, builder):
        built = build_bvh(_buffer(900, spread="cloud"), BvhBuildOptions(builder=builder))
        handed = built._levels
        assert handed is not None
        walked = dataclasses.replace(built, _levels=None).level_ranges()
        assert len(handed) == len(walked) == built.depth() + 1
        for level, want in zip(handed, walked):
            assert np.array_equal(np.sort(level), np.sort(want))

    def test_rebuilt_shard_trees_keep_none(self):
        rng = np.random.default_rng(21)
        points = rng.uniform(0, 1000, size=(2048, 3))
        old = TriangleBuffer(make_triangle_vertices(points))
        forest = build_forest(old, BvhBuildOptions(shard_bits=4))
        assert forest.bvh._levels is not None
        points[:64] = rng.uniform(0, 1000, size=(64, 3))
        updated, stats = delta_update_forest(
            forest, old, TriangleBuffer(make_triangle_vertices(points))
        )
        assert stats.rebuilt_trees > 0
        assert all(tree._levels is None for tree in updated.shard_trees.values())


def test_lbvh_build_calls_morton_encode_once(monkeypatch):
    # Benchmarks time the Morton step by wrapping this module-level name.
    shapes = []
    encode = bvh_module.morton_encode_3d

    def spy(points, bits=21, bounds=None):
        shapes.append(points.shape)
        return encode(points, bits, bounds)

    monkeypatch.setattr(bvh_module, "morton_encode_3d", spy)
    build_bvh(_buffer(300, spread="cloud"))
    assert shapes == [(300, 3)]


def _primitives(kind: str, value: float | None = None) -> object:
    """64 primitives of ``kind``; ``value`` replaces the y coordinate of rows
    17 and 40."""
    points = np.random.default_rng(9).uniform(0, 100, size=(64, 3)).astype(np.float32)
    if value is not None:
        points[[17, 40], 1] = value
    if kind == "aabb":
        return AabbBuffer(points, points + 1)
    if kind == "sphere":
        return SphereBuffer(points)
    return AnchoredTriangleBuffer(points)


@pytest.mark.parametrize("kind", ["aabb", "sphere", "triangle"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
class TestNonFiniteRejected:
    """A primitive with a non-finite bound fails the operation with a
    ``ValueError`` naming its row, before any arithmetic warns."""

    @staticmethod
    def _rejects(operation):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="primitive 17 "):
                operation()

    @pytest.mark.parametrize("builder", ["lbvh", "sah", "median"])
    def test_build(self, kind, value, builder):
        bad = _primitives(kind, value)
        self._rejects(lambda: build_bvh(bad, BvhBuildOptions(builder=builder)))

    def test_forest_build(self, kind, value):
        bad = _primitives(kind, value)
        self._rejects(lambda: build_forest(bad, BvhBuildOptions(shard_bits=3)))

    def test_forest_load(self, kind, value):
        options = BvhBuildOptions(shard_bits=3)
        forest = build_forest(_primitives(kind), options)
        segments = [shard_segment(forest, b) for b in sorted(forest.shard_rows)]
        self._rejects(lambda: forest_from_saved(_primitives(kind, value), options, segments))

    def test_delta_update(self, kind, value):
        good = _primitives(kind)
        forest = build_forest(good, BvhBuildOptions(shard_bits=3))
        self._rejects(lambda: delta_update_forest(forest, good, _primitives(kind, value)))

    def test_refit(self, kind, value):
        bvh = build_bvh(_primitives(kind), BvhBuildOptions(allow_update=True))
        before = bvh.node_mins.copy(), bvh.node_maxs.copy()
        self._rejects(lambda: refit_accel(bvh, _primitives(kind, value)))
        assert np.array_equal(bvh.node_mins, before[0])
        assert np.array_equal(bvh.node_maxs, before[1])
        assert bvh.refit_generation == 0


def test_forest_load_names_the_first_bad_row_of_any_axis():
    # The load's partition reads one axis at a time; a bad row on a later
    # axis still comes first when it is the lower row, as in a build.
    points = np.random.default_rng(9).uniform(0, 100, size=(64, 3)).astype(np.float32)
    options = BvhBuildOptions(shard_bits=3)
    forest = build_forest(AnchoredTriangleBuffer(points), options)
    segments = [shard_segment(forest, b) for b in sorted(forest.shard_rows)]
    points[40, 0], points[17, 2] = np.nan, np.inf
    bad = AnchoredTriangleBuffer(points)
    with pytest.raises(ValueError, match="primitive 17 ") as built:
        build_forest(bad, options)
    with pytest.raises(ValueError) as loaded:
        forest_from_saved(bad, options, segments)
    assert str(loaded.value) == str(built.value)
