"""Tests for primitives, ray batches, and intersection routines."""

import numpy as np
import pytest

from repro.core.config import KeyDecomposition
from repro.core.keycodec import ExtendedCodec, NaiveCodec, ThreeDCodec
from repro.rtx import float32 as f32
from repro.rtx.bvh import box_columns
from repro.rtx.geometry import (
    PAIR_BLOCK,
    AabbBuffer,
    AnchoredTriangleBuffer,
    RayBatch,
    SphereBuffer,
    TriangleBuffer,
    make_aabbs_from_points,
    make_sphere_centers,
    make_triangle_vertices,
    ray_box_overlap_pairs,
)


def _line_points(n: int) -> np.ndarray:
    return np.column_stack([np.arange(n), np.zeros(n), np.zeros(n)]).astype(np.float64)


class TestIntersectionPacks:
    """The cached SoA packs must match the stored geometry and be dropped
    whenever the geometry may have moved (compute_aabbs)."""

    def test_triangle_pack_matches_vertices(self):
        buffer = TriangleBuffer(make_triangle_vertices(_line_points(6)))
        v0x, v0y, v0z, e1x, e1y, e1z, e2x, e2y, e2z = buffer.intersection_pack()
        v64 = buffer.vertices.astype(np.float64)
        assert np.array_equal(np.column_stack([v0x, v0y, v0z]), v64[:, 0])
        assert np.array_equal(np.column_stack([e1x, e1y, e1z]), v64[:, 1] - v64[:, 0])
        assert np.array_equal(np.column_stack([e2x, e2y, e2z]), v64[:, 2] - v64[:, 0])
        assert all(arr.flags.c_contiguous for arr in buffer.intersection_pack())

    def test_pack_is_cached(self):
        buffer = TriangleBuffer(make_triangle_vertices(_line_points(4)))
        assert buffer.intersection_pack() is buffer.intersection_pack()

    @pytest.mark.parametrize("kind", ["triangle", "sphere", "aabb"])
    def test_compute_aabbs_invalidates_pack(self, kind):
        points = _line_points(8)
        if kind == "triangle":
            buffer = TriangleBuffer(make_triangle_vertices(points))
        elif kind == "sphere":
            buffer = SphereBuffer(make_sphere_centers(points))
        else:
            buffer = AabbBuffer(*make_aabbs_from_points(points))
        stale = buffer.intersection_pack()
        buffer.compute_aabbs()
        assert buffer.intersection_pack() is not stale

    @pytest.mark.parametrize("kind", ["triangle", "sphere", "aabb"])
    def test_traced_then_mutated_buffers_rebuild_their_packs(self, kind):
        # The PR 2 caching contract, probed from the mutation side: a full
        # engine trace warms the pack, the primitive buffer is then mutated
        # in place, and compute_aabbs() (what every build/refit path calls)
        # must rebuild the pack so the next trace sees the moved geometry.
        from repro.rtx.bvh import build_bvh
        from repro.rtx.traversal import TraversalEngine

        points = _line_points(16)
        moved_points = points + np.array([50.0, 0.0, 0.0])
        if kind == "triangle":
            buffer = TriangleBuffer(make_triangle_vertices(points))
            fresh = TriangleBuffer(make_triangle_vertices(moved_points))
        elif kind == "sphere":
            buffer = SphereBuffer(make_sphere_centers(points))
            fresh = SphereBuffer(make_sphere_centers(moved_points))
        else:
            buffer = AabbBuffer(*make_aabbs_from_points(points))
            fresh = AabbBuffer(*make_aabbs_from_points(moved_points))

        bvh = build_bvh(buffer)
        engine = TraversalEngine(bvh, buffer)
        ray = RayBatch(
            origins=[[3.0, 0.0, -0.5]], directions=[[0.0, 0.0, 1.0]],
            tmin=[0.0], tmax=[1.0],
        )
        assert engine.trace(ray).prim_indices.tolist() == [3]  # warms the pack
        stale = buffer.intersection_pack()

        # Mutate the underlying storage in place, as an update stream does.
        if kind == "triangle":
            buffer.vertices[:] = make_triangle_vertices(moved_points)
        elif kind == "sphere":
            buffer.centers[:] = make_sphere_centers(moved_points)
        else:
            mins, maxs = make_aabbs_from_points(moved_points)
            buffer.mins[:], buffer.maxs[:] = mins, maxs
        buffer.compute_aabbs()

        rebuilt = buffer.intersection_pack()
        assert rebuilt is not stale
        # The rebuilt pack must equal the pack of a freshly constructed
        # buffer over the moved geometry, component for component.
        for got, want in zip(rebuilt, fresh.intersection_pack()):
            assert np.array_equal(got, want)
        # And a rebuilt engine (the refit/rebuild path) hits the new spot.
        engine = TraversalEngine(build_bvh(buffer), buffer)
        assert engine.trace(ray).count == 0
        moved_ray = RayBatch(
            origins=[[53.0, 0.0, -0.5]], directions=[[0.0, 0.0, 1.0]],
            tmin=[0.0], tmax=[1.0],
        )
        assert engine.trace(moved_ray).prim_indices.tolist() == [3]

    def test_moved_geometry_intersects_freshly_after_refit_path(self):
        # Move every primitive in place, call compute_aabbs (what every
        # build/refit does), and check rays hit the *new* positions.
        points = _line_points(8)
        buffer = TriangleBuffer(make_triangle_vertices(points))
        ray = ([3.0, 0.0, -0.5], [0.0, 0.0, 1.0], 0.0, 1.0)
        assert buffer.intersect(*ray, np.arange(8)).tolist() == [3]
        buffer.vertices[:] = make_triangle_vertices(points + [100.0, 0.0, 0.0])
        buffer.compute_aabbs()
        assert buffer.intersect(*ray, np.arange(8)).size == 0
        assert buffer.intersect([103.0, 0.0, -0.5], [0.0, 0.0, 1.0], 0.0, 1.0,
                                np.arange(8)).tolist() == [3]


class TestRayBatch:
    def test_shapes_and_defaults(self):
        batch = RayBatch(
            origins=[[0, 0, 0], [1, 0, 0]],
            directions=[[1, 0, 0], [1, 0, 0]],
            tmin=[0, 0],
            tmax=[1, 2],
        )
        assert len(batch) == 2
        assert batch.origins.dtype == np.float32
        assert np.array_equal(batch.lookup_ids, [0, 1])

    def test_broadcast_tmin_tmax(self):
        batch = RayBatch(
            origins=np.zeros((3, 3)),
            directions=np.tile([0, 0, 1], (3, 1)),
            tmin=0.0,
            tmax=1.0,
        )
        assert batch.tmin.shape == (3,)
        assert batch.tmax.shape == (3,)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            RayBatch(
                origins=np.zeros((3, 3)),
                directions=np.zeros((2, 3)),
                tmin=0.0,
                tmax=1.0,
            )

    def test_negative_lookup_ids_rejected(self):
        # The budgeted trace modes index per-lookup budgets with the ids: a
        # negative id would index from the end or share another's slot.
        for ids in ([-2, 0], [-1, 0]):
            with pytest.raises(ValueError, match="lookup_ids"):
                RayBatch(
                    origins=np.zeros((2, 3)),
                    directions=np.tile([1, 0, 0], (2, 1)),
                    tmin=0.0,
                    tmax=1.0,
                    lookup_ids=ids,
                )


class TestTriangleBuffer:
    def test_vertex_shape_validation(self):
        with pytest.raises(ValueError):
            TriangleBuffer(np.zeros((4, 3)))

    def test_primitive_bytes(self):
        buffer = TriangleBuffer(make_triangle_vertices(_line_points(10)))
        assert buffer.primitive_bytes() == 10 * 9 * 4

    def test_aabbs_contain_anchor(self):
        points = _line_points(5)
        buffer = TriangleBuffer(make_triangle_vertices(points))
        mins, maxs = buffer.compute_aabbs()
        assert np.all(mins[:, 0] <= points[:, 0])
        assert np.all(maxs[:, 0] >= points[:, 0])

    def test_anchor_is_hit_by_perpendicular_ray(self):
        buffer = TriangleBuffer(make_triangle_vertices(_line_points(3)))
        hits = buffer.intersect((1.0, 0.0, -0.5), (0.0, 0.0, 1.0), 0.0, 1.0, np.arange(3))
        assert hits.tolist() == [1]

    def test_anchor_is_hit_by_x_parallel_ray(self):
        buffer = TriangleBuffer(make_triangle_vertices(_line_points(3)))
        hits = buffer.intersect((-0.5, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0, 3.0, np.arange(3))
        assert sorted(hits.tolist()) == [0, 1, 2]

    def test_gap_between_triangles(self):
        # A ray confined to the gap between keys 0 and 1 must hit nothing.
        buffer = TriangleBuffer(make_triangle_vertices(_line_points(2)))
        hits = buffer.intersect((0.5, 0.0, -0.5), (0.0, 0.0, 1.0), 0.0, 1.0, np.arange(2))
        assert hits.size == 0

    def test_intersect_pairs_elementwise(self):
        buffer = TriangleBuffer(make_triangle_vertices(_line_points(4)))
        origins = np.array([[0, 0, -0.5], [1, 0, -0.5], [2, 0, -0.5], [9, 0, -0.5]], dtype=float)
        dirs = np.tile([0.0, 0.0, 1.0], (4, 1))
        mask = buffer.intersect_pairs(origins, dirs, np.zeros(4), np.ones(4), np.array([0, 1, 2, 3]))
        assert mask.tolist() == [True, True, True, False]

    def test_empty_candidates(self):
        buffer = TriangleBuffer(make_triangle_vertices(_line_points(2)))
        assert buffer.intersect((0, 0, 0), (1, 0, 0), 0, 1, np.array([], dtype=np.int64)).size == 0


def _bits(arr: np.ndarray) -> np.ndarray:
    """The raw IEEE bit patterns of a float32/float64 array."""
    return arr.view(np.uint32 if arr.dtype == np.float32 else np.uint64)


def _extended_binade_keys() -> np.ndarray:
    """Extended Mode keys on both sides of three float32 binade boundaries,
    where the ULP below a key is half the ULP above it."""
    offset = f32.EXTENDED_MODE_OFFSET
    keys = []
    for exponent_step in (1, 2, 5):
        # bit pattern 2k + offset starts a new binade every 2^23 patterns
        edge = (exponent_step << 23) // 2
        keys.extend(range(edge - 8, edge + 8))
    keys = np.array(keys, dtype=np.uint64)
    coords = f32.bit_cast_u32_to_f32(
        (2 * keys + np.uint64(offset)).astype(np.uint32)
    ).astype(np.float64)
    assert np.any(np.diff(np.log2(coords).astype(int)) == 1)  # binades crossed
    return keys


def _anchored_cases():
    """``pytest.param(points, x_half_extent)`` over every key codec."""
    rng = np.random.default_rng(2024)
    n = 4096
    codecs = {
        "naive": (NaiveCodec(), rng.choice(2**23, n, replace=False)),
        "extended": (ExtendedCodec(), rng.choice(f32.EXTENDED_MODE_KEY_LIMIT, n, replace=False)),
        "extended-binades": (ExtendedCodec(), _extended_binade_keys()),
        "3d": (ThreeDCodec(), rng.integers(0, 2**63, n, dtype=np.uint64)),
        "3d-yz": (
            ThreeDCodec(KeyDecomposition(x_bits=5, y_bits=6, z_bits=7)),
            rng.integers(0, 2**18, n),
        ),
    }
    for name, (codec, keys) in codecs.items():
        points, x_half_extent = codec.encode_points(keys.astype(np.uint64))
        yield pytest.param(points, x_half_extent, id=name)
    # Callers outside the index may pass float64 anchors of any value.
    yield pytest.param(rng.uniform(-50, 50, size=(n, 3)), None, id="float64-cloud")


def _pair_rays(points: np.ndarray, x_scale: float, m: int, rng):
    """Aimed, axis-parallel and degenerate rays, one per gathered pair."""
    g = rng.integers(0, points.shape[0], size=m)
    target = points[g].astype(np.float64)
    target += rng.uniform(-0.6, 0.6, size=(m, 3)) * [x_scale, 1.0, 1.0]
    o = target + rng.uniform(-3.0, 3.0, size=(m, 3))
    d = target - o
    d[: m // 4, 1:] = 0.0          # x-parallel, the range rays' shape
    d[m // 4 : m // 3, :2] = 0.0   # z-parallel, the perpendicular point rays
    d[m // 3 : m // 2] = 0.0       # fully degenerate
    tmins = rng.uniform(0.0, 1.0, size=m)
    tmaxs = tmins + rng.uniform(0.0, 4.0, size=m)
    return o, d, tmins, tmaxs, g


class TestAnchoredTriangleBuffer:
    """The anchored buffer is ``TriangleBuffer(make_triangle_vertices(...))``
    bit for bit: bounds, their union, masks and hit parameters."""

    @pytest.mark.parametrize("points, x_half_extent", _anchored_cases())
    def test_bit_identical_to_vertex_triangles(self, points, x_half_extent):
        anchored = AnchoredTriangleBuffer(points, 0.5, x_half_extent)
        vertices = TriangleBuffer(make_triangle_vertices(points, 0.5, x_half_extent))
        assert len(anchored) == len(vertices)
        for got, want in zip(anchored.compute_aabbs(), vertices.compute_aabbs()):
            assert got.dtype == want.dtype == np.float32
            assert got.shape == want.shape
            assert np.array_equal(_bits(got), _bits(want))
        # The union the anchors' extremes give is the boxes' own union.
        for got, want in zip(anchored.bounds(), vertices.bounds()):
            assert got.dtype == want.dtype == np.float32
            assert np.array_equal(_bits(got), _bits(want))

        # Extended Mode triangles are one ULP wide in x: aim inside that.
        x_scale = 1e-7 if x_half_extent is not None else 1.0
        o, d, tmins, tmaxs, g = _pair_rays(
            points, x_scale, 60_000, np.random.default_rng(7)
        )
        mask = anchored.intersect_pairs(o, d, tmins, tmaxs, g)
        assert np.array_equal(mask, vertices.intersect_pairs(o, d, tmins, tmaxs, g))
        assert mask.sum() > 1000  # the hit branches are exercised
        got_t = anchored.hit_t_pairs(o, d, tmins, tmaxs, g)
        want_t = vertices.hit_t_pairs(o, d, tmins, tmaxs, g)
        assert np.array_equal(_bits(got_t), _bits(want_t))

    def test_holds_anchors_only(self):
        points, _ = ThreeDCodec().encode_points(np.arange(100, dtype=np.uint64))
        buffer = AnchoredTriangleBuffer(points)
        assert buffer.resident_bytes() == 100 * 12
        assert buffer.primitive_bytes() == 100 * 9 * 4  # the paper's vertex buffer
        assert buffer.anchors.dtype == np.float32
        for column in buffer.anchors:
            assert not column.flags.writeable
        points, x_half_extent = ExtendedCodec().encode_points(
            np.arange(100, dtype=np.uint64)
        )
        extended = AnchoredTriangleBuffer(points, 0.5, x_half_extent)
        assert extended.resident_bytes() == 100 * 16
        assert not extended.x_half_extent.flags.writeable

    def test_caller_arrays_stay_writeable(self):
        points = np.zeros((4, 3), dtype=np.float32)
        x_half_extent = np.ones(4, dtype=np.float32)
        AnchoredTriangleBuffer(points, 0.5, x_half_extent)
        points[0, 0] = 1.0
        x_half_extent[0] = 2.0


class TestIntersectPairsWithT:
    """``intersect_pairs(..., with_t=True)`` returns the same mask plus each
    hit's ``t``, bit-identical to ``hit_t_pairs`` on the hits (what the
    golden ordered trace sorts by), within one block and across blocks."""

    @pytest.mark.parametrize(
        "m", [PAIR_BLOCK // 2, 2 * PAIR_BLOCK + 123], ids=["one-block", "blocks"]
    )
    @pytest.mark.parametrize("kind", ["anchored", "vertices", "sphere", "aabb"])
    def test_mask_and_hit_t(self, kind, m):
        rng = np.random.default_rng(11)
        points, _ = NaiveCodec().encode_points(
            rng.choice(2**23, 4096, replace=False).astype(np.uint64)
        )
        buffer = {
            "anchored": lambda: AnchoredTriangleBuffer(points),
            "vertices": lambda: TriangleBuffer(make_triangle_vertices(points)),
            "sphere": lambda: SphereBuffer(make_sphere_centers(points)),
            "aabb": lambda: AabbBuffer(*make_aabbs_from_points(points)),
        }[kind]()
        o, d, tmins, tmaxs, g = _pair_rays(points, 1.0, m, rng)
        mask, t = buffer.intersect_pairs(o, d, tmins, tmaxs, g, with_t=True)
        assert np.array_equal(mask, buffer.intersect_pairs(o, d, tmins, tmaxs, g))
        assert mask.sum() > 100  # the hit branches are exercised
        want = buffer.hit_t_pairs(o[mask], d[mask], tmins[mask], tmaxs[mask], g[mask])
        assert t.dtype == np.float64
        assert np.array_equal(_bits(t), _bits(want))

    def test_no_pairs(self):
        buffer = AnchoredTriangleBuffer(_line_points(4))
        empty = np.zeros((0, 3))
        mask, t = buffer.intersect_pairs(empty, empty, [], [], [], with_t=True)
        assert mask.shape == t.shape == (0,)


class TestSphereBuffer:
    def test_radius_validation(self):
        with pytest.raises(ValueError):
            SphereBuffer(np.zeros((2, 3)), radius=0.0)

    @pytest.mark.parametrize("radius", [float("nan"), float("inf"), -0.25])
    def test_non_finite_or_negative_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="finite and positive"):
            SphereBuffer(np.zeros((2, 3)), radius=radius)

    def test_primitive_bytes(self):
        buffer = SphereBuffer(make_sphere_centers(_line_points(8)), radius=0.25)
        assert buffer.primitive_bytes() == 8 * 12 + 4

    def test_ray_through_center_hits(self):
        buffer = SphereBuffer(make_sphere_centers(_line_points(3)), radius=0.25)
        hits = buffer.intersect((2.0, 0.0, -0.5), (0.0, 0.0, 1.0), 0.0, 1.0, np.arange(3))
        assert hits.tolist() == [2]

    def test_ray_in_gap_misses(self):
        buffer = SphereBuffer(make_sphere_centers(_line_points(3)), radius=0.25)
        hits = buffer.intersect((0.5, 0.0, -0.5), (0.0, 0.0, 1.0), 0.0, 1.0, np.arange(3))
        assert hits.size == 0

    def test_x_parallel_ray_hits_all(self):
        buffer = SphereBuffer(make_sphere_centers(_line_points(4)), radius=0.25)
        hits = buffer.intersect((-0.5, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0, 4.0, np.arange(4))
        assert sorted(hits.tolist()) == [0, 1, 2, 3]

    def test_aabbs_enclose_radius(self):
        buffer = SphereBuffer(make_sphere_centers(_line_points(2)), radius=0.25)
        mins, maxs = buffer.compute_aabbs()
        assert np.allclose(maxs - mins, 0.5)


class TestAabbBuffer:
    def test_corner_validation(self):
        with pytest.raises(ValueError):
            AabbBuffer(np.ones((2, 3)), np.zeros((2, 3)))

    def test_primitive_bytes(self):
        mins, maxs = make_aabbs_from_points(_line_points(4))
        buffer = AabbBuffer(mins, maxs)
        assert buffer.primitive_bytes() == 4 * 24

    def test_ray_through_box_hits(self):
        mins, maxs = make_aabbs_from_points(_line_points(4))
        buffer = AabbBuffer(mins, maxs)
        hits = buffer.intersect((3.0, 0.0, -0.5), (0.0, 0.0, 1.0), 0.0, 1.0, np.arange(4))
        assert hits.tolist() == [3]

    def test_ray_in_gap_misses(self):
        mins, maxs = make_aabbs_from_points(_line_points(2))
        buffer = AabbBuffer(mins, maxs)
        hits = buffer.intersect((0.5, 0.0, -0.5), (0.0, 0.0, 1.0), 0.0, 1.0, np.arange(2))
        assert hits.size == 0


class TestRayBoxOverlap:
    """The slab test of :func:`ray_box_overlap_pairs`, one pair at a time."""

    @staticmethod
    def _overlap(origin, direction, tmin, tmax, box_min, box_max) -> bool:
        mask = ray_box_overlap_pairs(
            np.array([origin], dtype=float),
            np.array([direction], dtype=float),
            [tmin],
            [tmax],
            np.array([box_min]),
            np.array([box_max]),
        )
        return mask.tolist() == [True]

    def test_axis_aligned_hit(self):
        assert self._overlap((0, 0, 0), (1, 0, 0), 0.0, 10.0, [2, -1, -1], [3, 1, 1])

    def test_beyond_tmax_missed(self):
        assert not self._overlap((0, 0, 0), (1, 0, 0), 0.0, 1.0, [2, -1, -1], [3, 1, 1])

    def test_behind_origin_missed(self):
        assert not self._overlap((5, 0, 0), (1, 0, 0), 0.0, 10.0, [2, -1, -1], [3, 1, 1])

    def test_parallel_ray_inside_slab(self):
        # Direction has no y component; the ray's y must lie inside the box.
        assert self._overlap((0, 0, 0), (1, 0, 0), 0.0, 10.0, [1, -1, -1], [2, 1, 1])
        assert not self._overlap((0, 5, 0), (1, 0, 0), 0.0, 10.0, [1, -1, -1], [2, 1, 1])

    def test_pairs_elementwise(self):
        origins = np.array([[0, 0, 0], [0, 0, 0]], dtype=float)
        dirs = np.array([[1, 0, 0], [0, 1, 0]], dtype=float)
        mins = np.array([[1, -1, -1], [1, -1, -1]], dtype=float)
        maxs = np.array([[2, 1, 1], [2, 1, 1]], dtype=float)
        mask = ray_box_overlap_pairs(origins, dirs, [0, 0], [10, 10], mins, maxs)
        assert mask.tolist() == [True, False]


class TestFactories:
    def test_triangle_centroid_is_anchor(self):
        points = _line_points(6)
        vertices = make_triangle_vertices(points)
        centroids = vertices.mean(axis=1)
        assert np.allclose(centroids, points, atol=1e-5)

    def test_triangle_extent_respects_half_extent(self):
        points = _line_points(4)
        vertices = make_triangle_vertices(points, half_extent=0.5)
        offsets = np.abs(vertices - points[:, None, :])
        assert offsets.max() <= 0.5 + 1e-6

    def test_triangle_custom_x_extent(self):
        points = _line_points(3)
        x_he = np.full(3, 0.01)
        vertices = make_triangle_vertices(points, half_extent=0.5, x_half_extent=x_he)
        x_offsets = np.abs(vertices[:, :, 0] - points[:, None, 0])
        assert x_offsets.max() <= 0.01 + 1e-6

    def test_aabb_factory_extent(self):
        mins, maxs = make_aabbs_from_points(_line_points(3), half_extent=0.25)
        assert np.allclose(maxs - mins, 0.5)

    def test_sphere_centers_passthrough(self):
        points = _line_points(3)
        assert np.allclose(make_sphere_centers(points), points)


class TestBoxColumns:
    """``compute_aabbs`` hands the build contiguous per-axis columns, so
    ``box_columns`` copies nothing, and the bounds are those of the
    corners row by row."""

    @staticmethod
    def _buffers(points):
        mins, maxs = make_aabbs_from_points(points, half_extent=0.25)
        return {
            "triangle": TriangleBuffer(make_triangle_vertices(points)),
            "anchored": AnchoredTriangleBuffer(points),
            "anchored-extended": AnchoredTriangleBuffer(
                points, x_half_extent=np.linspace(0.01, 0.5, points.shape[0])
            ),
            "sphere": SphereBuffer(make_sphere_centers(points)),
            "aabb": AabbBuffer(mins, maxs),
        }

    @staticmethod
    def _row_bounds(buffer, rows):
        """The bounds as ``(m, 3)`` rows, from each buffer's own arrays."""
        if isinstance(buffer, TriangleBuffer):
            v = buffer.vertices[rows]
            return v.min(axis=1), v.max(axis=1)
        if isinstance(buffer, SphereBuffer):
            r = np.float32(buffer.radius)
            return buffer.centers[rows] - r, buffer.centers[rows] + r
        if isinstance(buffer, AabbBuffer):
            return buffer.mins[rows], buffer.maxs[rows]
        vertices = make_triangle_vertices(
            buffer.anchors.T.astype(np.float64),
            half_extent=buffer.half_extent,
            x_half_extent=buffer.x_half_extent,
        )
        return vertices[rows].min(axis=1), vertices[rows].max(axis=1)

    @pytest.mark.parametrize(
        "kind", ["triangle", "anchored", "anchored-extended", "sphere", "aabb"]
    )
    def test_columns_are_contiguous_and_exact(self, kind):
        points = np.random.default_rng(4).uniform(-50, 50, size=(257, 3))
        buffer = self._buffers(points)[kind]
        for rows in (None, np.array([256, 3, 3, 0], dtype=np.int64)):
            want = self._row_bounds(buffer, slice(None) if rows is None else rows)
            for bounds in buffer.compute_aabbs(rows):
                assert bounds.T.flags["C_CONTIGUOUS"]
            for column, row_bounds in zip(box_columns(buffer, rows), want):
                assert column.dtype == np.float32 and column.flags["C_CONTIGUOUS"]
                assert np.array_equal(column.T, row_bounds)
        if kind == "aabb":
            assert not np.shares_memory(buffer.compute_aabbs()[0], buffer.mins)
