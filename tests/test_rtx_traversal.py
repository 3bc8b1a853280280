"""Tests for the wavefront traversal engine and its counters."""

import tracemalloc

import numpy as np
import pytest

from repro.core import RXConfig, RXIndex
from repro.rtx.build_input import build_input_for_points
from repro.rtx.bvh import BvhBuildOptions, build_bvh
from repro.rtx.geometry import RayBatch, TriangleBuffer, make_triangle_vertices
from repro.rtx.traversal import TraversalCounters, TraversalEngine


def _line_engine(n: int, **options) -> TraversalEngine:
    points = np.column_stack([np.arange(n), np.zeros(n), np.zeros(n)])
    buffer = TriangleBuffer(make_triangle_vertices(points))
    bvh = build_bvh(buffer, BvhBuildOptions(**options))
    return TraversalEngine(bvh, buffer)


def _point_rays(xs) -> RayBatch:
    xs = np.asarray(xs, dtype=float)
    origins = np.column_stack([xs, np.zeros_like(xs), np.full_like(xs, -0.5)])
    directions = np.tile([0.0, 0.0, 1.0], (xs.shape[0], 1))
    return RayBatch(origins=origins, directions=directions, tmin=0.0, tmax=1.0)


def _brute_force_hits(engine: TraversalEngine, rays: RayBatch) -> set[tuple[int, int]]:
    """Reference: test every ray against every primitive."""
    hits = set()
    n = len(engine.primitives)
    for ray_idx in range(len(rays)):
        prim_ids = engine.primitives.intersect(
            rays.origins[ray_idx],
            rays.directions[ray_idx],
            float(rays.tmin[ray_idx]),
            float(rays.tmax[ray_idx]),
            np.arange(n, dtype=np.int64),
        )
        hits.update((ray_idx, int(p)) for p in prim_ids)
    return hits


class TestTraversalCorrectness:
    def test_point_rays_hit_their_key(self):
        engine = _line_engine(64)
        result = engine.trace(_point_rays([0, 17, 63]))
        assert set(zip(result.ray_indices.tolist(), result.prim_indices.tolist())) == {
            (0, 0), (1, 17), (2, 63),
        }

    def test_miss_rays_produce_no_hits(self):
        engine = _line_engine(64)
        result = engine.trace(_point_rays([200.0, 300.0]))
        assert result.count == 0

    def test_matches_brute_force_on_random_rays(self):
        engine = _line_engine(96)
        rng = np.random.default_rng(2)
        xs = rng.uniform(-5, 100, size=40)
        rays = _point_rays(xs)
        result = engine.trace(rays)
        assert set(zip(result.ray_indices.tolist(), result.prim_indices.tolist())) == _brute_force_hits(engine, rays)

    def test_range_ray_hits_contiguous_keys(self):
        engine = _line_engine(50)
        rays = RayBatch(
            origins=[[9.5, 0, 0]], directions=[[1, 0, 0]], tmin=[0.0], tmax=[6.0]
        )
        result = engine.trace(rays)
        assert sorted(result.prim_indices.tolist()) == list(range(10, 16))

    def test_any_hit_filter_applied(self):
        engine = _line_engine(10)
        rays = RayBatch(origins=[[-0.5, 0, 0]], directions=[[1, 0, 0]], tmin=[0.0], tmax=[11.0])
        keep_even = lambda r, p, l: (p % 2 == 0)
        result = engine.trace(rays, any_hit=keep_even)
        assert sorted(result.prim_indices.tolist()) == [0, 2, 4, 6, 8]

    def test_lookup_ids_propagated(self):
        engine = _line_engine(10)
        rays = RayBatch(
            origins=[[2, 0, -0.5], [7, 0, -0.5]],
            directions=[[0, 0, 1], [0, 0, 1]],
            tmin=0.0,
            tmax=1.0,
            lookup_ids=[5, 9],
        )
        result = engine.trace(rays)
        assert sorted(result.lookup_ids.tolist()) == [5, 9]

    def test_empty_ray_batch(self):
        engine = _line_engine(10)
        rays = RayBatch(
            origins=np.zeros((0, 3)), directions=np.zeros((0, 3)), tmin=np.zeros(0), tmax=np.zeros(0)
        )
        result = engine.trace(rays)
        assert result.count == 0

    def test_unknown_mode_rejected(self):
        engine = _line_engine(8)
        for mode in ("closest", "any_hit"):
            with pytest.raises(ValueError, match="unknown trace mode"):
                engine.trace(_point_rays([1]), mode=mode)


class TestFirstKMode:
    def _range_rays(self, spans, lookup_ids=None) -> RayBatch:
        spans = np.asarray(spans, dtype=float)
        m = spans.shape[0]
        return RayBatch(
            origins=np.tile([-0.5, 0.0, 0.0], (m, 1)),
            directions=np.tile([1.0, 0.0, 0.0], (m, 1)),
            tmin=np.zeros(m),
            tmax=spans + 0.5,
            lookup_ids=lookup_ids,
        )

    def test_limit_argument_validation(self):
        engine = _line_engine(8)
        rays = _point_rays([1])
        with pytest.raises(ValueError, match="requires a hit limit"):
            engine.trace(rays, mode="first_k")
        with pytest.raises(ValueError, match="at least 1"):
            engine.trace(rays, mode="first_k", limit=0)
        with pytest.raises(ValueError, match="only meaningful"):
            engine.trace(rays, mode="all", limit=4)

    def test_reports_first_k_hits_in_traversal_order(self):
        engine = _line_engine(32)
        # One ray crossing all 32 triangles: first_k must report exactly the
        # first `k` hits of the all-hits stream, in the same order.
        rays = self._range_rays([32.0])
        all_hits = engine.trace(rays)
        assert all_hits.count == 32
        for k in (1, 5, 32, 100):
            result = TraversalEngine(engine.bvh, engine.primitives).trace(
                rays, mode="first_k", limit=k
            )
            want = all_hits.prim_indices[: min(k, 32)]
            assert result.prim_indices.tolist() == want.tolist()

    def test_limit_one_equals_any_hit_for_single_ray_lookups(self):
        engine = _line_engine(48)
        rng = np.random.default_rng(19)
        spans = rng.uniform(1, 40, size=30)
        rays = self._range_rays(spans)
        fk_engine = TraversalEngine(engine.bvh, engine.primitives)
        fk = fk_engine.trace(rays, mode="first_k", limit=1)
        # The any-hit semantics: every hitting ray reports exactly the first
        # hit of the all-hits stream.
        first = {}
        all_hits = engine.trace(rays)
        for r, p in zip(all_hits.ray_indices.tolist(), all_hits.prim_indices.tolist()):
            first.setdefault(r, p)
        assert dict(zip(fk.ray_indices.tolist(), fk.prim_indices.tolist())) == first
        assert fk.count == len(first)
        # With one ray per lookup the budget belongs to the ray, whatever the
        # lookups are numbered: relabelling them changes no hit or counter.
        relabelled = self._range_rays(spans, lookup_ids=np.arange(30)[::-1] * 3)
        rl_engine = TraversalEngine(engine.bvh, engine.primitives)
        rl = rl_engine.trace(relabelled, mode="first_k", limit=1)
        assert np.array_equal(fk.ray_indices, rl.ray_indices)
        assert np.array_equal(fk.prim_indices, rl.prim_indices)
        assert fk_engine.counters.as_dict() == rl_engine.counters.as_dict()

    def test_budget_shared_across_rays_of_one_lookup(self):
        engine = _line_engine(64)
        # Two rays serving lookup 0 (a fanned-out multi-row range) plus one
        # ray for lookup 1: lookup 0's rays share a budget of 3 in stream
        # order, lookup 1 keeps its own.
        rays = RayBatch(
            origins=[[-0.5, 0, 0], [19.5, 0, 0], [39.5, 0, 0]],
            directions=[[1, 0, 0]] * 3,
            tmin=[0.0] * 3,
            tmax=[10.5, 10.5, 10.5],
            lookup_ids=[0, 0, 1],
        )
        result = TraversalEngine(engine.bvh, engine.primitives).trace(
            rays, mode="first_k", limit=3
        )
        by_lookup = {}
        for lookup, prim in zip(result.lookup_ids.tolist(), result.prim_indices.tolist()):
            by_lookup.setdefault(lookup, []).append(prim)
        assert len(by_lookup[0]) == 3
        assert len(by_lookup[1]) == 3
        assert all(p >= 40 for p in by_lookup[1])

    def test_counters_never_exceed_all_mode(self):
        engine = _line_engine(128)
        rng = np.random.default_rng(23)
        rays = self._range_rays(rng.uniform(10, 100, size=60))
        all_engine = TraversalEngine(engine.bvh, engine.primitives)
        all_engine.trace(rays)
        fk_engine = TraversalEngine(engine.bvh, engine.primitives)
        fk_hits = fk_engine.trace(rays, mode="first_k", limit=2)
        a, b = all_engine.counters, fk_engine.counters
        assert b.node_visits <= a.node_visits
        assert b.prim_tests <= a.prim_tests
        assert b.traversal_rounds <= a.traversal_rounds
        assert b.rays_with_hits == a.rays_with_hits
        assert b.prim_hits == fk_hits.count
        assert b.node_bytes_read == b.node_visits * engine.bvh.node_bytes()

    def test_empty_batch(self):
        engine = _line_engine(8)
        rays = RayBatch(
            origins=np.zeros((0, 3)),
            directions=np.zeros((0, 3)),
            tmin=np.zeros(0),
            tmax=np.zeros(0),
        )
        result = engine.trace(rays, mode="first_k", limit=4)
        assert result.count == 0
        assert engine.counters.traversal_rounds == 0


class TestChunkingRegression:
    """Hit records and counters must be identical for every ``max_frontier``
    setting, including the chunk=0 / chunk=None aliases for 'unbounded'."""

    #: "any_hit" is first_k with a budget of one hit per ray (point lookups).
    @pytest.mark.parametrize(
        "trace_kwargs",
        [
            pytest.param({}, id="all"),
            pytest.param({"mode": "first_k", "limit": 1}, id="any_hit"),
            pytest.param({"mode": "first_k", "limit": 3}, id="first_k"),
        ],
    )
    def test_all_chunk_settings_agree(self, trace_kwargs):
        points = np.column_stack([np.arange(200), np.zeros(200), np.zeros(200)])
        buffer = TriangleBuffer(make_triangle_vertices(points))
        bvh = build_bvh(buffer)
        rng = np.random.default_rng(37)
        xs = rng.uniform(-5, 205, size=150)
        rays = RayBatch(
            origins=np.column_stack([np.zeros(150), np.zeros(150), np.zeros(150)]),
            directions=np.tile([1.0, 0.0, 0.0], (150, 1)),
            tmin=xs - 0.5,
            tmax=xs + 0.5,
        )
        baseline_hits = None
        baseline_counters = None
        for chunk in (None, 0, 1, 7, 64, 10**9):
            engine = TraversalEngine(bvh, buffer, max_frontier=chunk)
            hits = engine.trace(rays, **trace_kwargs)
            if baseline_hits is None:
                baseline_hits, baseline_counters = hits, engine.counters
                continue
            assert np.array_equal(hits.ray_indices, baseline_hits.ray_indices), chunk
            assert np.array_equal(hits.prim_indices, baseline_hits.prim_indices), chunk
            assert engine.counters.as_dict() == baseline_counters.as_dict(), chunk


class TestAnyHitMode:
    """The any-hit program ending each ray at its first hit: ``first_k``
    with a budget of one hit and one lookup per ray."""

    def test_one_hit_per_hitting_ray(self):
        engine = _line_engine(32)
        # A long range ray crosses every triangle but reports exactly one
        # hit: the first the traversal finds (= the default mode's first).
        rays = RayBatch(
            origins=[[-0.5, 0, 0]], directions=[[1, 0, 0]], tmin=[0.0], tmax=[33.0]
        )
        all_hits = engine.trace(rays)
        result = TraversalEngine(engine.bvh, engine.primitives).trace(
            rays, mode="first_k", limit=1
        )
        assert all_hits.count == 32
        assert result.count == 1
        assert result.prim_indices.tolist() == [int(all_hits.prim_indices[0])]

    @pytest.mark.parametrize("max_frontier", [None, 16])
    def test_callback_rejection_continues_the_ray(self, max_frontier):
        points = np.column_stack([np.arange(12), np.zeros(12), np.zeros(12)])
        buffer = TriangleBuffer(make_triangle_vertices(points))
        bvh = build_bvh(buffer)
        engine = TraversalEngine(bvh, buffer, max_frontier=max_frontier)
        rays = RayBatch(
            origins=[[-0.5, 0, 0]], directions=[[1, 0, 0]], tmin=[0.0], tmax=[13.0]
        )
        # The any-hit program ignores primitives < 5: the ray must keep
        # traversing past the rejected hits and stop at the first survivor.
        # "First" means first in traversal order (like a real any-hit
        # program, whose invocation order is unspecified), i.e. exactly the
        # first surviving hit the default mode reports.
        keep_late = lambda r, p, l: (p >= 5)
        result = engine.trace(rays, any_hit=keep_late, mode="first_k", limit=1)
        reference = TraversalEngine(bvh, buffer).trace(rays, any_hit=keep_late)
        assert result.count == 1
        assert result.prim_indices.tolist() == [int(reference.prim_indices[0])]
        assert result.prim_indices[0] >= 5

    @pytest.mark.parametrize("max_frontier", [None, 16])
    def test_callback_chunked_vs_unchunked_identical(self, max_frontier):
        engine_ref = _line_engine(64)
        rng = np.random.default_rng(11)
        xs = rng.uniform(0, 64, size=80)
        rays = RayBatch(
            origins=np.zeros((80, 3)),
            directions=np.tile([1.0, 0.0, 0.0], (80, 1)),
            tmin=xs,
            tmax=xs + 20.0,
        )
        keep_odd = lambda r, p, l: (p % 2 == 1)
        want = engine_ref.trace(rays, any_hit=keep_odd, mode="first_k", limit=1)
        engine = TraversalEngine(engine_ref.bvh, engine_ref.primitives, max_frontier=max_frontier)
        got = engine.trace(rays, any_hit=keep_odd, mode="first_k", limit=1)
        assert np.array_equal(got.ray_indices, want.ray_indices)
        assert np.array_equal(got.prim_indices, want.prim_indices)
        assert np.array_equal(got.lookup_ids, want.lookup_ids)

    def test_empty_batch(self):
        engine = _line_engine(8)
        rays = RayBatch(
            origins=np.zeros((0, 3)),
            directions=np.zeros((0, 3)),
            tmin=np.zeros(0),
            tmax=np.zeros(0),
        )
        result = engine.trace(rays, mode="first_k", limit=1)
        assert result.count == 0
        assert engine.counters.traversal_rounds == 0

    def test_tmin_offset_rays(self):
        engine = _line_engine(40)
        # Rays with tmin > 0: intersections before tmin are not hits and must
        # not terminate the ray; the reported hit lies within (tmin, tmax)
        # and matches the default mode's first hit per ray.
        rays = RayBatch(
            origins=[[-0.5, 0, 0], [-0.5, 0, 0]],
            directions=[[1, 0, 0], [1, 0, 0]],
            tmin=[10.0, 20.0],
            tmax=[41.0, 41.0],
        )
        all_hits = engine.trace(rays)
        first = {}
        for r, p in zip(all_hits.ray_indices.tolist(), all_hits.prim_indices.tolist()):
            first.setdefault(r, p)
        result = TraversalEngine(engine.bvh, engine.primitives).trace(
            rays, mode="first_k", limit=1
        )
        got = dict(zip(result.ray_indices.tolist(), result.prim_indices.tolist()))
        assert got == first
        assert result.prim_indices.min() >= 10

    def test_counters_reduced_on_long_rays(self):
        # An irregular key spacing gives the BVH leaves at varying depths, so
        # rays find their first hit rounds before their frontier would empty
        # — the situation the early exit saves work in.  (On a perfectly
        # balanced tree every leaf sits in the last round and there is
        # nothing left to cut.)
        rng = np.random.default_rng(13)
        xs = np.cumsum(rng.integers(1, 9, size=256)).astype(np.float64)
        points = np.column_stack([xs, np.zeros_like(xs), np.zeros_like(xs)])
        buffer = TriangleBuffer(make_triangle_vertices(points))
        bvh = build_bvh(buffer)
        picks = xs[rng.integers(0, xs.shape[0], size=64)]
        rays = RayBatch(
            origins=np.zeros((64, 3)),
            directions=np.tile([1.0, 0.0, 0.0], (64, 1)),
            tmin=picks - 0.5,
            tmax=picks + 0.5,
        )
        engine_all = TraversalEngine(bvh, buffer)
        engine_all.trace(rays)
        engine_any = TraversalEngine(bvh, buffer)
        engine_any.trace(rays, mode="first_k", limit=1)
        assert engine_any.counters.node_visits < engine_all.counters.node_visits
        assert engine_any.counters.prim_tests < engine_all.counters.prim_tests


class TestLaunchMemory:
    def test_launch_allocates_per_ray_not_per_node(self):
        """A small launch must not copy the tree: its peak allocation stays
        far below the node-box bytes (a per-launch transpose of both box
        arrays would cost about 1x of them)."""
        keys = np.random.default_rng(5).permutation(np.arange(1 << 16, dtype=np.uint64))
        index = RXIndex(RXConfig.paper_default())
        index.build(keys)
        engine = index.pipeline.engine
        node_box_bytes = engine.bvh.node_mins.nbytes + engine.bvh.node_maxs.nbytes
        point = index.codec.point_ray_batch(keys[:1], index.config.point_ray_mode)
        lowers = keys[:4]
        ranges = index.codec.range_ray_batch(
            lowers,
            lowers + np.uint64(15),
            index.config.range_ray_mode,
            max_rays_per_range=index.config.max_rays_per_range,
        )
        launches = [
            ("first_k point", lambda: engine.trace(point, mode="first_k", limit=1)),
            ("first_k ranges", lambda: engine.trace(ranges, mode="first_k", limit=4)),
        ]
        for _, launch in launches:
            launch()  # one-time lazy set-up (intersection packs) is not per launch
        tracemalloc.start()
        try:
            for label, launch in launches:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                hits = launch()
                peak = tracemalloc.get_traced_memory()[1] - base
                assert hits.count > 0, label
                assert peak < node_box_bytes / 4, (label, peak, node_box_bytes)
        finally:
            tracemalloc.stop()


class TestTraversalCounters:
    def test_counters_accumulate_across_traces(self):
        engine = _line_engine(32)
        engine.trace(_point_rays([1]))
        first = engine.counters.node_visits
        engine.trace(_point_rays([2]))
        assert engine.counters.node_visits > first
        assert engine.counters.rays == 2

    def test_reset_counters(self):
        engine = _line_engine(32)
        engine.trace(_point_rays([1]))
        engine.reset_counters()
        assert engine.counters.node_visits == 0

    def test_miss_visits_fewer_nodes_than_hit(self):
        engine = _line_engine(256)
        hit = engine.trace(_point_rays([128]))
        hit_visits = engine.counters.node_visits
        engine.reset_counters()
        engine.trace(_point_rays([1e6]))
        miss_visits = engine.counters.node_visits
        assert miss_visits < hit_visits
        assert hit.count == 1

    def test_from_zero_ray_visits_more_nodes_than_offset_ray(self):
        # The Table 3 / Figure 6 mechanism: tmin does not cull nodes.
        engine = _line_engine(256)
        offset = RayBatch(origins=[[199.5, 0, 0]], directions=[[1, 0, 0]], tmin=[0.0], tmax=[2.0])
        engine.trace(offset)
        offset_visits = engine.counters.node_visits
        engine.reset_counters()
        zero = RayBatch(origins=[[0, 0, 0]], directions=[[1, 0, 0]], tmin=[199.5], tmax=[201.5])
        engine.trace(zero)
        zero_visits = engine.counters.node_visits
        assert zero_visits > 3 * offset_visits

    def test_hardware_vs_software_intersection_counters(self):
        points = np.column_stack([np.arange(16), np.zeros(16), np.zeros(16)])
        tri_engine = TraversalEngine(
            build_bvh(build_input_for_points("triangle", points).primitive_buffer()),
            build_input_for_points("triangle", points).primitive_buffer(),
        )
        aabb_input = build_input_for_points("aabb", points)
        aabb_engine = TraversalEngine(build_bvh(aabb_input.primitive_buffer()), aabb_input.primitive_buffer())
        tri_engine.trace(_point_rays([3]))
        aabb_engine.trace(_point_rays([3]))
        assert tri_engine.counters.hardware_intersection_tests > 0
        assert tri_engine.counters.software_intersection_calls == 0
        assert aabb_engine.counters.software_intersection_calls > 0
        assert aabb_engine.counters.hardware_intersection_tests == 0

    def test_counters_merge(self):
        a = TraversalCounters(rays=1, node_visits=5, prim_tests=2)
        b = TraversalCounters(rays=2, node_visits=7, prim_tests=3, max_frontier_size=9)
        a.merge(b)
        assert a.rays == 3
        assert a.node_visits == 12
        assert a.max_frontier_size == 9

    def test_counters_as_dict_and_derived(self):
        counters = TraversalCounters(rays=4, node_visits=20, prim_tests=8, node_bytes_read=100, prim_bytes_read=50)
        as_dict = counters.as_dict()
        assert as_dict["rays"] == 4
        assert counters.node_visits_per_ray == pytest.approx(5.0)
        assert counters.prim_tests_per_ray == pytest.approx(2.0)
