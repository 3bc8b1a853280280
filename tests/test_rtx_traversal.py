"""Tests for the wavefront traversal engine and its counters."""

import tracemalloc

import numpy as np
import pytest

from repro.core import RXConfig, RXIndex
from repro.rtx import traversal
from repro.rtx._reference import (
    reference_first_k_trace,
    reference_ordered_k_trace,
    reference_trace,
)
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
    """Hit records and counters must be identical for every
    ``FRONTIER_BLOCK``: a patched block of 1, 7 or 64 pairs against the
    unpatched run, which traces each round in one block."""

    #: "any_hit" is first_k with a budget of one hit per ray (point lookups).
    @pytest.mark.parametrize(
        "trace_kwargs",
        [
            pytest.param({}, id="all"),
            pytest.param({"mode": "first_k", "limit": 1}, id="any_hit"),
            pytest.param({"mode": "first_k", "limit": 3}, id="first_k"),
        ],
    )
    def test_all_chunk_settings_agree(self, trace_kwargs, frontier_block):
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
        engine = TraversalEngine(bvh, buffer)
        baseline_hits = engine.trace(rays, **trace_kwargs)
        baseline_counters = engine.counters
        assert baseline_counters.max_frontier_size > 64  # every block splits a round
        for block in (1, 7, 64):
            frontier_block(block)
            hits = engine.trace(rays, **trace_kwargs)
            assert np.array_equal(hits.ray_indices, baseline_hits.ray_indices), block
            assert np.array_equal(hits.prim_indices, baseline_hits.prim_indices), block
            assert engine.counters.as_dict() == baseline_counters.as_dict(), block


class TestFrontierBlock:
    """A round with more pairs than ``FRONTIER_BLOCK`` runs its slab and
    leaf-pair tests in blocks.  Each patched block size must give the hits,
    all 15 counters and the per-group counters of the unpatched run, the
    hits and counters of the golden loops, and per group the counters of a
    solo launch of the group's rays, in every trace mode."""

    @staticmethod
    def _scene():
        # Irregular gaps and one to three primitives per key put leaves at
        # varying depths, so a lookup's budget can run out while its other
        # rays still have inner nodes to expand.
        rng = np.random.default_rng(29)
        xs = np.cumsum(rng.integers(1, 9, size=160)).astype(np.float64)
        xs = np.repeat(xs, rng.integers(1, 4, size=160))
        points = np.column_stack([xs, np.zeros_like(xs), np.zeros_like(xs)])
        buffer = build_input_for_points("triangle", points)
        bvh = build_bvh(buffer, BvhBuildOptions(max_leaf_size=2))
        lo = rng.uniform(-2.0, xs[-1], size=90)
        # Offset range rays, from-zero range rays and perpendicular point
        # rays; lookups 0..44 fire two rays each, sharing one budget.
        offset, from_zero, point = (np.arange(90) % 3 == k for k in range(3))
        origins = np.zeros((90, 3))
        origins[offset | point, 0] = lo[offset | point]
        origins[point, 2] = -0.5
        directions = np.tile([1.0, 0.0, 0.0], (90, 1))
        directions[point] = [0.0, 0.0, 1.0]
        tmin = np.where(from_zero, lo, 0.0)
        tmax = np.select([offset, from_zero], [12.0, lo + 12.0], 1.0)
        rays = RayBatch(
            origins=origins,
            directions=directions,
            tmin=tmin,
            tmax=tmax,
            lookup_ids=np.arange(90) // 2,
        )
        return bvh, buffer, rays

    @pytest.mark.parametrize("mode", ["all", "first_k", "ordered_k"])
    @pytest.mark.parametrize("block", [1, 7, 16, 48, 64])
    def test_blocks_match_the_unpatched_run_and_reference(
        self, mode, block, frontier_block, monkeypatch
    ):
        bvh, buffer, rays = self._scene()
        limit = None if mode == "all" else 3
        groups = rays.lookup_ids % 4
        engine = TraversalEngine(bvh, buffer)
        want = engine.trace(rays, mode=mode, limit=limit, ray_groups=groups)
        want_counters = engine.counters.as_dict()
        want_groups = [c.as_dict() for c in engine.group_counters]
        golden = {
            "all": lambda: reference_trace(bvh, buffer, rays),
            "first_k": lambda: reference_first_k_trace(bvh, buffer, rays, limit),
            "ordered_k": lambda: reference_ordered_k_trace(bvh, buffer, rays, limit),
        }[mode]
        golden_hits, golden_counters = golden()

        calls = {"slab": 0, "pairs": 0}
        slab_test = traversal._frontier_box_overlap

        def spy_slab(*args):
            calls["slab"] += 1
            return slab_test(*args)

        def spy_pairs(*args, **kwargs):
            calls["pairs"] += 1
            return type(buffer).intersect_pairs(buffer, *args, **kwargs)

        frontier_block(block)
        monkeypatch.setattr(traversal, "_frontier_box_overlap", spy_slab)
        monkeypatch.setattr(buffer, "intersect_pairs", spy_pairs, raising=False)
        got = engine.trace(rays, mode=mode, limit=limit, ray_groups=groups)
        counters = engine.counters
        # Some round really ran in more than one block, on both sides.
        assert counters.max_frontier_size > block
        assert calls["slab"] > counters.traversal_rounds
        assert calls["pairs"] > counters.traversal_rounds
        for hits, label in ((want, "unpatched"), (golden_hits, "reference")):
            assert np.array_equal(got.ray_indices, hits.ray_indices), label
            assert np.array_equal(got.prim_indices, hits.prim_indices), label
            assert np.array_equal(got.lookup_ids, hits.lookup_ids), label
        assert counters.as_dict() == want_counters == golden_counters.as_dict()
        got_groups = [c.as_dict() for c in engine.group_counters]
        assert got_groups == want_groups
        for group, group_counters in enumerate(got_groups):
            mine = groups == group
            solo = TraversalEngine(bvh, buffer)
            solo.trace(
                RayBatch(
                    origins=rays.origins[mine],
                    directions=rays.directions[mine],
                    tmin=rays.tmin[mine],
                    tmax=rays.tmax[mine],
                    lookup_ids=rays.lookup_ids[mine],
                ),
                mode=mode,
                limit=limit,
            )
            assert solo.counters.as_dict() == group_counters, group


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

    @pytest.mark.parametrize("block", [None, 16])
    def test_callback_rejection_continues_the_ray(self, block, frontier_block):
        points = np.column_stack([np.arange(12), np.zeros(12), np.zeros(12)])
        buffer = TriangleBuffer(make_triangle_vertices(points))
        bvh = build_bvh(buffer)
        frontier_block(block)
        engine = TraversalEngine(bvh, buffer)
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

    @pytest.mark.parametrize("block", [None, 16])
    def test_callback_chunked_vs_unchunked_identical(self, block, frontier_block):
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
        frontier_block(block)
        engine = TraversalEngine(engine_ref.bvh, engine_ref.primitives)
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
    def test_counters_describe_the_last_trace(self):
        engine = _line_engine(32)
        engine.trace(_point_rays([1, 5, 9]))
        first = engine.counters
        engine.trace(_point_rays([2]))
        solo = TraversalEngine(engine.bvh, engine.primitives)
        solo.trace(_point_rays([2]))
        assert engine.counters.as_dict() == solo.counters.as_dict()
        assert engine.counters.rays == 1
        assert first.rays == 3  # a trace replaces the counters object

    def test_miss_visits_fewer_nodes_than_hit(self):
        engine = _line_engine(256)
        hit = engine.trace(_point_rays([128]))
        hit_visits = engine.counters.node_visits
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
        zero = RayBatch(origins=[[0, 0, 0]], directions=[[1, 0, 0]], tmin=[199.5], tmax=[201.5])
        engine.trace(zero)
        zero_visits = engine.counters.node_visits
        assert zero_visits > 3 * offset_visits

    def test_hardware_vs_software_intersection_counters(self):
        points = np.column_stack([np.arange(16), np.zeros(16), np.zeros(16)])
        triangles = build_input_for_points("triangle", points)
        tri_engine = TraversalEngine(build_bvh(triangles), triangles)
        boxes = build_input_for_points("aabb", points)
        aabb_engine = TraversalEngine(build_bvh(boxes), boxes)
        tri_engine.trace(_point_rays([3]))
        aabb_engine.trace(_point_rays([3]))
        assert tri_engine.counters.hardware_intersection_tests > 0
        assert tri_engine.counters.software_intersection_calls == 0
        assert aabb_engine.counters.software_intersection_calls > 0
        assert aabb_engine.counters.hardware_intersection_tests == 0

    def test_counters_as_dict_and_derived(self):
        counters = TraversalCounters(rays=4, node_visits=20, prim_tests=8, node_bytes_read=100, prim_bytes_read=50)
        as_dict = counters.as_dict()
        assert as_dict["rays"] == 4
        assert counters.node_visits_per_ray == pytest.approx(5.0)
        assert counters.prim_tests_per_ray == pytest.approx(2.0)
