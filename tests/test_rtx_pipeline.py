"""Tests for the OptiX-shaped front-end: accel build/compact/update, launches."""

import numpy as np
import pytest

from repro.rtx.build_input import build_input_for_points
from repro.rtx.bvh import BvhBuildOptions
from repro.rtx.geometry import RayBatch
from repro.rtx.pipeline import (
    Pipeline,
    accel_build,
    accel_compact,
    accel_delta_update,
    accel_update,
)


def _line_input(n: int, primitive: str = "triangle"):
    points = np.column_stack([np.arange(n), np.zeros(n), np.zeros(n)])
    return build_input_for_points(primitive, points)


def _perpendicular_rays(xs):
    xs = np.asarray(xs, dtype=float)
    return RayBatch(
        origins=np.column_stack([xs, np.zeros_like(xs), np.full_like(xs, -0.5)]),
        directions=np.tile([0.0, 0.0, 1.0], (xs.shape[0], 1)),
        tmin=0.0,
        tmax=1.0,
    )


class TestAccelBuild:
    def test_build_returns_accel_with_bvh(self):
        accel = accel_build(_line_input(32))
        assert accel.bvh.num_primitives == 32
        assert accel.buffer.kind == "triangle"
        assert accel.bvh.node_count >= 1

    def test_options_reach_the_tree(self):
        options = BvhBuildOptions(max_leaf_size=2, allow_update=True)
        accel = accel_build(_line_input(8), options)
        assert accel.bvh.options == options
        assert accel_build(_line_input(8)).bvh.options == BvhBuildOptions()

    def test_accel_holds_the_buffer_it_indexes(self):
        buffer = _line_input(16)
        accel = accel_build(buffer, BvhBuildOptions(allow_update=True))
        assert accel.buffer is buffer
        moved = _line_input(16)
        accel_update(accel, moved)
        assert accel.buffer is moved


class TestAccelCompact:
    def test_compaction_flags_the_accel(self):
        accel = accel_build(_line_input(64), BvhBuildOptions(shard_bits=2))
        assert not accel.compacted
        accel_compact(accel)
        assert accel.compacted and accel.bvh.compacted
        # A delta update recompacts the subtrees it rebuilds.
        accel_delta_update(accel, _line_input(80))
        assert accel.compacted

    def test_compaction_rejected_with_update_flag(self):
        accel = accel_build(_line_input(16), BvhBuildOptions(allow_update=True))
        with pytest.raises(ValueError):
            accel_compact(accel)

    def test_compaction_preserves_hits(self):
        accel = accel_build(_line_input(32))
        pipe = Pipeline(accel)
        before = sorted(pipe.launch(_perpendicular_rays([5, 9])).hits.prim_indices.tolist())
        accel_compact(accel)
        pipe = Pipeline(accel)  # the engine is bound to the pre-compaction tree
        after = sorted(pipe.launch(_perpendicular_rays([5, 9])).hits.prim_indices.tolist())
        assert before == after == [5, 9]


class TestAccelUpdate:
    def test_update_requires_flag(self):
        accel = accel_build(_line_input(16))
        with pytest.raises(ValueError):
            accel_update(accel, _line_input(16))

    def test_update_moves_primitives(self):
        accel = accel_build(_line_input(16), BvhBuildOptions(allow_update=True))
        # Move every primitive one unit to the right and refit.
        points = np.column_stack([np.arange(16) + 1, np.zeros(16), np.zeros(16)])
        new_input = build_input_for_points("triangle", points)
        result = accel_update(accel, new_input)
        assert result.nodes_updated == accel.bvh.node_count
        pipe = Pipeline(accel)
        hits = pipe.launch(_perpendicular_rays([1.0])).hits
        assert hits.prim_indices.tolist() == [0]

    def test_update_rejects_changed_primitive_count(self):
        accel = accel_build(_line_input(16), BvhBuildOptions(allow_update=True))
        with pytest.raises(ValueError):
            accel_update(accel, _line_input(17))

    def test_update_grows_bounds_for_big_moves(self):
        accel = accel_build(_line_input(64), BvhBuildOptions(allow_update=True))
        rng = np.random.default_rng(1)
        shuffled = rng.permutation(64)
        points = np.column_stack([shuffled, np.zeros(64), np.zeros(64)])
        result = accel_update(accel, build_input_for_points("triangle", points))
        assert result.surface_area_growth > 1.5


class TestPipeline:
    def test_launch_with_explicit_rays(self):
        accel = accel_build(_line_input(20))
        pipe = Pipeline(accel)
        result = pipe.launch(_perpendicular_rays([3, 400]))
        assert result.num_rays == 2
        assert result.hits_per_lookup().tolist() == [1, 0]

    def test_any_hit_program_filters(self):
        accel = accel_build(_line_input(10))
        pipe = Pipeline(accel)
        rays = RayBatch(origins=[[-0.5, 0, 0]], directions=[[1, 0, 0]], tmin=[0.0], tmax=[11.0])
        result = pipe.launch(rays, any_hit=lambda r, p, l: p >= 5)
        assert sorted(result.hits.prim_indices.tolist()) == [5, 6, 7, 8, 9]

    def test_counters_attached_to_launch(self):
        accel = accel_build(_line_input(16))
        result = Pipeline(accel).launch(_perpendicular_rays([1]))
        assert result.counters.node_visits > 0
        assert result.counters.rays == 1
