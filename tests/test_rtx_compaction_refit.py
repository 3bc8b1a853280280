"""Tests for compaction and refitting of acceleration structures."""

import numpy as np
import pytest

from repro.rtx.bvh import BvhBuildOptions, build_bvh
from repro.rtx.geometry import TriangleBuffer, make_triangle_vertices
from repro.rtx.pipeline import compact_accel
from repro.rtx.refit import refit_accel


def _buffer(points) -> TriangleBuffer:
    return TriangleBuffer(make_triangle_vertices(np.asarray(points, dtype=np.float64)))


def _line_buffer(n: int) -> TriangleBuffer:
    return _buffer(np.column_stack([np.arange(n), np.zeros(n), np.zeros(n)]))


class TestCompaction:
    def test_compaction_flags_a_copy(self):
        bvh = build_bvh(_line_buffer(64))
        compacted = compact_accel(bvh)
        assert compacted.compacted
        assert not bvh.compacted

    def test_compacting_twice_is_refused(self):
        once = compact_accel(build_bvh(_line_buffer(16)))
        with pytest.raises(ValueError, match="already compacted"):
            compact_accel(once)

    def test_compaction_refused_for_updatable_accel(self):
        bvh = build_bvh(_line_buffer(16), BvhBuildOptions(allow_update=True))
        with pytest.raises(ValueError):
            compact_accel(bvh)

    def test_compaction_does_not_change_topology(self):
        bvh = build_bvh(_line_buffer(32))
        compacted = compact_accel(bvh)
        assert compacted.node_count == bvh.node_count
        assert np.array_equal(compacted.prim_indices, bvh.prim_indices)


class TestRefit:
    def test_refit_requires_update_flag(self):
        bvh = build_bvh(_line_buffer(8))
        with pytest.raises(ValueError):
            refit_accel(bvh, _line_buffer(8))

    def test_refit_rejects_different_count(self):
        bvh = build_bvh(_line_buffer(8), BvhBuildOptions(allow_update=True))
        with pytest.raises(ValueError):
            refit_accel(bvh, _line_buffer(9))

    def test_refit_updates_bounds_to_new_positions(self):
        bvh = build_bvh(_line_buffer(16), BvhBuildOptions(allow_update=True))
        shifted = _buffer(np.column_stack([np.arange(16) + 100, np.zeros(16), np.zeros(16)]))
        refit_accel(bvh, shifted)
        assert bvh.node_mins[0, 0] >= 99.0
        assert bvh.node_maxs[0, 0] <= 116.0

    def test_refit_with_identical_positions_keeps_area(self):
        bvh = build_bvh(_line_buffer(32), BvhBuildOptions(allow_update=True))
        result = refit_accel(bvh, _line_buffer(32))
        assert result.surface_area_growth == pytest.approx(1.0, abs=1e-5)

    def test_refit_after_shuffle_inflates_bounds(self):
        # The Table 4 mechanism: relocating primitives far from their original
        # position blows the refitted bounding volumes up.
        n = 128
        bvh = build_bvh(_line_buffer(n), BvhBuildOptions(allow_update=True))
        rng = np.random.default_rng(0)
        shuffled = _buffer(np.column_stack([rng.permutation(n), np.zeros(n), np.zeros(n)]))
        result = refit_accel(bvh, shuffled)
        assert result.surface_area_growth > 2.0

    def test_refit_increments_generation(self):
        bvh = build_bvh(_line_buffer(8), BvhBuildOptions(allow_update=True))
        refit_accel(bvh, _line_buffer(8))
        refit_accel(bvh, _line_buffer(8))
        assert bvh.refit_generation == 2

    def test_refit_reports_bytes(self):
        bvh = build_bvh(_line_buffer(8), BvhBuildOptions(allow_update=True))
        result = refit_accel(bvh, _line_buffer(8))
        assert result.bytes_read > 0
        assert result.bytes_written > 0
