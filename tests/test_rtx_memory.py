"""Tests for device memory accounting and the accel memory model."""

import pytest

from repro.rtx.memory import (
    ACCEL_BYTES_PER_PRIMITIVE,
    DeviceMemoryTracker,
    accel_memory_estimate,
)


class TestDeviceMemoryTracker:
    def test_alloc_and_free(self):
        tracker = DeviceMemoryTracker()
        handle = tracker.alloc("buffer", 1000)
        assert tracker.current_bytes == 1000
        tracker.free(handle)
        assert tracker.current_bytes == 0

    def test_peak_tracks_high_water_mark(self):
        tracker = DeviceMemoryTracker()
        a = tracker.alloc("a", 500)
        b = tracker.alloc("b", 700)
        tracker.free(a)
        tracker.free(b)
        assert tracker.peak_bytes == 1200
        assert tracker.current_bytes == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            DeviceMemoryTracker().alloc("bad", -1)

    def test_double_free_rejected(self):
        tracker = DeviceMemoryTracker()
        handle = tracker.alloc("x", 10)
        tracker.free(handle)
        with pytest.raises(KeyError):
            tracker.free(handle)

    def test_snapshot_groups_by_name(self):
        tracker = DeviceMemoryTracker()
        tracker.alloc("accel", 10)
        tracker.alloc("accel", 20)
        tracker.alloc("values", 5)
        assert tracker.snapshot() == {"accel": 30, "values": 5}

    def test_overhead_and_reset_peak(self):
        tracker = DeviceMemoryTracker()
        keep = tracker.alloc("keep", 100)
        temp = tracker.alloc("temp", 400)
        tracker.free(temp)
        assert tracker.overhead_bytes == 400
        tracker.reset_peak()
        assert tracker.overhead_bytes == 0
        tracker.free(keep)


class TestAccelMemoryModel:
    def test_unknown_primitive_rejected(self):
        with pytest.raises(ValueError):
            accel_memory_estimate("torus", 10)

    @pytest.mark.parametrize("kind", ["triangle", "sphere", "aabb"])
    def test_compaction_never_grows(self, kind):
        estimate = accel_memory_estimate(kind, 1_000)
        assert estimate["compacted"] <= estimate["uncompacted"]
        assert estimate["peak_during_build"] >= estimate["uncompacted"]

    def test_triangles_have_largest_uncompacted_footprint(self):
        # Figure 7c relationship.
        tri = accel_memory_estimate("triangle", 1_000)["uncompacted"]
        sph = accel_memory_estimate("sphere", 1_000)["uncompacted"]
        box = accel_memory_estimate("aabb", 1_000)["uncompacted"]
        assert tri > sph and tri > box

    def test_spheres_have_largest_compacted_footprint(self):
        tri = accel_memory_estimate("triangle", 1_000)["compacted"]
        sph = accel_memory_estimate("sphere", 1_000)["compacted"]
        box = accel_memory_estimate("aabb", 1_000)["compacted"]
        assert sph > tri and sph > box

    def test_estimate_scales_linearly(self):
        small = accel_memory_estimate("triangle", 1_000)["compacted"]
        large = accel_memory_estimate("triangle", 2_000)["compacted"]
        assert large == pytest.approx(2 * small, rel=0.01)

    def test_table6_rx_footprint_close_to_paper(self):
        # The paper reports 2.78 GB for 2^26 keys (compacted triangles).
        estimate = accel_memory_estimate("triangle", 2**26)
        assert estimate["compacted"] / 1e9 == pytest.approx(2.78, rel=0.05)

    def test_model_constants_cover_all_primitives(self):
        assert set(ACCEL_BYTES_PER_PRIMITIVE) == {"triangle", "sphere", "aabb"}
