"""Tests for the float32 helpers (OptiX coordinate restrictions)."""

import numpy as np

from repro.rtx import float32 as f32


class TestBitCast:
    def test_round_trip_scalar(self):
        bits = np.float32(0.5).view(np.uint32)
        assert f32.bit_cast_u32_to_f32(bits) == np.float32(0.5)

    def test_round_trip_array(self):
        values = np.array([0.0, 1.0, -2.5, 3.1415], dtype=np.float32)
        assert np.array_equal(f32.bit_cast_u32_to_f32(values.view(np.uint32)), values)

    def test_half_bit_pattern_is_extended_mode_offset(self):
        assert f32.EXTENDED_MODE_OFFSET == int(np.float32(0.5).view(np.uint32))

    def test_bit_cast_is_monotonic_for_positive_floats(self):
        # Consecutive bit patterns of positive floats are ordered, which is
        # the property Extended Mode relies on.
        bits = np.arange(f32.EXTENDED_MODE_OFFSET, f32.EXTENDED_MODE_OFFSET + 1000, dtype=np.uint32)
        values = f32.bit_cast_u32_to_f32(bits)
        assert np.all(np.diff(values) > 0)


class TestNextAfter:
    def test_nextafter_moves_up(self):
        value = np.float32(1.0)
        up = f32.nextafter_f32(value, np.float32(np.inf))
        assert up > value

    def test_nextafter_moves_down(self):
        value = np.float32(1.0)
        down = f32.nextafter_f32(value, np.float32(-np.inf))
        assert down < value

    def test_nextafter_is_adjacent_bit_pattern(self):
        value = np.float32(123.0)
        up = f32.nextafter_f32(value, np.float32(np.inf))
        assert int(np.float32(up).view(np.uint32)) == int(value.view(np.uint32)) + 1

    def test_ulp_positive(self):
        assert f32.ulp_f32(np.float32(1.0)) > 0
        assert f32.ulp_f32(np.float32(2.0**20)) > f32.ulp_f32(np.float32(1.0))


class TestExactness:
    def test_naive_limit_constant(self):
        assert f32.NAIVE_MODE_KEY_LIMIT == 2**23
        assert f32.EXTENDED_MODE_KEY_LIMIT == 2**29
