"""Tests for the Naive / Extended / 3D key codecs."""

import numpy as np
import pytest

from repro.core.config import KeyDecomposition, KeyMode, PointRayMode, RangeRayMode
from repro.core.keycodec import (
    ExtendedCodec,
    NaiveCodec,
    ThreeDCodec,
    as_range_bounds,
    make_codec,
)


class TestFactory:
    def test_make_codec_each_mode(self):
        assert isinstance(make_codec(KeyMode.NAIVE), NaiveCodec)
        assert isinstance(make_codec(KeyMode.EXTENDED), ExtendedCodec)
        assert isinstance(make_codec(KeyMode.THREE_D), ThreeDCodec)

    def test_three_d_accepts_decomposition(self):
        codec = make_codec(KeyMode.THREE_D, KeyDecomposition(16, 10, 0))
        assert codec.decomposition.x_bits == 16


class TestNaiveCodec:
    def test_max_key_is_2_23(self):
        assert NaiveCodec().max_key() == 2**23 - 1

    def test_rejects_keys_beyond_limit(self):
        with pytest.raises(ValueError):
            NaiveCodec().validate_keys(np.array([2**23], dtype=np.uint64))

    def test_encode_uses_key_as_x(self):
        points, x_he = NaiveCodec().encode_points(np.array([0, 5, 100], dtype=np.uint64))
        assert points[:, 0].tolist() == [0.0, 5.0, 100.0]
        assert np.all(points[:, 1:] == 0)
        assert x_he is None

    def test_point_rays_all_modes(self):
        codec = NaiveCodec()
        queries = np.array([3, 7], dtype=np.uint64)
        for mode in PointRayMode:
            rays = codec.point_ray_batch(queries, mode)
            assert len(rays) == 2

    def test_range_rays_cover_requested_span(self):
        codec = NaiveCodec()
        rays = codec.range_ray_batch(
            np.array([10], dtype=np.uint64),
            np.array([20], dtype=np.uint64),
            RangeRayMode.PARALLEL_FROM_OFFSET,
        )
        assert len(rays) == 1
        assert rays.origins[0, 0] == pytest.approx(9.5)
        assert rays.tmax[0] == pytest.approx(11.0)


class TestExtendedCodec:
    def test_max_key_is_2_29(self):
        assert ExtendedCodec().max_key() == 2**29 - 1

    def test_coordinates_are_strictly_increasing(self):
        codec = ExtendedCodec()
        keys = np.arange(0, 10_000, 7, dtype=np.uint64)
        points, _ = codec.encode_points(keys)
        assert np.all(np.diff(points[:, 0].astype(np.float64)) > 0)

    def test_gap_value_lies_between_adjacent_keys(self):
        codec = ExtendedCodec()
        keys = np.array([1000], dtype=np.uint64)
        coord = codec.encode_points(keys)[0][0, 0]
        above = codec.gap_above(keys)[0]
        next_coord = codec.encode_points(keys + np.uint64(1))[0][0, 0]
        assert coord < above < next_coord

    def test_offset_ray_origin_rejected(self):
        codec = ExtendedCodec()
        with pytest.raises(ValueError):
            codec.point_ray_batch(np.array([1], dtype=np.uint64), PointRayMode.PARALLEL_FROM_OFFSET)
        with pytest.raises(ValueError):
            codec.range_ray_batch(
                np.array([1], dtype=np.uint64),
                np.array([2], dtype=np.uint64),
                RangeRayMode.PARALLEL_FROM_OFFSET,
            )

    def test_x_half_extent_is_one_ulp(self):
        codec = ExtendedCodec()
        keys = np.array([123456], dtype=np.uint64)
        points, x_he = codec.encode_points(keys)
        coord = np.float32(points[0, 0])
        ulp = np.nextafter(coord, np.float32(np.inf)) - coord
        assert x_he[0] == pytest.approx(float(ulp))


class TestThreeDCodec:
    def test_default_supports_64_bit(self):
        assert ThreeDCodec().max_key() == (1 << 64) - 1

    def test_decompose_recompose_round_trip(self):
        codec = ThreeDCodec()
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 1 << 63, size=200, dtype=np.uint64)
        x, y, z = codec.decompose(keys)
        assert np.array_equal(codec.recompose(x, y, z), keys)

    def test_decompose_respects_bit_budget(self):
        codec = ThreeDCodec(KeyDecomposition(16, 10, 0))
        keys = np.array([(1 << 26) - 1], dtype=np.uint64)
        x, y, z = codec.decompose(keys)
        assert x[0] == (1 << 16) - 1
        assert y[0] == (1 << 10) - 1
        assert z[0] == 0

    def test_matches_naive_for_small_keys(self):
        # The paper: 3D Mode is identical to Naive Mode below 2^23.
        keys = np.array([0, 17, 2**22], dtype=np.uint64)
        naive_points, _ = NaiveCodec().encode_points(keys)
        three_d_points, _ = ThreeDCodec().encode_points(keys)
        assert np.array_equal(naive_points, three_d_points)

    def test_point_ray_anchored_in_three_dimensions(self):
        codec = ThreeDCodec(KeyDecomposition(4, 4, 4))
        key = np.array([0b0110_1011_0011], dtype=np.uint64)
        rays = codec.point_ray_batch(key, PointRayMode.PERPENDICULAR)
        assert rays.origins[0, 0] == pytest.approx(0b0011)
        assert rays.origins[0, 1] == pytest.approx(0b1011)
        assert rays.origins[0, 2] == pytest.approx(0b0110 - 0.5)

    def test_single_row_range_is_one_ray(self):
        codec = ThreeDCodec(KeyDecomposition(8, 8, 0))
        rays = codec.range_ray_batch(
            np.array([10], dtype=np.uint64),
            np.array([200], dtype=np.uint64),
            RangeRayMode.PARALLEL_FROM_OFFSET,
        )
        assert len(rays) == 1

    def test_multi_row_range_fans_out(self):
        # Figure 4: a range crossing row boundaries needs one ray per row.
        codec = ThreeDCodec(KeyDecomposition(2, 8, 0))
        rays = codec.range_ray_batch(
            np.array([15], dtype=np.uint64),
            np.array([21], dtype=np.uint64),
            RangeRayMode.PARALLEL_FROM_OFFSET,
        )
        assert len(rays) == 3
        assert rays.lookup_ids.tolist() == [0, 0, 0]

    def test_range_fan_out_cap_enforced(self):
        codec = ThreeDCodec(KeyDecomposition(2, 8, 0))
        with pytest.raises(ValueError):
            codec.range_ray_batch(
                np.array([0], dtype=np.uint64),
                np.array([1000], dtype=np.uint64),
                RangeRayMode.PARALLEL_FROM_OFFSET,
                max_rays_per_range=4,
            )


class TestRangeBounds:
    """``as_range_bounds``: the index path's one check of range bounds, the
    same in every key mode (the codecs' ray builders take checked bounds)."""

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError, match="upper >= lower"):
            as_range_bounds(
                np.array([3, 5], dtype=np.uint64), np.array([4, 4], dtype=np.uint64)
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same shape"):
            as_range_bounds(np.array([1], dtype=np.uint64), np.array([2, 3], dtype=np.uint64))

    def test_non_1d_bound_is_named(self):
        with pytest.raises(ValueError, match=r"uppers .*shape \(1, 1\)"):
            as_range_bounds(np.array([1], dtype=np.uint64), np.array([[2]], dtype=np.uint64))

    def test_valid_bounds_come_back_as_uint64(self):
        lowers, uppers = as_range_bounds([4, 7], [4, 9])
        assert lowers.dtype == uppers.dtype == np.uint64
        assert lowers.tolist() == [4, 7] and uppers.tolist() == [4, 9]
