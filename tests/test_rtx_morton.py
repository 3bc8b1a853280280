"""Tests for Morton encoding (LBVH builder support)."""

import numpy as np
import pytest

from repro.rtx.morton import (
    expand_bits_3,
    morton_decode_3d,
    morton_encode_3d,
    morton_interleave_grid,
    morton_prefix_buckets,
    quantize_to_grid,
)


class TestExpandBits:
    def test_zero(self):
        assert expand_bits_3(np.array([0]), 10)[0] == 0

    def test_single_bit_positions(self):
        # Bit k of the input lands at position 3k of the output.
        for k in range(5):
            value = np.uint64(1 << k)
            assert expand_bits_3(np.array([value]), 10)[0] == np.uint64(1 << (3 * k))

    def test_no_overlap_between_axes(self):
        x = expand_bits_3(np.array([0b111]), 3) << np.uint64(2)
        y = expand_bits_3(np.array([0b111]), 3) << np.uint64(1)
        z = expand_bits_3(np.array([0b111]), 3)
        assert (x & y) == 0 and (x & z) == 0 and (y & z) == 0


class TestQuantize:
    def test_bounds_map_to_extremes(self):
        points = np.array([[0, 0, 0], [10, 10, 10]], dtype=float)
        grid = quantize_to_grid(points, 4)
        assert grid[0].tolist() == [0, 0, 0]
        assert grid[1].tolist() == [15, 15, 15]

    def test_degenerate_axis(self):
        points = np.array([[0, 5, 1], [10, 5, 1]], dtype=float)
        grid = quantize_to_grid(points, 4)
        # A collapsed axis quantises to cell 0 everywhere instead of dividing
        # by zero.
        assert grid[:, 1].tolist() == [0, 0]


class TestMortonCodes:
    def test_codes_are_monotone_along_a_line(self):
        points = np.column_stack([np.arange(100), np.zeros(100), np.zeros(100)]).astype(float)
        codes = morton_encode_3d(points, 10)
        assert np.all(np.diff(codes.astype(np.int64)) >= 0)

    def test_nearby_points_share_prefixes(self):
        points = np.array([[0, 0, 0], [1, 1, 1], [1000, 1000, 1000]], dtype=float)
        codes = morton_encode_3d(points, 10)
        assert abs(int(codes[1]) - int(codes[0])) < abs(int(codes[2]) - int(codes[0]))

    def test_round_trip_through_decode(self):
        rng = np.random.default_rng(5)
        grid_points = rng.integers(0, 2**8, size=(50, 3)).astype(np.uint64)
        # Encode manually from grid coordinates (bypassing quantisation).
        codes = (
            (expand_bits_3(grid_points[:, 0], 8) << np.uint64(2))
            | (expand_bits_3(grid_points[:, 1], 8) << np.uint64(1))
            | expand_bits_3(grid_points[:, 2], 8)
        )
        decoded = morton_decode_3d(codes, 8)
        assert np.array_equal(decoded, grid_points)

    def test_bits_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            morton_encode_3d(np.zeros((1, 3)), bits=22)
        with pytest.raises(ValueError):
            morton_encode_3d(np.zeros((1, 3)), bits=0)


class TestPrefixBuckets:
    @pytest.mark.parametrize("bits", [1, 2, 5, 8, 21])
    def test_bucket_is_the_top_of_the_code(self, bits):
        rng = np.random.default_rng(bits)
        grid = rng.integers(0, 1 << bits, size=(2000, 3)).astype(np.uint64)
        grid[:3] = [[0, 0, 0], [(1 << bits) - 1] * 3, [0, (1 << bits) - 1, 0]]
        codes = morton_interleave_grid(grid, bits)
        for prefix_bits in range(1, 3 * bits + 1):
            want = (codes >> np.uint64(3 * bits - prefix_bits)).astype(np.int64)
            got = morton_prefix_buckets(grid, bits, prefix_bits)
            assert got.dtype == np.int64
            assert np.array_equal(got, want), prefix_bits

    def test_prefix_wider_than_the_code_is_rejected(self):
        with pytest.raises(ValueError, match="prefix_bits"):
            morton_prefix_buckets(np.zeros((1, 3), dtype=np.uint64), 2, 7)
