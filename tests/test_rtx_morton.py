"""Tests for Morton encoding (LBVH builder support).

The blocked kernels are checked at the block boundaries against the
unblocked formulas below, on inputs drawn from ``DIFF_SEED`` (env var), so
the extra-seed runs of ``make test-diff`` cover them too.
"""

import os

import numpy as np
import pytest

from repro.rtx._reference import (
    reference_expand_bits_3,
    reference_morton_encode_3d,
    reference_quantize_to_grid_with_bounds,
)
from repro.rtx.morton import (
    MORTON_BLOCK,
    _SPREAD_STEPS,
    expand_bits_3,
    morton_encode_3d,
    morton_interleave_grid,
    morton_prefix_buckets,
    quantize_to_grid_with_bounds,
)
from repro.rtx import morton

DIFF_SEED = int(os.environ.get("DIFF_SEED", "20260727"))


def quantize_to_grid(points, bits):
    grid, _, _ = quantize_to_grid_with_bounds(points, bits)
    return grid


def morton_decode_3d(codes, bits):
    """Recover grid coordinates from codes, one bit at a time."""
    codes = np.asarray(codes, dtype=np.uint64)
    coords = np.zeros((codes.shape[0], 3), dtype=np.uint64)
    for bit in range(bits):
        for axis in range(3):
            payload = (codes >> np.uint64(3 * bit + 2 - axis)) & np.uint64(1)
            coords[:, axis] |= payload << np.uint64(bit)
    return coords


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

    def test_shift_and_mask_equals_the_golden_table(self):
        # Every 21-bit value, against the byte-table expansion it replaced.
        values = np.arange(1 << 21, dtype=np.uint64)
        assert np.array_equal(expand_bits_3(values, 21), reference_expand_bits_3(values, 21))

    @pytest.mark.parametrize("bits", [0, 1, 7, 8, 13, 20])
    def test_bits_above_the_width_are_masked_off(self, bits):
        values = np.random.default_rng(bits).integers(0, 1 << 63, 4096, dtype=np.uint64)
        got = expand_bits_3(values, bits)
        assert np.array_equal(got, reference_expand_bits_3(values, bits))

    def test_input_is_not_modified(self):
        values = np.arange(64, dtype=np.uint64)
        expand_bits_3(values, 21)
        assert np.array_equal(values, np.arange(64, dtype=np.uint64))

    def test_more_than_21_bits_rejected(self):
        # The five masks hold 21 payload bits; wider values would be cut.
        with pytest.raises(ValueError, match="21"):
            expand_bits_3(np.array([1], dtype=np.uint64), 22)


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


def _columns(kind: str, rng) -> np.ndarray:
    """``(3, n)`` float64 per-axis columns of one quantisation case."""
    n = 3000
    if kind == "random":
        return rng.uniform(-500, 500, size=(3, n))
    if kind == "zero-extent":
        cols = rng.uniform(0, 10, size=(3, n))
        cols[1] = 7.25  # one axis collapsed to a single value
        return cols
    # 1e12-skewed: one axis spans twelve orders of magnitude more than the rest
    return np.stack([rng.uniform(0, 1e12, n), rng.uniform(0, 1, n), np.zeros(n)])


class TestQuantizeColumns:
    @pytest.mark.parametrize("kind", ["random", "zero-extent", "skewed"])
    @pytest.mark.parametrize("bits", [4, 21])
    def test_per_axis_equals_golden_rows(self, kind, bits):
        cols = _columns(kind, np.random.default_rng(bits))
        want_grid, want_lo, want_hi = reference_quantize_to_grid_with_bounds(cols.T.copy(), bits)
        # Both layouts: the .T view of (3, n) columns and plain (n, 3) rows.
        for points in (cols.T, np.ascontiguousarray(cols.T)):
            grid, lo, hi = quantize_to_grid_with_bounds(points, bits)
            assert grid.shape == (cols.shape[1], 3)
            assert np.array_equal(grid, want_grid)
            assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)
            assert np.array_equal(
                morton_encode_3d(points, bits), reference_morton_encode_3d(points, bits)
            )

    def test_grid_axes_are_contiguous(self):
        cols = _columns("random", np.random.default_rng(1))
        grid, _, _ = quantize_to_grid_with_bounds(cols.T, 21)
        assert all(grid[:, axis].flags["C_CONTIGUOUS"] for axis in range(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_named(self, value):
        cols = _columns("random", np.random.default_rng(2))
        cols[2, 41] = value
        cols[0, 900] = value
        with pytest.raises(ValueError, match="primitive 41 "):
            quantize_to_grid_with_bounds(cols.T, 21)


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


# --------------------------------------------------------------------------- #
# block boundaries of the blocked kernels
# --------------------------------------------------------------------------- #


def _unblocked_expand(values, bits):
    """The spread over the whole column at once, one step per pass."""
    x = np.asarray(values, dtype=np.uint64) & np.uint64((1 << bits) - 1)
    shifted = np.empty_like(x)
    for shift, mask in _SPREAD_STEPS:
        np.left_shift(x, shift, out=shifted)
        x |= shifted
        x &= mask
    return x


def _unblocked_interleave(grid, bits):
    codes = _unblocked_expand(grid[:, 0], bits)
    for axis in (1, 2):
        codes <<= np.uint64(1)
        codes |= _unblocked_expand(grid[:, axis], bits)
    return codes


def _unblocked_quantize(points, lo, hi, bits):
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    cells = (1 << bits) - 1
    grid = np.empty((3, pts.shape[0]), dtype=np.uint64)
    for axis in range(3):
        extent = hi[axis] - lo[axis]
        scaled = pts[:, axis] - lo[axis]
        scaled /= extent if extent > 0 else 1.0
        scaled *= cells
        grid[axis] = scaled
        np.minimum(grid[axis], np.uint64(cells), out=grid[axis])
    return grid.T


def _unblocked_prefix(grid, bits, prefix_bits):
    top = -(-prefix_bits // 3)
    head = np.asarray(grid, dtype=np.uint64) >> np.uint64(bits - top)
    bucket = np.zeros(head.shape[0], dtype=np.int64)
    for j in range(prefix_bits):
        bucket <<= 1
        bucket |= ((head[:, j % 3] >> np.uint64(top - 1 - j // 3)) & np.uint64(1)).astype(np.int64)
    return bucket


#: lengths around the block size: empty, one row, one block give or take a
#: row, and three blocks plus a ragged tail
BLOCK_LENGTHS = [0, 1, MORTON_BLOCK - 1, MORTON_BLOCK, MORTON_BLOCK + 1, 3 * MORTON_BLOCK + 7]


def _block_grid(n: int, bits: int, rng) -> np.ndarray:
    """An ``(n, 3)`` view of ``(3, n)`` grid columns with runs of duplicate
    cells and the grid's corners."""
    grid = rng.integers(0, 1 << bits, size=(3, n), dtype=np.uint64)
    if n > 8:
        grid[:, n // 3 : n // 3 + 5] = grid[:, :1]  # a run of one cell
        grid[:, -3:] = [[0, (1 << bits) - 1, 0]] * 3  # corners, the last block too
    return grid.T


class TestBlockBoundaries:
    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    @pytest.mark.parametrize("bits", [0, 1, 2, 20, 21])
    def test_expand_matches_the_unblocked_spread(self, n, bits):
        values = np.random.default_rng([DIFF_SEED, n, bits]).integers(
            0, 1 << 63, n, dtype=np.uint64
        )
        if n:
            values[n // 2 : n // 2 + 3] = values[0]  # duplicates
        got = expand_bits_3(values, bits)
        assert got.dtype == np.uint64 and got.shape == (n,)
        assert np.array_equal(got, _unblocked_expand(values, bits))

    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    @pytest.mark.parametrize("bits", [1, 2, 20, 21])
    def test_interleave_matches_the_unblocked_codes(self, n, bits):
        grid = _block_grid(n, bits, np.random.default_rng([DIFF_SEED, n, bits, 1]))
        for layout in (grid, np.ascontiguousarray(grid)):
            got = morton_interleave_grid(layout, bits)
            assert got.dtype == np.uint64 and got.shape == (n,)
            assert np.array_equal(got, _unblocked_interleave(layout, bits))

    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    @pytest.mark.parametrize("bits", [1, 2, 20, 21])
    def test_prefix_buckets_match_the_unblocked_bits(self, n, bits):
        grid = _block_grid(n, bits, np.random.default_rng([DIFF_SEED, n, bits, 2]))
        edges = {1, 2, 3, 4, 12, 16, 3 * bits - 1, 3 * bits}
        for prefix_bits in sorted(p for p in edges if 1 <= p <= 3 * bits):
            got = morton_prefix_buckets(grid, bits, prefix_bits)
            assert got.dtype == np.int64 and got.shape == (n,)
            assert np.array_equal(got, _unblocked_prefix(grid, bits, prefix_bits)), prefix_bits

    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    @pytest.mark.parametrize("bits", [1, 2, 20, 21])
    def test_quantize_matches_the_unblocked_cells(self, n, bits):
        rng = np.random.default_rng([DIFF_SEED, n, bits, 3])
        columns = np.stack([rng.uniform(-1e3, 1e3, n), rng.uniform(0, 1e12, n), np.full(n, 7.25)])
        if n:
            columns[:, n // 2 : n // 2 + 4] = columns[:, :1]  # duplicates
            grid, lo, hi = quantize_to_grid_with_bounds(columns.T, bits)
        else:
            lo, hi = np.zeros(3), np.ones(3)
            grid = morton.quantize_to_grid(columns.T, lo, hi, bits)
        assert grid.shape == (n, 3)
        assert np.array_equal(grid, _unblocked_quantize(columns.T, lo, hi, bits))
        assert np.array_equal(morton.quantize_to_grid(columns.T, lo, hi, bits), grid)
