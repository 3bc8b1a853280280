"""Morton (Z-order) codes for the LBVH builder.

GPU BVH builders quantise primitive centroids onto a uniform grid spanning
the scene bounds and sort them along a space-filling curve.  The grid has a
fixed number of bits per axis, which is exactly why coordinate distributions
with an enormous value range (Extended Mode with a large key-range ratio)
collapse many primitives into the same cell and degrade the tree.

Every pass reads its ``(n, 3)`` input one axis at a time, so the fast layout
is the ``.T`` view of ``(3, n)`` per-axis columns, and grids come back in
that layout too.  A code interleaves three axes of at most 21 bits, each
spread by the classic five shift-and-mask steps; no lookup table is
involved.  The quantise, spread and prefix kernels run over
:data:`MORTON_BLOCK` rows at a time, so every step's temporaries stay in
one small scratch buffer instead of streaming whole columns through
memory once per step.
"""

from __future__ import annotations

import numpy as np

#: Rows per block of the quantise, spread and prefix kernels: a block's
#: uint64 / float64 lanes (256 KiB each) stay L2-resident.  A pure
#: execution-schedule knob: every kernel is elementwise, so the output is
#: bit-identical for any block size.
MORTON_BLOCK = 1 << 15

#: ``(shift, mask)`` of the five steps that spread 21 bits two zero bits apart
_SPREAD_STEPS = [
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in (
        (32, 0x1F00000000FFFF), (16, 0x1F0000FF0000FF), (8, 0x100F00F00F00F00F),
        (4, 0x10C30C30C30C30C3), (2, 0x1249249249249249),
    )
]


def _blocks(n: int):
    """``(lo, hi)`` of the :data:`MORTON_BLOCK`-row blocks of ``n`` rows."""
    return ((lo, min(lo + MORTON_BLOCK, n)) for lo in range(0, n, MORTON_BLOCK))


def _spread(values: np.ndarray, mask: np.uint64, out: np.ndarray, scratch: np.ndarray) -> None:
    """Write the spread of ``values & mask`` into ``out``; ``scratch`` is a
    buffer of ``out``'s length that the shifts go through."""
    np.bitwise_and(values, mask, out=out)
    for shift, step_mask in _SPREAD_STEPS:
        np.left_shift(out, shift, out=scratch)
        out |= scratch
        out &= step_mask


def require_finite(
    bounds: np.ndarray, *columns: np.ndarray, rows: np.ndarray | None = None
) -> None:
    """Raise ``ValueError`` naming the first non-finite row of ``columns``
    (each ``(k, n)``) unless ``bounds``, min/max reductions over them that
    the caller has anyway, are finite; only the error path searches rows.
    When the columns hold some rows only, ``rows`` gives the row number of
    each of their positions."""
    if not np.isfinite(bounds).all():
        finite = np.logical_and.reduce([np.isfinite(c).all(axis=0) for c in columns])
        i = int(np.flatnonzero(~finite)[0])
        values = [c[:, i].tolist() for c in columns]
        row = i if rows is None else int(rows[i])
        raise ValueError(f"primitive {row} has a non-finite coordinate: {values}")


def quantize_to_grid_with_bounds(
    points: np.ndarray, bits: int, bounds: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantise ``(n, 3)`` points onto the Morton grid spanning their own
    bounds and return those bounds; a non-finite point raises ``ValueError``.
    ``bounds`` passes them as ``(lo, hi)`` when the caller has them.

    Any subset of the points gets the same cells from
    :func:`quantize_to_grid` against these bounds, which is how a forest's
    delta update re-quantises only the rows it re-sorts.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    lo, hi = bounds or (
        np.array([pts[:, axis].min() for axis in range(3)]),
        np.array([pts[:, axis].max() for axis in range(3)]),
    )
    require_finite(np.concatenate([lo, hi]), pts.T)
    return quantize_to_grid(pts, lo, hi, bits), lo, hi


def quantize_to_grid(points: np.ndarray, lo: np.ndarray, hi: np.ndarray, bits: int) -> np.ndarray:
    """Grid cells of finite ``(n, 3)`` points on the grid spanning ``[lo, hi]``.

    Per-element arithmetic only, so any subset of the points gets the cells
    the whole set gets.  Returns an ``(n, 3)`` view of ``(3, n)`` uint64
    per-axis columns.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    grid = np.empty((3, pts.shape[0]), dtype=np.uint64)
    for axis in range(3):
        quantize_axis(pts[:, axis], lo[axis], hi[axis], bits, grid[axis])
    return grid.T


def quantize_axis(
    values: np.ndarray, lo: float, hi: float, bits: int, out: np.ndarray, shift: int = 0
) -> None:
    """Write the grid cells of one axis's finite float64 ``values`` on the
    ``bits``-bit grid spanning ``[lo, hi]``, shifted right by ``shift``,
    into the unsigned column ``out``.

    :func:`quantize_to_grid` runs it with no shift into uint64 columns; a
    forest load keeps only each axis's top bits, in the narrowest dtype
    that holds them, so no uint64 column is ever whole.
    """
    cells = (1 << bits) - 1
    top = np.uint64(cells)
    extent = hi - lo
    divisor = extent if extent > 0 else 1.0
    n = values.shape[0]
    block = min(n, MORTON_BLOCK)
    lane = np.empty(block)
    staged = np.empty(block, dtype=np.uint64) if shift or out.dtype != np.uint64 else None
    for start, stop in _blocks(n):
        scaled = lane[: stop - start]
        cell = out[start:stop] if staged is None else staged[: stop - start]
        np.subtract(values[start:stop], lo, out=scaled)
        scaled /= divisor
        scaled *= cells
        np.copyto(cell, scaled, casting="unsafe")
        np.minimum(cell, top, out=cell)
        if staged is not None:
            np.right_shift(cell, np.uint64(shift), out=out[start:stop], casting="unsafe")


def morton_interleave_grid(grid: np.ndarray, bits: int) -> np.ndarray:
    """Interleave already-quantised ``(n, 3)`` grid coordinates into codes.

    Split out of :func:`morton_encode_3d` so the sharded forest can quantise
    once, keep the grid for its bucket partition, and interleave every row
    (a build) or only a dirty shard's rows (a delta update); the codes are
    the same integers either way.  Each block spreads its three axes and
    merges them before the next block starts.
    """
    grid = np.asarray(grid, dtype=np.uint64)
    n = grid.shape[0]
    codes = np.empty(n, dtype=np.uint64)
    lanes = np.empty((2, min(n, MORTON_BLOCK)), dtype=np.uint64)
    mask = np.uint64((1 << bits) - 1)
    one = np.uint64(1)
    for lo, hi in _blocks(n):
        code, (spread, scratch) = codes[lo:hi], lanes[:, : hi - lo]
        _spread(grid[lo:hi, 0], mask, code, scratch)
        for axis in (1, 2):
            _spread(grid[lo:hi, axis], mask, spread, scratch)
            code <<= one
            code |= spread
    return codes


def morton_encode_3d(points: np.ndarray, bits: int = 21, bounds=None) -> np.ndarray:
    """Morton-encode ``(n, 3)`` float points using ``bits`` bits per axis.

    Returns an ``(n,)`` uint64 array of codes; ``bits`` must be at most 21 so
    the interleaved code fits into 63 bits.  ``bounds`` are the points' own
    (:func:`quantize_to_grid_with_bounds`).
    """
    if not 1 <= bits <= 21:
        raise ValueError("bits must be in [1, 21]")
    grid, _, _ = quantize_to_grid_with_bounds(points, bits, bounds)
    return morton_interleave_grid(grid, bits)


def morton_prefix_buckets(grid: np.ndarray, bits: int, prefix_bits: int) -> np.ndarray:
    """Top ``prefix_bits`` bits of each grid point's Morton code.

    The bucket of a point is the ``prefix_bits``-bit prefix of its interleaved
    code — the shard key of the BVH forest.  Because the code interleaves the
    axes as ``x, y, z`` from the most significant bit downwards, the prefix can
    be assembled straight from the top grid bits without expanding the full
    code: bit ``j`` of the prefix (``j = 0`` most significant) is bit
    ``bits - 1 - j // 3`` of axis ``j % 3``.  Only the top
    ``ceil(prefix_bits / 3)`` bits of each axis take part, so each block cuts
    them out once, into the narrowest unsigned dtype that holds them; a grid
    of just those top bits, in any unsigned dtype, is read as is with
    ``bits`` set to their count.  The buckets come back in the narrowest
    unsigned dtype that holds ``prefix_bits`` bits (uint16 for a forest's
    ``shard_bits`` of 9 to 16), the one they are assembled in.
    """
    if not 1 <= prefix_bits <= 3 * bits:
        raise ValueError("prefix_bits must be in [1, 3 * bits]")
    top = -(-prefix_bits // 3)
    grid = np.asarray(grid)
    n = grid.shape[0]
    cut = np.uint64(bits - top)
    block = min(n, MORTON_BLOCK)
    # Three axis heads and one bit lane, then the prefix being assembled.
    heads = np.empty((4, block), dtype=np.min_scalar_type((1 << top) - 1))
    lane = np.empty(block, dtype=np.min_scalar_type((1 << prefix_bits) - 1))
    bucket = np.empty(n, dtype=lane.dtype)
    for lo, hi in _blocks(n):
        head, prefix = heads[:, : hi - lo], lane[: hi - lo]
        for axis in range(3):
            np.right_shift(grid[lo:hi, axis], cut, out=head[axis], casting="unsafe")
        prefix[...] = 0
        for j in range(prefix_bits):
            prefix <<= 1
            np.right_shift(head[j % 3], top - 1 - j // 3, out=head[3])
            head[3] &= 1
            prefix |= head[3]
        bucket[lo:hi] = prefix
    return bucket
