"""Morton (Z-order) codes for the LBVH builder.

GPU BVH builders quantise primitive centroids onto a uniform grid spanning
the scene bounds and sort them along a space-filling curve.  The grid has a
fixed number of bits per axis, which is exactly why coordinate distributions
with an enormous value range (Extended Mode with a large key-range ratio)
collapse many primitives into the same cell and degrade the tree.
"""

from __future__ import annotations

import numpy as np


def _byte_expansion_table() -> np.ndarray:
    """256-entry table mapping a byte to its 3-way bit expansion (24 bits)."""
    table = np.zeros(256, dtype=np.uint64)
    for bit in range(8):
        table |= ((np.arange(256, dtype=np.uint64) >> np.uint64(bit)) & np.uint64(1)) << np.uint64(3 * bit)
    return table


_EXPAND_BYTE = _byte_expansion_table()


def expand_bits_3(values: np.ndarray, bits: int) -> np.ndarray:
    """Spread the lowest ``bits`` bits of each value so that two zero bits
    separate consecutive payload bits (the classic Morton interleave step).

    Evaluated one byte at a time through a precomputed 256-entry table (three
    gathers for the full 21-bit range) instead of one pass per bit; the
    resulting codes are identical integers either way.
    """
    values = np.asarray(values, dtype=np.uint64)
    if bits < 64:
        values = values & np.uint64((1 << bits) - 1)
    result = _EXPAND_BYTE[(values & np.uint64(0xFF)).astype(np.intp)]
    for byte in range(1, (bits + 7) // 8):
        chunk = (values >> np.uint64(8 * byte)) & np.uint64(0xFF)
        result |= _EXPAND_BYTE[chunk.astype(np.intp)] << np.uint64(24 * byte)
    return result


def quantize_to_grid_with_bounds(
    points: np.ndarray, bits: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantise points onto the Morton grid and return the bounds that
    defined it.

    The sharded forest build stores the returned ``(lo, hi)`` so delta
    updates can detect when the global grid itself moved (any change of the
    scene bounds re-quantises *every* code and dirties every shard).
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    extent = np.where(hi - lo > 0, hi - lo, 1.0)
    cells = (1 << bits) - 1
    normalized = (pts - lo) / extent
    grid = np.minimum((normalized * cells).astype(np.uint64), np.uint64(cells))
    return grid, lo, hi


def quantize_to_grid(points: np.ndarray, bits: int) -> np.ndarray:
    """Quantise ``(n, 3)`` points onto a ``2**bits`` per-axis grid over their bounds."""
    grid, _, _ = quantize_to_grid_with_bounds(points, bits)
    return grid


def morton_interleave_grid(grid: np.ndarray, bits: int) -> np.ndarray:
    """Interleave already-quantised ``(n, 3)`` grid coordinates into codes.

    Split out of :func:`morton_encode_3d` so the sharded forest can quantise
    once, keep the grid for its bucket partition, and interleave every row
    (a build) or only a dirty shard's rows (a delta update); the codes are
    the same integers either way.
    """
    x = expand_bits_3(grid[:, 0], bits)
    y = expand_bits_3(grid[:, 1], bits)
    z = expand_bits_3(grid[:, 2], bits)
    return (x << np.uint64(2)) | (y << np.uint64(1)) | z


def morton_encode_3d(points: np.ndarray, bits: int = 21) -> np.ndarray:
    """Morton-encode ``(n, 3)`` float points using ``bits`` bits per axis.

    Returns an ``(n,)`` uint64 array of codes; ``bits`` must be at most 21 so
    the interleaved code fits into 63 bits.
    """
    if not 1 <= bits <= 21:
        raise ValueError("bits must be in [1, 21]")
    grid = quantize_to_grid(points, bits)
    return morton_interleave_grid(grid, bits)


def morton_prefix_buckets(grid: np.ndarray, bits: int, prefix_bits: int) -> np.ndarray:
    """Top ``prefix_bits`` bits of each grid point's Morton code.

    The bucket of a point is the ``prefix_bits``-bit prefix of its interleaved
    code — the shard key of the BVH forest.  Because the code interleaves the
    axes as ``x, y, z`` from the most significant bit downwards, the prefix can
    be assembled straight from the top grid bits without expanding the full
    code: bit ``j`` of the prefix (``j = 0`` most significant) is bit
    ``bits - 1 - j // 3`` of axis ``j % 3``.  Only the top
    ``ceil(prefix_bits / 3)`` bits of each axis take part, so they are cut
    out once, into the narrowest unsigned dtype that holds them.
    """
    if not 1 <= prefix_bits <= 3 * bits:
        raise ValueError("prefix_bits must be in [1, 3 * bits]")
    top = -(-prefix_bits // 3)
    head = np.asarray(grid, dtype=np.uint64) >> np.uint64(bits - top)
    head = head.astype(np.min_scalar_type((1 << top) - 1))
    axes = [np.ascontiguousarray(head[:, axis]) for axis in range(3)]
    bucket = np.zeros(head.shape[0], dtype=np.min_scalar_type((1 << prefix_bits) - 1))
    for j in range(prefix_bits):
        bucket <<= 1
        bucket |= (axes[j % 3] >> (top - 1 - j // 3)) & 1
    return bucket.astype(np.int64)


def morton_decode_3d(codes: np.ndarray, bits: int = 21) -> np.ndarray:
    """Inverse of the interleave step: recover grid coordinates from codes."""
    codes = np.asarray(codes, dtype=np.uint64)
    coords = np.zeros((codes.shape[0], 3), dtype=np.uint64)
    for bit in range(bits):
        coords[:, 0] |= ((codes >> np.uint64(3 * bit + 2)) & np.uint64(1)) << np.uint64(bit)
        coords[:, 1] |= ((codes >> np.uint64(3 * bit + 1)) & np.uint64(1)) << np.uint64(bit)
        coords[:, 2] |= ((codes >> np.uint64(3 * bit)) & np.uint64(1)) << np.uint64(bit)
    return coords
