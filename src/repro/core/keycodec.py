"""Key-to-coordinate codecs: Naive, Extended and 3D Mode (Section 3.2, Table 1).

OptiX only accepts float32 coordinates, so 32/64-bit integer keys cannot be
used as coordinates directly.  The three codecs trade supported key range
against scene layout:

=========  ==============  ==========================================  ==========
mode       distinct keys   conversion                                  gap
=========  ==============  ==========================================  ==========
Naive      2^23            ``k -> (float(k), 0, 0)``                   ``±0.5``
Extended   2^29            ``k -> (bit_cast<float>(2k + C), 0, 0)``    ``nextafter``
3D         2^64            ``k -> (float(k_x), float(k_y), float(k_z))``  ``±0.5``
=========  ==============  ==========================================  ==========

Each codec knows how to encode the key column into primitive anchor points
and how to build the ray batches for point and range lookups under every ray
mode it supports.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.config import (
    KeyDecomposition,
    KeyMode,
    PointRayMode,
    RangeRayMode,
)
from repro.core.rays import (
    expand_multi_row_ranges,
    parallel_rays_from_offset,
    parallel_rays_from_zero,
    perpendicular_point_rays,
)
from repro.rtx import float32 as f32
from repro.rtx.geometry import RayBatch


def as_lookup_keys(keys, name: str) -> np.ndarray:
    """``keys`` as a 1-D uint64 array of lookup keys or range bounds.

    The ray builders take one lookup per element, so a scalar or a 2-D
    array raises ``ValueError`` naming the argument ``name``.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array of keys, got shape {keys.shape}")
    return keys


def as_range_bounds(lowers, uppers) -> tuple[np.ndarray, np.ndarray]:
    """``(lowers, uppers)`` as equal-shaped 1-D uint64 inclusive range bounds.

    The one check of a range lookup's bounds on the index path, the same
    in every key mode: each argument must be 1-D (:func:`as_lookup_keys`),
    both the same shape, and no range inverted (``upper < lower``).  The
    codecs' ray builders take bounds that passed it.
    """
    lowers = as_lookup_keys(lowers, "lowers")
    uppers = as_lookup_keys(uppers, "uppers")
    if lowers.shape != uppers.shape:
        raise ValueError("lowers and uppers must have the same shape")
    if np.any(uppers < lowers):
        raise ValueError("range lookups require upper >= lower")
    return lowers, uppers


class KeyCodec(abc.ABC):
    """Base class of the three key conversion modes."""

    mode: KeyMode
    #: whether ``max_key()`` is 2^64 - 1, so no uint64 key needs a range
    #: check (3D Mode's default 23+23+18 split)
    accepts_all_keys: bool = False

    @abc.abstractmethod
    def max_key(self) -> int:
        """Largest key value this codec can represent correctly."""

    def validate_keys(self, keys: np.ndarray, name: str = "the key column") -> None:
        """Raise ``ValueError`` if any key exceeds the codec's supported range.

        ``name`` is what the message calls the keys: the key column by
        default, or the lookup argument they came in (``"queries"``).
        """
        if self.accepts_all_keys:
            return
        keys = np.asarray(keys, dtype=np.uint64)
        limit = np.uint64(self.max_key())
        if keys.size and np.any(keys > limit):
            raise ValueError(
                f"{self.mode.value} mode supports keys up to {int(limit)}, "
                f"but {name} holds {int(keys.max())}"
            )

    @abc.abstractmethod
    def encode_points(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Map keys to ``(n, 3)`` float32 anchor points.

        Returns ``(points, x_half_extent)`` where ``x_half_extent`` is either
        ``None`` (use the default ±0.5 gap) or a per-key array of world-space
        half widths along x (Extended Mode's one-ULP gaps).  ``points`` is
        the transposed view of ``(3, n)`` per-axis columns, one write per
        axis: the layout :class:`repro.rtx.geometry.AnchoredTriangleBuffer`
        stores, so it adopts them without a copy.
        """

    @abc.abstractmethod
    def point_ray_batch(self, queries: np.ndarray, mode: PointRayMode) -> RayBatch:
        """Build the ray batch answering one point lookup per query key."""

    @abc.abstractmethod
    def range_ray_batch(
        self,
        lowers: np.ndarray,
        uppers: np.ndarray,
        mode: RangeRayMode,
        max_rays_per_range: int = 64,
    ) -> RayBatch:
        """Build the ray batch answering one range lookup per (lower, upper) pair.

        The bounds are ones :func:`as_range_bounds` accepts: no range is
        inverted.
        """


class NaiveCodec(KeyCodec):
    """Naive Mode: cast the key directly to a float32 x coordinate.

    Limited to 2^23 distinct keys so that ``k ± 0.5`` stays exactly
    representable for every key (the ray endpoints need the gaps).
    """

    mode = KeyMode.NAIVE

    def max_key(self) -> int:
        return f32.NAIVE_MODE_KEY_LIMIT - 1

    def encode_points(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        self.validate_keys(keys)
        keys = np.asarray(keys, dtype=np.uint64)
        anchors = np.zeros((3, keys.shape[0]), dtype=np.float32)
        anchors[0] = keys
        return anchors.T, None

    def point_ray_batch(self, queries: np.ndarray, mode: PointRayMode) -> RayBatch:
        self.validate_keys(queries, "queries")
        queries = np.asarray(queries, dtype=np.uint64)
        anchors, _ = self.encode_points(queries)
        x = queries.astype(np.float64)
        zeros = np.zeros(queries.shape[0])
        if mode is PointRayMode.PERPENDICULAR:
            return perpendicular_point_rays(anchors)
        if mode is PointRayMode.PARALLEL_FROM_OFFSET:
            return parallel_rays_from_offset(zeros, zeros, x - 0.5, x + 0.5)
        return parallel_rays_from_zero(zeros, zeros, x - 0.5, x + 0.5)

    def range_ray_batch(
        self,
        lowers: np.ndarray,
        uppers: np.ndarray,
        mode: RangeRayMode,
        max_rays_per_range: int = 64,
    ) -> RayBatch:
        self.validate_keys(lowers, "lowers")
        self.validate_keys(uppers, "uppers")
        lo = np.asarray(lowers, dtype=np.float64)
        hi = np.asarray(uppers, dtype=np.float64)
        zeros = np.zeros(lo.shape[0])
        if mode is RangeRayMode.PARALLEL_FROM_OFFSET:
            return parallel_rays_from_offset(zeros, zeros, lo - 0.5, hi + 0.5)
        return parallel_rays_from_zero(zeros, zeros, lo - 0.5, hi + 0.5)


class ExtendedCodec(KeyCodec):
    """Extended Mode: map key ``k`` to the float32 with bit pattern ``2k + C``.

    Mapping to every second representable float guarantees a gap value
    between adjacent keys, found with ``nextafter`` instead of ``± 0.5``.
    Supports 2^29 distinct keys; rays can only start from zero because the
    origin cannot be offset without rounding.
    """

    mode = KeyMode.EXTENDED

    def max_key(self) -> int:
        return f32.EXTENDED_MODE_KEY_LIMIT - 1

    def _coords(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        bits = (np.uint64(2) * keys + np.uint64(f32.EXTENDED_MODE_OFFSET)).astype(np.uint32)
        return f32.bit_cast_u32_to_f32(bits)

    def gap_below(self, keys: np.ndarray) -> np.ndarray:
        """The representable float just below each key's coordinate."""
        return f32.nextafter_f32(self._coords(keys), np.float32(-np.inf))

    def gap_above(self, keys: np.ndarray) -> np.ndarray:
        """The representable float just above each key's coordinate."""
        return f32.nextafter_f32(self._coords(keys), np.float32(np.inf))

    def encode_points(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        self.validate_keys(keys)
        coords = self._coords(keys)
        anchors = np.zeros((3, coords.shape[0]), dtype=np.float32)
        anchors[0] = coords
        # One ULP is exact in float32: 4 B/key beside the anchors.
        return anchors.T, f32.ulp_f32(coords)

    def point_ray_batch(self, queries: np.ndarray, mode: PointRayMode) -> RayBatch:
        self.validate_keys(queries, "queries")
        queries = np.asarray(queries, dtype=np.uint64)
        if mode is PointRayMode.PARALLEL_FROM_OFFSET:
            raise ValueError("Extended Mode does not support offset ray origins")
        anchors, _ = self.encode_points(queries)
        zeros = np.zeros(queries.shape[0])
        if mode is PointRayMode.PERPENDICULAR:
            return perpendicular_point_rays(anchors)
        lo = self.gap_below(queries).astype(np.float64)
        hi = self.gap_above(queries).astype(np.float64)
        return parallel_rays_from_zero(zeros, zeros, lo, hi)

    def range_ray_batch(
        self,
        lowers: np.ndarray,
        uppers: np.ndarray,
        mode: RangeRayMode,
        max_rays_per_range: int = 64,
    ) -> RayBatch:
        if mode is RangeRayMode.PARALLEL_FROM_OFFSET:
            raise ValueError("Extended Mode does not support offset ray origins")
        self.validate_keys(lowers, "lowers")
        self.validate_keys(uppers, "uppers")
        zeros = np.zeros(np.asarray(lowers).shape[0])
        lo = self.gap_below(lowers).astype(np.float64)
        hi = self.gap_above(uppers).astype(np.float64)
        return parallel_rays_from_zero(zeros, zeros, lo, hi)


class ThreeDCodec(KeyCodec):
    """3D Mode: split the key's bits across the x, y and z coordinates.

    The default 23+23+18 split supports full 64-bit keys.  Point lookups
    receive a three-dimensional anchor; range lookups may need one ray per
    (y, z) row the range touches (Figure 4).
    """

    mode = KeyMode.THREE_D

    def __init__(self, decomposition: KeyDecomposition | None = None):
        self.decomposition = decomposition or KeyDecomposition()
        self.accepts_all_keys = self.decomposition.max_key == (1 << 64) - 1

    def max_key(self) -> int:
        return self.decomposition.max_key

    def decompose(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split keys into their (x, y, z) integer components."""
        keys = np.asarray(keys, dtype=np.uint64)
        d = self.decomposition
        x_mask = np.uint64((1 << d.x_bits) - 1)
        y_mask = np.uint64((1 << d.y_bits) - 1) if d.y_bits else np.uint64(0)
        x = keys & x_mask
        y = (keys >> np.uint64(d.x_bits)) & y_mask if d.y_bits else np.zeros_like(keys)
        z = keys >> np.uint64(d.x_bits + d.y_bits) if d.z_bits else np.zeros_like(keys)
        return x, y, z

    def recompose(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`decompose`."""
        d = self.decomposition
        x = np.asarray(x, dtype=np.uint64)
        y = np.asarray(y, dtype=np.uint64)
        z = np.asarray(z, dtype=np.uint64)
        return x | (y << np.uint64(d.x_bits)) | (z << np.uint64(d.x_bits + d.y_bits))

    def encode_points(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        self.validate_keys(keys)
        x, y, z = self.decompose(keys)
        anchors = np.empty((3, x.shape[0]), dtype=np.float32)
        anchors[0], anchors[1], anchors[2] = x, y, z
        return anchors.T, None

    def point_ray_batch(self, queries: np.ndarray, mode: PointRayMode) -> RayBatch:
        self.validate_keys(queries, "queries")
        queries = np.asarray(queries, dtype=np.uint64)
        x, y, z = self.decompose(queries)
        xf = x.astype(np.float64)
        yf = y.astype(np.float64)
        zf = z.astype(np.float64)
        if mode is PointRayMode.PERPENDICULAR:
            anchors = np.column_stack([xf, yf, zf])
            return perpendicular_point_rays(anchors)
        if mode is PointRayMode.PARALLEL_FROM_OFFSET:
            return parallel_rays_from_offset(yf, zf, xf - 0.5, xf + 0.5)
        return parallel_rays_from_zero(yf, zf, xf - 0.5, xf + 0.5)

    def range_ray_batch(
        self,
        lowers: np.ndarray,
        uppers: np.ndarray,
        mode: RangeRayMode,
        max_rays_per_range: int = 64,
    ) -> RayBatch:
        self.validate_keys(lowers, "lowers")
        self.validate_keys(uppers, "uppers")
        lowers = np.asarray(lowers, dtype=np.uint64)
        uppers = np.asarray(uppers, dtype=np.uint64)
        d = self.decomposition
        x_max = float((1 << d.x_bits) - 1)

        x_lo, y_lo, z_lo = self.decompose(lowers)
        x_hi, y_hi, z_hi = self.decompose(uppers)
        row_lo = lowers >> np.uint64(d.x_bits)
        row_hi = uppers >> np.uint64(d.x_bits)

        lookup_ids, rows, is_first, is_last = expand_multi_row_ranges(
            row_lo, row_hi, max_rays_per_range
        )
        y_mask = np.uint64((1 << d.y_bits) - 1) if d.y_bits else np.uint64(0)
        row_y = (rows & y_mask).astype(np.float64) if d.y_bits else np.zeros(rows.shape[0])
        row_z = (rows >> np.uint64(d.y_bits)).astype(np.float64) if d.z_bits else np.zeros(rows.shape[0])

        # The first row starts at the lookup's lower x, the last row ends at
        # the lookup's upper x; intermediate rows span the whole x axis.
        ray_x_lo = np.where(is_first, x_lo[lookup_ids].astype(np.float64), 0.0)
        ray_x_hi = np.where(is_last, x_hi[lookup_ids].astype(np.float64), x_max)

        if mode is RangeRayMode.PARALLEL_FROM_OFFSET:
            return parallel_rays_from_offset(
                row_y, row_z, ray_x_lo - 0.5, ray_x_hi + 0.5, lookup_ids=lookup_ids
            )
        return parallel_rays_from_zero(
            row_y, row_z, ray_x_lo - 0.5, ray_x_hi + 0.5, lookup_ids=lookup_ids
        )


def make_codec(
    mode: KeyMode, decomposition: KeyDecomposition | None = None
) -> KeyCodec:
    """Factory: build the codec for ``mode`` (3D Mode takes a decomposition)."""
    if mode is KeyMode.NAIVE:
        return NaiveCodec()
    if mode is KeyMode.EXTENDED:
        return ExtendedCodec()
    if mode is KeyMode.THREE_D:
        return ThreeDCodec(decomposition)
    raise ValueError(f"unknown key mode {mode!r}")
