"""Geometric primitives, ray batches, and intersection tests.

All coordinates are stored as float32, matching the OptiX restriction the
paper has to work around.  Three primitive types are supported, mirroring
Section 3.5 of the paper:

* **triangles** — nine float32 per primitive (three 3D vertices); the
  intersection test is "hardware accelerated" (flagged as such so the cost
  model can price it on the RT cores).  An index's key triangles are a pure
  function of their anchor points, so :class:`AnchoredTriangleBuffer` holds
  only the anchors and recomputes corners on demand; arbitrary scenes use
  the vertex-array :class:`TriangleBuffer`,
* **spheres** — three float32 per primitive plus a shared radius,
* **AABBs** — six float32 per primitive with a user-provided (software)
  intersection program.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

FLOAT_BYTES = 4

#: Sentinel used in hit records when a ray does not intersect anything.
NO_HIT = np.uint32(0xFFFFFFFF)

#: Per-pair intersection tests are evaluated in blocks of this many pairs so
#: the dozens of pair-sized float64 temporaries stay cache-resident.  A pure
#: execution-schedule knob: the tests are elementwise, so the masks are
#: bit-identical for any block size.
PAIR_BLOCK = 1 << 15


@dataclass
class RayBatch:
    """A batch of rays, stored as structure-of-arrays.

    Attributes
    ----------
    origins:
        ``(n, 3)`` float32 array of ray origins ``o``.
    directions:
        ``(n, 3)`` float32 array of ray directions ``d`` (not necessarily
        normalised; the intersection parameter ``t`` is measured in units of
        ``d`` exactly as in OptiX).
    tmin, tmax:
        ``(n,)`` float32 arrays restricting reported intersections to
        ``tmin < t < tmax``.
    lookup_ids:
        ``(n,)`` non-negative int64 array mapping each ray back to the lookup
        that spawned it (the budgeted trace modes index per-lookup budgets
        with it).  A single range lookup in 3D Mode may fan out into several
        rays.
    """

    origins: np.ndarray
    directions: np.ndarray
    tmin: np.ndarray
    tmax: np.ndarray
    lookup_ids: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        self.origins = np.asarray(self.origins, dtype=np.float32).reshape(-1, 3)
        self.directions = np.asarray(self.directions, dtype=np.float32).reshape(-1, 3)
        n = self.origins.shape[0]
        self.tmin = np.broadcast_to(
            np.asarray(self.tmin, dtype=np.float32), (n,)
        ).copy()
        self.tmax = np.broadcast_to(
            np.asarray(self.tmax, dtype=np.float32), (n,)
        ).copy()
        if self.lookup_ids is None:
            self.lookup_ids = np.arange(n, dtype=np.int64)
        else:
            self.lookup_ids = np.asarray(self.lookup_ids, dtype=np.int64).reshape(-1)
            if self.lookup_ids.size and int(self.lookup_ids.min()) < 0:
                raise ValueError("lookup_ids must be non-negative lookup indices")
        if self.directions.shape[0] != n or self.lookup_ids.shape[0] != n:
            raise ValueError("all ray component arrays must have the same length")

    def __len__(self) -> int:
        return int(self.origins.shape[0])


class PrimitiveBuffer:
    """Base class for primitive buffers (the OptiX "vertex buffer" analogue).

    The position of a primitive within the buffer is its unique identifier;
    the paper stores each key's triangle at the offset equal to its rowID so
    that a reported hit directly yields the rowID.
    """

    #: human-readable primitive kind ("triangle", "sphere", "aabb")
    kind: str = "abstract"
    #: True when the per-primitive intersection test runs on the RT cores.
    hardware_intersection: bool = False
    #: names of the array attributes that hold the primitives
    _stored: tuple[str, ...] = ()
    #: names of the values every primitive shares (a half-extent, a radius)
    _shared: tuple[str, ...] = ()

    def resident_bytes(self) -> int:
        """Host bytes the buffer holds right now: its primitive arrays plus
        any warm intersection pack."""
        arrays = [getattr(self, name) for name in self._stored]
        arrays.extend(getattr(self, "_pack", None) or ())
        return sum(int(arr.nbytes) for arr in arrays if arr is not None)

    def _row_columns(self) -> list[np.ndarray]:
        """The stored arrays as ``(n,)`` columns, one entry per row; each
        array holds one row per primitive along its first axis."""
        arrays = [getattr(self, name) for name in self._stored]
        return [
            column
            for arr in arrays
            if arr is not None
            for column in arr.reshape(len(arr), math.prod(arr.shape[1:])).T
        ]

    def _same_layout(self, other: "PrimitiveBuffer") -> bool:
        """Whether ``other`` has this buffer's type, shared values and
        stored columns, so that its rows compare with this buffer's."""
        return (
            type(other) is type(self)
            and all(getattr(other, name) == getattr(self, name) for name in self._shared)
            and len(other._row_columns()) == len(self._row_columns())
        )

    def changed_rows(self, old: "PrimitiveBuffer", rows: np.ndarray | None = None) -> np.ndarray:
        """Ascending rows below both lengths whose primitive differs from
        ``old``'s.

        Compares the stored per-row arrays column by column, by value: a
        primitive is a pure function of its row's stored values and the
        shared ones, so a row reported unchanged has the same bounds in
        both buffers.  With ``rows`` (ascending int64 rows below both
        lengths, among them every row that may differ, as a key diff
        gives them), only those rows are compared.  Every row differs when
        the buffer types, the shared values or the stored layouts differ.
        """
        common = min(len(self), len(old))
        if not self._same_layout(old):
            return np.arange(common, dtype=np.int64)
        at = slice(None, common) if rows is None else rows
        changed = np.zeros(common if rows is None else rows.shape[0], dtype=bool)
        for new, prev in zip(self._row_columns(), old._row_columns()):
            changed |= new[at] != prev[at]
        return np.flatnonzero(changed) if rows is None else rows[changed]

    def with_rows(self, rows: np.ndarray, patch: "PrimitiveBuffer") -> "PrimitiveBuffer":
        """A copy of this buffer whose primitives ``rows`` are ``patch``'s,
        in order: every other row, and the stored arrays' dtypes, shapes
        and read-only flags, are this buffer's.  ``patch`` holds one
        primitive per row, with this buffer's type and shared values.
        This buffer is not written: older epochs may still read it."""
        if not self._same_layout(patch) or len(patch) != len(rows):
            raise ValueError("a row patch needs one primitive per row and the buffer's layout")
        copied = copy.copy(self)
        if hasattr(copied, "_pack"):
            copied._pack = None  # the cached pack holds the old rows
        arrays = {n: getattr(self, n) for n in self._stored if getattr(self, n) is not None}
        for name, array in arrays.items():
            setattr(copied, name, array.copy())
        for column, values in zip(copied._row_columns(), patch._row_columns()):
            column[rows] = values
        for name, array in arrays.items():
            getattr(copied, name).flags.writeable = array.flags.writeable
        return copied

    def __len__(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def primitive_bytes(self) -> int:
        """Bytes of primitive storage handed to the acceleration build."""
        raise NotImplementedError

    def compute_aabbs(self, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Per-primitive axis-aligned bounds as ``(m, 3)`` float32 ``(mins,
        maxs)`` arrays: of every primitive, or of the int64 ``rows`` only,
        bit-identical to those rows of the full call.  Each array is the
        ``.T`` view of contiguous ``(3, m)`` per-axis columns, the layout
        the build passes read.  Drops any cached intersection pack."""
        raise NotImplementedError

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The union of every primitive's box as float32 ``(3,)`` ``(mins,
        maxs)``: :meth:`compute_aabbs` reduced, bit for bit."""
        mins, maxs = self.compute_aabbs()
        return mins.min(axis=0), maxs.max(axis=0)

    def intersect(self, origin, direction, tmin, tmax, prim_indices) -> np.ndarray:
        """Return the subset of ``prim_indices`` whose primitive the ray hits."""
        prim_indices = np.asarray(prim_indices, dtype=np.int64)
        m = prim_indices.shape[0]
        if m == 0:
            return prim_indices
        origins = np.broadcast_to(np.asarray(origin, dtype=np.float64), (m, 3))
        directions = np.broadcast_to(np.asarray(direction, dtype=np.float64), (m, 3))
        tmins = np.full(m, float(tmin))
        tmaxs = np.full(m, float(tmax))
        mask = self.intersect_pairs(origins, directions, tmins, tmaxs, prim_indices)
        return prim_indices[mask]

    def intersect_pairs(
        self, origins, directions, tmins, tmaxs, prim_indices, with_t: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Element-wise test of ray ``i`` against primitive ``prim_indices[i]``.

        All arguments are arrays of the same length ``m``; returns a boolean
        mask of length ``m``.  This is the work-horse of the wavefront
        traversal in :mod:`repro.rtx.traversal`.  Large pair streams are
        evaluated in :data:`PAIR_BLOCK`-sized blocks (see there).

        ``with_t=True`` returns ``(mask, t)`` instead, where the float64
        ``t`` holds, in pair order, the ray parameter of each pair the mask
        selects — the value :meth:`hit_t_pairs` reports for it.  The ordered
        top-k trace mode sorts its candidates by it.
        """
        prim_indices = np.asarray(prim_indices, dtype=np.int64)
        m = prim_indices.shape[0]
        block = self._hit_t_block if with_t else self._intersect_pairs_block
        if m == 0:
            mask = np.zeros(0, dtype=bool)
            return (mask, np.zeros(0, dtype=np.float64)) if with_t else mask
        if m <= PAIR_BLOCK:
            return block(origins, directions, tmins, tmaxs, prim_indices)
        origins = np.asarray(origins)
        directions = np.asarray(directions)
        tmins = np.asarray(tmins)
        tmaxs = np.asarray(tmaxs)
        blocks = [
            block(
                origins[lo : lo + PAIR_BLOCK],
                directions[lo : lo + PAIR_BLOCK],
                tmins[lo : lo + PAIR_BLOCK],
                tmaxs[lo : lo + PAIR_BLOCK],
                prim_indices[lo : lo + PAIR_BLOCK],
            )
            for lo in range(0, m, PAIR_BLOCK)
        ]
        if with_t:
            masks, ts = zip(*blocks)
            return np.concatenate(masks), np.concatenate(ts)
        return np.concatenate(blocks)

    def _mask_and_t(
        self, origins, directions, tmins, tmaxs, prim_indices
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(mask, t)`` of every pair of one block (``prim_indices`` already
        int64) from one evaluation of the buffer's test: whether the ray
        hits the primitive, and the ray parameter of the reported
        intersection, meaningful where the mask holds."""
        raise NotImplementedError

    def _intersect_pairs_block(
        self, origins, directions, tmins, tmaxs, prim_indices
    ) -> np.ndarray:
        """One block of element-wise pair tests."""
        return self._mask_and_t(origins, directions, tmins, tmaxs, prim_indices)[0]

    def _hit_t_block(
        self, origins, directions, tmins, tmaxs, prim_indices
    ) -> tuple[np.ndarray, np.ndarray]:
        """One block's mask and the hits' ``t``, from one evaluation."""
        mask, t = self._mask_and_t(origins, directions, tmins, tmaxs, prim_indices)
        return mask, t[mask]

    def hit_t_pairs(
        self, origins, directions, tmins, tmaxs, prim_indices
    ) -> np.ndarray:
        """Ray parameter ``t`` of each (ray, primitive) hit pair.

        Only meaningful for pairs that :meth:`intersect_pairs` reported as
        hits; the returned float64 ``t`` is the parameter of the reported
        intersection (the Möller–Trumbore ``t`` for triangles, the *first*
        valid root for spheres, the slab entry for AABBs).  The ordered
        top-k trace mode sorts candidate hits by this value.  The golden
        reference loop calls this method; the engine's
        ``intersect_pairs(..., with_t=True)`` takes ``t`` from the very
        evaluation that produced the mask.  Both run :meth:`_mask_and_t`,
        so both sides order by the same keys.
        """
        g = np.asarray(prim_indices, dtype=np.int64)
        if g.size == 0:
            return np.zeros(0, dtype=np.float64)
        return self._mask_and_t(origins, directions, tmins, tmaxs, g)[1]


class _MollerTrumboreBuffer(PrimitiveBuffer):
    """Triangles behind one Möller–Trumbore test.

    Subclasses differ only in how a tested pair's triangle is fetched:
    :meth:`_pair_triangles` returns its base vertex and two edge vectors as
    nine float64 components.  The test's expressions exist once, here, so
    both triangle buffers and the mask and ``t`` they report agree bit for
    bit whenever the fetched components do.
    """

    kind = "triangle"
    hardware_intersection = True

    def primitive_bytes(self) -> int:
        # nine float32 per triangle, exactly as the paper counts them
        return len(self) * 9 * FLOAT_BYTES

    def _pair_triangles(self, prim_indices) -> tuple[np.ndarray, ...]:
        """``(v0x, v0y, v0z, e1x, e1y, e1z, e2x, e2y, e2z)`` float64 arrays
        of the triangles ``prim_indices`` (int64), one entry per pair."""
        raise NotImplementedError

    def _moller_trumbore(self, origins, directions, prim_indices):
        """``(inside, t)`` per pair: whether the ray's line crosses the
        triangle, and the ray parameter of the crossing.

        Same component expressions as the classic per-call formulation (kept
        as ``reference_triangle_intersect_pairs`` in
        :mod:`repro.rtx._reference`), so masks are bit-identical.
        """
        v0x, v0y, v0z, e1x, e1y, e1z, e2x, e2y, e2z = self._pair_triangles(
            prim_indices
        )
        o = np.asarray(origins, dtype=np.float64)
        d = np.asarray(directions, dtype=np.float64)
        ox, oy, oz = o[:, 0], o[:, 1], o[:, 2]
        dx, dy, dz = d[:, 0], d[:, 1], d[:, 2]
        # pvec = d × e2
        px = dy * e2z - dz * e2y
        py = dz * e2x - dx * e2z
        pz = dx * e2y - dy * e2x
        det = e1x * px + e1y * py + e1z * pz
        eps = 1e-12
        parallel = np.abs(det) < eps
        safe_det = np.where(parallel, 1.0, det)
        inv_det = 1.0 / safe_det
        tvx = ox - v0x
        tvy = oy - v0y
        tvz = oz - v0z
        u = (tvx * px + tvy * py + tvz * pz) * inv_det
        # qvec = tvec × e1
        qx = tvy * e1z - tvz * e1y
        qy = tvz * e1x - tvx * e1z
        qz = tvx * e1y - tvy * e1x
        v = (dx * qx + dy * qy + dz * qz) * inv_det
        t = (e2x * qx + e2y * qy + e2z * qz) * inv_det
        inside = ~parallel & (u >= -1e-9) & (v >= -1e-9) & (u + v <= 1.0 + 1e-9)
        return inside, t

    def _mask_and_t(self, origins, directions, tmins, tmaxs, prim_indices):
        """``(mask, t)`` of every pair from one Möller–Trumbore evaluation:
        a hit is a crossing with ``tmin < t < tmax``."""
        inside, t = self._moller_trumbore(origins, directions, prim_indices)
        tmins = np.asarray(tmins, dtype=np.float64)
        tmaxs = np.asarray(tmaxs, dtype=np.float64)
        return inside & (t > tmins) & (t < tmaxs), t


class TriangleBuffer(_MollerTrumboreBuffer):
    """Triangles stored as an ``(n, 3, 3)`` float32 vertex array.

    The buffer for arbitrary scenes; an index's key triangles are held as
    their anchors by :class:`AnchoredTriangleBuffer`.
    """

    _stored = ("vertices",)

    def __init__(self, vertices: np.ndarray):
        vertices = np.asarray(vertices, dtype=np.float32)
        if vertices.ndim != 3 or vertices.shape[1:] != (3, 3):
            raise ValueError("triangle vertices must have shape (n, 3, 3)")
        self.vertices = vertices
        self._pack: tuple[np.ndarray, ...] | None = None

    def intersection_pack(self) -> tuple[np.ndarray, ...]:
        """SoA intersection data: nine contiguous ``(n,)`` float64 arrays.

        ``(v0x, v0y, v0z, e1x, e1y, e1z, e2x, e2y, e2z)`` — the base vertex
        and the two precomputed edge vectors of every triangle, one array per
        component.  Computed once and cached so :meth:`intersect_pairs` is
        pure 1D gathers plus fused arithmetic: no ``(m, 3, 3)`` row gather
        and no per-call edge recomputation.  Gather-then-subtract and
        subtract-then-gather commute elementwise, so intersection results
        are bit-identical to the per-call formulation.  The cache is
        invalidated by :meth:`compute_aabbs`, which every build/refit path
        calls, so callers that move primitives in place and rebuild or refit
        never intersect against stale geometry.
        """
        if self._pack is None:
            v64 = self.vertices.astype(np.float64)
            v0 = v64[:, 0]
            e1 = v64[:, 1] - v0
            e2 = v64[:, 2] - v0
            self._pack = tuple(
                np.ascontiguousarray(arr[:, axis])
                for arr in (v0, e1, e2)
                for axis in range(3)
            )
        return self._pack

    def __len__(self) -> int:
        return int(self.vertices.shape[0])

    def compute_aabbs(self, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        # Bounds are recomputed exactly when the vertices may have moved
        # (accel build or refit), so drop the cached intersection pack.
        self._pack = None
        # Pairwise min/max over the three corner rows: the same sequential
        # reduction order as .min(axis=1) (bit-identical) without the generic
        # axis-reduce machinery — this pass is on the build hot path.
        v = self.vertices if rows is None else self.vertices[rows]
        mins, maxs = _empty_box_columns(v.shape[0])
        for out, reduce in ((mins.T, np.minimum), (maxs.T, np.maximum)):
            reduce(v[:, 0], v[:, 1], out=out)
            reduce(out, v[:, 2], out=out)
        return mins.T, maxs.T

    def _pair_triangles(self, prim_indices) -> tuple[np.ndarray, ...]:
        return tuple(arr[prim_indices] for arr in self.intersection_pack())


class AnchoredTriangleBuffer(_MollerTrumboreBuffer):
    """Key triangles stored as their anchor points.

    Triangle ``i`` is exactly the one :func:`make_triangle_vertices` builds
    around ``points[i]`` with the same extents, but only the anchors are
    kept — a read-only ``(3, n)`` array holding one contiguous column per
    axis, 12 B/key for the codecs' float32 anchors — plus, in Extended
    Mode, the per-key x half-extent (4 B/key: one float32 ULP).  A corner
    is the float64 sum of an anchor and a corner offset, rounded once to
    float32, so the bounds and each tested pair's ``v0``/``e1``/``e2`` are
    recomputed bit-identically to :class:`TriangleBuffer` over
    ``make_triangle_vertices(...)`` — without its ``(n, 3, 3)`` vertex
    array or its nine-array float64 pack.

    Float32 inputs are kept as float32; any other dtype is widened to
    float64, the precision :func:`make_triangle_vertices` computes in.
    ``points`` that are the transposed view of contiguous ``(3, n)``
    columns, as the key codecs' ``encode_points`` returns them, are adopted
    without a copy; any other layout is copied into columns.
    """

    _stored = ("anchors", "x_half_extent")
    _shared = ("half_extent",)

    def __init__(
        self,
        points: np.ndarray,
        half_extent: float = 0.5,
        x_half_extent: np.ndarray | None = None,
    ):
        points = _exact_floats(points).reshape(-1, 3)
        n = points.shape[0]
        self.anchors = _read_only(np.ascontiguousarray(points.T))
        self.half_extent = float(half_extent)
        if x_half_extent is not None:
            hx = np.broadcast_to(_exact_floats(x_half_extent), (n,))
            x_half_extent = _read_only(np.ascontiguousarray(hx))
        self.x_half_extent = x_half_extent

    def __len__(self) -> int:
        return int(self.anchors.shape[1])

    def _row_columns(self) -> list[np.ndarray]:
        # The anchors are already one column per axis.
        hx = self.x_half_extent
        return [*self.anchors, *([] if hx is None else [hx])]

    def _extent(self, axis: int, rows):
        """Half-extent along ``axis`` of the triangles ``rows``: the shared
        scalar, or Extended Mode's per-key x extents."""
        if axis == 0 and self.x_half_extent is not None:
            return self.x_half_extent[rows]
        return self.half_extent

    def compute_aabbs(self, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        # Rounding is monotone, so the smallest (largest) rounded corner is
        # the rounded sum with the smallest (largest) offset: one add per
        # axis and side gives the per-corner min/max bit for bit.
        rows = slice(None) if rows is None else rows
        anchors = self.anchors[:, rows]
        mins, maxs = _empty_box_columns(anchors.shape[1])
        for axis in range(3):
            extent = self._extent(axis, rows)
            for out, offset in (
                (mins, _TRIANGLE_OFFSET_MIN[axis]),
                (maxs, _TRIANGLE_OFFSET_MAX[axis]),
            ):
                np.add(anchors[axis], offset * extent, out=out[axis], dtype=np.float64)
        return mins.T, maxs.T

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        # compute_aabbs' corner adds are monotone in the anchor, so with one
        # shared extent an axis's bounds are its extreme anchors' corners;
        # only Extended Mode's per-key x extents need every box.
        if self.x_half_extent is not None:
            return super().bounds()
        mins, maxs = np.empty((2, 3), dtype=np.float32)
        for axis, anchors in enumerate(self.anchors):
            for out, anchor, offset in (
                (mins, anchors.min(), _TRIANGLE_OFFSET_MIN[axis]),
                (maxs, anchors.max(), _TRIANGLE_OFFSET_MAX[axis]),
            ):
                out[axis] = np.add(anchor, offset * self.half_extent, dtype=np.float64)
        return mins, maxs

    def _pair_triangles(self, prim_indices) -> tuple[np.ndarray, ...]:
        corners = np.empty((3, prim_indices.shape[0]), dtype=np.float32)
        v0, e1, e2 = [], [], []
        for axis in range(3):
            anchor = self.anchors[axis][prim_indices].astype(np.float64)
            extent = self._extent(axis, prim_indices)
            for corner in range(3):
                offset = _TRIANGLE_UNIT_OFFSETS[corner, axis] * extent
                np.add(anchor, offset, out=corners[corner], dtype=np.float64)
            base = corners[0].astype(np.float64)
            v0.append(base)
            e1.append(corners[1] - base)
            e2.append(corners[2] - base)
        return (*v0, *e1, *e2)


def _empty_box_columns(m: int) -> np.ndarray:
    """Uninitialised float32 ``(mins, maxs)`` box columns, each ``(3, m)``."""
    return np.empty((2, 3, m), dtype=np.float32)


def _exact_floats(values) -> np.ndarray:
    """``values`` as float32 when they already are, else as float64."""
    arr = np.asarray(values)
    return arr if arr.dtype == np.float32 else arr.astype(np.float64)


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr`` (the caller's array stays writeable)."""
    view = arr.view()
    view.flags.writeable = False
    return view


class SphereBuffer(PrimitiveBuffer):
    """Spheres stored as ``(n, 3)`` float32 centres plus a shared radius.

    The paper uses a uniform radius of 0.25 so that rays can always start and
    end in the gaps between adjacent spheres.
    """

    kind = "sphere"
    hardware_intersection = False
    _stored = ("centers",)
    _shared = ("radius",)

    def __init__(self, centers: np.ndarray, radius: float = 0.25):
        centers = np.asarray(centers, dtype=np.float32)
        if centers.ndim != 2 or centers.shape[1] != 3:
            raise ValueError("sphere centers must have shape (n, 3)")
        if not (np.isfinite(radius) and radius > 0):
            raise ValueError(f"sphere radius must be finite and positive, got {radius}")
        self.centers = centers
        self.radius = np.float32(radius)
        self._pack: tuple[np.ndarray, ...] | None = None

    def intersection_pack(self) -> tuple[np.ndarray, ...]:
        """SoA intersection data: ``(cx, cy, cz)`` contiguous float64 arrays.

        Convert-then-gather commutes with the per-call gather-then-convert,
        so intersection results are bit-identical.  Invalidated by
        :meth:`compute_aabbs` exactly like the triangle pack.
        """
        if self._pack is None:
            c64 = self.centers.astype(np.float64)
            self._pack = tuple(
                np.ascontiguousarray(c64[:, axis]) for axis in range(3)
            )
        return self._pack

    def __len__(self) -> int:
        return int(self.centers.shape[0])

    def primitive_bytes(self) -> int:
        # three float32 per sphere; the shared radius is a single extra float
        return len(self) * 3 * FLOAT_BYTES + FLOAT_BYTES

    def compute_aabbs(self, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        self._pack = None
        r = np.float32(self.radius)
        centers = self.centers if rows is None else self.centers[rows]
        mins, maxs = _empty_box_columns(centers.shape[0])
        np.subtract(centers, r, out=mins.T)
        np.add(centers, r, out=maxs.T)
        return mins.T, maxs.T

    def _mask_and_t(self, origins, directions, tmins, tmaxs, prim_indices):
        """Analytic ray/sphere test; a hit is an entry or exit of the volume,
        and its ``t`` the near root when that lies in ``(tmin, tmax)``,
        otherwise the far root (the ray starts inside the sphere).

        Mirrors ``_frontier_box_overlap``'s all-parallel-axis specialisation:
        an axis along which *every* ray of the block has a zero direction
        component contributes exactly ``±0.0`` to the quadratic's ``a`` and
        ``b`` terms, so those products are skipped entirely (the paper's
        workloads trace axis-aligned rays, leaving only one active axis).
        Adding or omitting a signed zero never changes a comparison result,
        so the returned mask is bit-identical to the full evaluation kept as
        ``reference_sphere_intersect_pairs`` in :mod:`repro.rtx._reference`;
        it can change only the sign of a zero ``t``, which every comparison
        treats as equal.
        """
        pack = self.intersection_pack()
        o = np.asarray(origins, dtype=np.float64)
        d = np.asarray(directions, dtype=np.float64)
        tmins = np.asarray(tmins, dtype=np.float64)
        tmaxs = np.asarray(tmaxs, dtype=np.float64)
        g = prim_indices
        r = float(self.radius)
        a = None
        b = None
        cterm = None
        for axis in range(3):
            oc = o[:, axis] - pack[axis][g]
            c_axis = oc * oc
            cterm = c_axis if cterm is None else cterm + c_axis
            da = d[:, axis]
            if not da.any():  # whole block parallel to this axis
                continue
            a_axis = da * da
            b_axis = oc * da
            a = a_axis if a is None else a + a_axis
            b = b_axis if b is None else b + b_axis
        m = g.shape[0]
        if a is None:
            a = np.zeros(m)
            b = np.zeros(m)
        cterm = cterm - r * r
        b = 2.0 * b
        disc = b * b - 4.0 * a * cterm
        valid = (disc >= 0.0) & (a > 0.0)
        sqrt_disc = np.sqrt(np.where(valid, disc, 0.0))
        safe_a = np.where(a > 0.0, a, 1.0)
        t0 = (-b - sqrt_disc) / (2.0 * safe_a)
        t1 = (-b + sqrt_disc) / (2.0 * safe_a)
        hit0 = valid & (t0 > tmins) & (t0 < tmaxs)
        hit1 = valid & (t1 > tmins) & (t1 < tmaxs)
        return hit0 | hit1, np.where(hit0, t0, t1)


class AabbBuffer(PrimitiveBuffer):
    """Axis-aligned bounding boxes with a software intersection program.

    Each AABB encloses the key's notional primitive; as in the paper, the
    user-supplied intersection program simply reports the hit (the any-hit
    logic is folded into it), so the functional behaviour is a plain slab
    test.
    """

    kind = "aabb"
    hardware_intersection = False
    _stored = ("mins", "maxs")

    def __init__(self, mins: np.ndarray, maxs: np.ndarray):
        mins = np.asarray(mins, dtype=np.float32)
        maxs = np.asarray(maxs, dtype=np.float32)
        if mins.shape != maxs.shape or mins.ndim != 2 or mins.shape[1] != 3:
            raise ValueError("AABB mins/maxs must both have shape (n, 3)")
        if np.any(maxs < mins):
            raise ValueError("AABB max corner must not be below min corner")
        self.mins = mins
        self.maxs = maxs
        self._pack: tuple[np.ndarray, ...] | None = None

    def intersection_pack(self) -> tuple[np.ndarray, ...]:
        """SoA intersection data: six contiguous ``(n,)`` float64 arrays.

        ``(min_x, min_y, min_z, max_x, max_y, max_z)`` — the transposed box
        corners, converted to float64 once.  Invalidated by
        :meth:`compute_aabbs` exactly like the triangle pack.
        """
        if self._pack is None:
            mins64 = self.mins.astype(np.float64)
            maxs64 = self.maxs.astype(np.float64)
            self._pack = tuple(
                np.ascontiguousarray(arr[:, axis])
                for arr in (mins64, maxs64)
                for axis in range(3)
            )
        return self._pack

    def __len__(self) -> int:
        return int(self.mins.shape[0])

    def primitive_bytes(self) -> int:
        # two corners of three float32 each
        return len(self) * 6 * FLOAT_BYTES

    def compute_aabbs(self, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        self._pack = None
        rows = slice(None) if rows is None else rows
        return tuple(np.ascontiguousarray(arr[rows].T).T for arr in (self.mins, self.maxs))

    def _mask_and_t(self, origins, directions, tmins, tmaxs, prim_indices):
        """Slab test on the SoA pack: per-axis box corners are gathered with
        contiguous 1D takes and fed through the same :func:`_slab_test_axis`
        core as :func:`ray_box_overlap_pairs`, so masks are bit-identical.
        A hit's ``t`` is the slab entry: ``lo`` after the three axes, which
        is ``tmin`` when the ray starts inside the box."""
        pack = self.intersection_pack()
        o = np.asarray(origins, dtype=np.float64)
        d = np.asarray(directions, dtype=np.float64)
        lo = np.asarray(tmins, dtype=np.float64).copy()
        hi = np.asarray(tmaxs, dtype=np.float64).copy()
        g = prim_indices
        ok = np.ones(g.shape[0], dtype=bool)
        for axis in range(3):
            lo, hi, ok = _slab_test_axis(
                d[:, axis], o[:, axis], pack[axis][g], pack[axis + 3][g], lo, hi, ok
            )
        return ok & (lo <= hi), lo


def _slab_test_axis(da, oa, bmin, bmax, lo, hi, ok):
    """One axis of the element-wise slab test; returns updated (lo, hi, ok).

    The single home of the per-axis slab expressions (parallel epsilon,
    inf-blend, inside-slab rule): :func:`ray_box_overlap_pairs` and
    :meth:`AabbBuffer._mask_and_t` both call it, and
    ``_frontier_box_overlap`` in :mod:`repro.rtx.traversal` specialises the
    same expressions per frontier — masks must stay bit-identical across all
    three.  Rays parallel to the slab hit only when the origin lies inside
    it.
    """
    parallel = np.abs(da) < 1e-300
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(parallel, np.inf, 1.0 / np.where(parallel, 1.0, da))
        t0 = (bmin - oa) * inv
        t1 = (bmax - oa) * inv
    near = np.minimum(t0, t1)
    far = np.maximum(t0, t1)
    lo = np.where(parallel, lo, np.maximum(lo, near))
    hi = np.where(parallel, hi, np.minimum(hi, far))
    ok &= np.where(parallel, (oa >= bmin) & (oa <= bmax), True)
    return lo, hi, ok


def ray_box_overlap_pairs_with_entry(
    origins, directions, tmins, tmaxs, box_mins, box_maxs
) -> tuple[np.ndarray, np.ndarray]:
    """Element-wise slab test returning ``(overlap_mask, entry_t)``.

    ``entry_t`` is the per-pair ``lo`` after all three axes: the parameter at
    which the ray enters the box (``tmin`` when the origin is already
    inside).  Only meaningful where the mask is True.  The ordered top-k
    trace uses it to cull nodes whose earliest possible hit already sorts
    after a lookup's current k-th best candidate.
    """
    o = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
    d = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
    mins = np.asarray(box_mins, dtype=np.float64).reshape(-1, 3)
    maxs = np.asarray(box_maxs, dtype=np.float64).reshape(-1, 3)
    lo = np.asarray(tmins, dtype=np.float64).copy()
    hi = np.asarray(tmaxs, dtype=np.float64).copy()
    ok = np.ones(o.shape[0], dtype=bool)
    for axis in range(3):
        lo, hi, ok = _slab_test_axis(
            d[:, axis], o[:, axis], mins[:, axis], maxs[:, axis], lo, hi, ok
        )
    return ok & (lo <= hi), lo


def ray_box_overlap_pairs(
    origins, directions, tmins, tmaxs, box_mins, box_maxs
) -> np.ndarray:
    """Element-wise slab test: does ray ``i`` overlap box ``i``?

    All arguments are arrays over the same pair index; returns a boolean mask.
    The test is performed in float64 for numerical robustness (see
    :func:`_slab_test_axis` for the per-axis rules).
    """
    return ray_box_overlap_pairs_with_entry(
        origins, directions, tmins, tmaxs, box_mins, box_maxs
    )[0]


#: Unit corner offsets for key triangles, expressed as fractions of the
#: half-extent.  They sum to zero per component, so the anchor point is the
#: centroid of the triangle (and therefore strictly inside it), and the
#: triangle's plane is transversal to both the x-parallel range rays and the
#: z-perpendicular point rays used by the paper.  The paper's own corner
#: offsets place the anchor exactly on a triangle edge, which only works with
#: OptiX's watertight hardware test; the centroid layout preserves the same
#: gaps and hit semantics while being robust for a software intersector.
_TRIANGLE_UNIT_OFFSETS = np.array(
    [
        [-0.9, -0.5, -0.6],
        [0.9, -0.4, 0.2],
        [0.0, 0.9, 0.4],
    ],
    dtype=np.float64,
)
_TRIANGLE_OFFSET_MIN = _TRIANGLE_UNIT_OFFSETS.min(axis=0)
_TRIANGLE_OFFSET_MAX = _TRIANGLE_UNIT_OFFSETS.max(axis=0)


def make_triangle_vertices(
    points: np.ndarray,
    half_extent: float = 0.5,
    x_half_extent: np.ndarray | None = None,
) -> np.ndarray:
    """Build one triangle per anchor point.

    For a key mapped to the point ``(x, y, z)`` a triangle is created whose
    centroid is exactly that point and whose corners stay within
    ``half_extent`` of it, so adjacent keys (spaced one unit apart) keep a gap
    for rays to start and end in.

    ``x_half_extent`` optionally overrides the extent along the x axis per
    primitive.  Extended Mode needs this: there, adjacent keys are only two
    representable floats apart, so the x extent must shrink to one ULP while
    the y/z extents keep their usual size.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = pts.shape[0]
    he = float(half_extent)
    if x_half_extent is None:
        hx = np.full(n, he, dtype=np.float64)
    else:
        hx = np.broadcast_to(np.asarray(x_half_extent, dtype=np.float64), (n,))
    vertices = np.empty((n, 3, 3), dtype=np.float64)
    for corner in range(3):
        ox, oy, oz = _TRIANGLE_UNIT_OFFSETS[corner]
        vertices[:, corner, 0] = pts[:, 0] + ox * hx
        vertices[:, corner, 1] = pts[:, 1] + oy * he
        vertices[:, corner, 2] = pts[:, 2] + oz * he
    return vertices.astype(np.float32)


def make_aabbs_from_points(
    points: np.ndarray,
    half_extent: float = 0.25,
    x_half_extent: np.ndarray | None = None,
):
    """Build one small AABB per anchor point (used for the AABB primitive)."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = pts.shape[0]
    he = float(half_extent)
    if x_half_extent is None:
        hx = np.full(n, he, dtype=np.float64)
    else:
        hx = np.broadcast_to(np.asarray(x_half_extent, dtype=np.float64), (n,))
    offsets = np.column_stack([hx, np.full(n, he), np.full(n, he)])
    mins = (pts - offsets).astype(np.float32)
    maxs = (pts + offsets).astype(np.float32)
    return mins, maxs


def make_sphere_centers(points: np.ndarray) -> np.ndarray:
    """Sphere centres are simply the anchor points (radius handled separately)."""
    return np.asarray(points, dtype=np.float32).reshape(-1, 3)
