"""Golden reference implementations of the pre-vectorisation engine.

The level-synchronous engine in :mod:`repro.rtx.bvh`,
:mod:`repro.rtx.traversal` and :mod:`repro.rtx.refit` replaced per-node
Python loops with batched NumPy passes.  The loops it replaced are kept here
verbatim (modulo trivial renames) as the *golden reference*: the equivalence
harness in ``tests/test_engine_equivalence.py`` asserts that the vectorised
engine reproduces these implementations bit for bit — identical tree
topology, ``prim_indices`` permutation, hit sets and traversal counters —
and ``benchmarks/perf_smoke.py`` measures the speedup against them.

The LBVH reference keeps its own byte-table Morton encoder over ``(n, 3)``
rows, an independent check of the engine's shift-and-mask codes.  Nothing in
the production paths imports this module; it exists purely so equivalence
and performance claims stay checkable as the engine evolves.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.rtx.bvh import Bvh, BvhBuildOptions
from repro.rtx.geometry import (
    PrimitiveBuffer,
    RayBatch,
    ray_box_overlap_pairs,
    ray_box_overlap_pairs_with_entry,
)
from repro.rtx.traversal import HitRecords, TraversalCounters


# --------------------------------------------------------------------------- #
# reference Morton codes (byte-table expansion over (n, 3) rows)
# --------------------------------------------------------------------------- #


def _byte_expansion_table() -> np.ndarray:
    """256-entry table mapping a byte to its 3-way bit expansion (24 bits)."""
    table = np.zeros(256, dtype=np.uint64)
    for bit in range(8):
        table |= ((np.arange(256, dtype=np.uint64) >> np.uint64(bit)) & np.uint64(1)) << np.uint64(3 * bit)
    return table


_EXPAND_BYTE = _byte_expansion_table()


def reference_expand_bits_3(values: np.ndarray, bits: int) -> np.ndarray:
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


def reference_quantize_to_grid_with_bounds(
    points: np.ndarray, bits: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantise ``(n, 3)`` points onto the Morton grid over their bounds,
    returning the grid and the bounds ``(lo, hi)``."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    extent = np.where(hi - lo > 0, hi - lo, 1.0)
    cells = (1 << bits) - 1
    normalized = (pts - lo) / extent
    grid = np.minimum((normalized * cells).astype(np.uint64), np.uint64(cells))
    return grid, lo, hi


def reference_morton_encode_3d(points: np.ndarray, bits: int = 21) -> np.ndarray:
    """Morton-encode ``(n, 3)`` float points using ``bits`` bits per axis."""
    if not 1 <= bits <= 21:
        raise ValueError("bits must be in [1, 21]")
    grid, _, _ = reference_quantize_to_grid_with_bounds(points, bits)
    x = reference_expand_bits_3(grid[:, 0], bits)
    y = reference_expand_bits_3(grid[:, 1], bits)
    z = reference_expand_bits_3(grid[:, 2], bits)
    return (x << np.uint64(2)) | (y << np.uint64(1)) | z


# --------------------------------------------------------------------------- #
# reference BVH build (per-node Python work stack)
# --------------------------------------------------------------------------- #


def reference_build_bvh(
    primitive_buffer: PrimitiveBuffer,
    options: BvhBuildOptions | None = None,
) -> Bvh:
    """The seed ``build_bvh``: one Python loop iteration per node."""
    options = options or BvhBuildOptions()
    options.validate()
    prim_mins, prim_maxs = primitive_buffer.compute_aabbs()
    prim_mins = prim_mins.astype(np.float64)
    prim_maxs = prim_maxs.astype(np.float64)
    n = prim_mins.shape[0]
    if n == 0:
        raise ValueError("cannot build a BVH over zero primitives")

    centroids = 0.5 * (prim_mins + prim_maxs)

    if options.builder == "lbvh":
        codes = reference_morton_encode_3d(centroids, options.morton_bits)
        order = np.argsort(codes, kind="stable")
        splitter = _ReferenceLbvhSplitter(centroids, order, options)
    elif options.builder == "sah":
        order = np.arange(n, dtype=np.int64)
        splitter = _ReferenceSahSplitter(centroids, prim_mins, prim_maxs, options)
    else:
        order = np.arange(n, dtype=np.int64)
        splitter = _ReferenceMedianSplitter(centroids, options)

    builder = _ReferenceTopDownBuilder(prim_mins, prim_maxs, options, splitter)
    bvh = builder.build(order)
    bvh.num_primitives = n
    return bvh


class _ReferenceTopDownBuilder:
    """Shared top-down build loop; the splitter decides how ranges split."""

    def __init__(self, prim_mins, prim_maxs, options, splitter):
        self.prim_mins = prim_mins
        self.prim_maxs = prim_maxs
        self.options = options
        self.splitter = splitter
        self.node_mins: list[np.ndarray] = []
        self.node_maxs: list[np.ndarray] = []
        self.left: list[int] = []
        self.first_prim: list[int] = []
        self.prim_count: list[int] = []

    def _new_node(self) -> int:
        self.node_mins.append(np.zeros(3))
        self.node_maxs.append(np.zeros(3))
        self.left.append(-1)
        self.first_prim.append(0)
        self.prim_count.append(0)
        return len(self.left) - 1

    def build(self, order: np.ndarray) -> Bvh:
        prim_indices = np.array(order, dtype=np.int64, copy=True)
        root = self._new_node()
        stack = [(root, 0, len(prim_indices))]
        while stack:
            node, start, end = stack.pop()
            idx = prim_indices[start:end]
            mins = self.prim_mins[idx]
            maxs = self.prim_maxs[idx]
            self.node_mins[node] = mins.min(axis=0)
            self.node_maxs[node] = maxs.max(axis=0)
            count = end - start
            if count <= self.options.max_leaf_size:
                self.first_prim[node] = start
                self.prim_count[node] = count
                continue
            split = self.splitter.split(prim_indices, start, end)
            if split is None or split <= start or split >= end:
                split = start + count // 2
            left = self._new_node()
            right = self._new_node()
            # The Bvh child rule: the second child is never stored.
            assert right == left + 1
            self.left[node] = left
            stack.append((left, start, split))
            stack.append((right, split, end))
        return Bvh(
            node_mins=np.asarray(self.node_mins, dtype=np.float32),
            node_maxs=np.asarray(self.node_maxs, dtype=np.float32),
            left=np.asarray(self.left, dtype=np.int64),
            first_prim=np.asarray(self.first_prim, dtype=np.int64),
            prim_count=np.asarray(self.prim_count, dtype=np.int64),
            prim_indices=prim_indices,
            num_primitives=len(prim_indices),
            options=self.options,
        )


class _ReferenceMedianSplitter:
    def __init__(self, centroids, options):
        self.centroids = centroids
        self.options = options

    def split(self, prim_indices, start, end):
        idx = prim_indices[start:end]
        cents = self.centroids[idx]
        extents = cents.max(axis=0) - cents.min(axis=0)
        axis = int(np.argmax(extents))
        if extents[axis] <= 0.0:
            return None
        order = np.argsort(cents[:, axis], kind="stable")
        prim_indices[start:end] = idx[order]
        return start + (end - start) // 2


class _ReferenceLbvhSplitter:
    def __init__(self, centroids, order, options):
        codes = reference_morton_encode_3d(centroids, options.morton_bits)
        self.sorted_codes = codes[order]
        self.options = options

    def split(self, prim_indices, start, end):
        codes = self.sorted_codes[start:end]
        first, last = int(codes[0]), int(codes[-1])
        if first == last:
            return None
        diff = first ^ last
        split_bit = diff.bit_length() - 1
        prefix = first >> split_bit
        boundary = np.searchsorted(codes >> split_bit, prefix, side="right")
        return start + int(boundary)


class _ReferenceSahSplitter:
    def __init__(self, centroids, prim_mins, prim_maxs, options):
        self.centroids = centroids
        self.prim_mins = prim_mins
        self.prim_maxs = prim_maxs
        self.bins = options.sah_bins

    @staticmethod
    def _area(mins, maxs):
        ext = np.maximum(maxs - mins, 0.0)
        return 2.0 * (ext[0] * ext[1] + ext[1] * ext[2] + ext[2] * ext[0])

    def split(self, prim_indices, start, end):
        idx = prim_indices[start:end]
        cents = self.centroids[idx]
        lo = cents.min(axis=0)
        hi = cents.max(axis=0)
        extents = hi - lo
        axis = int(np.argmax(extents))
        if extents[axis] <= 0.0:
            return None

        nbins = self.bins
        scale = nbins / extents[axis]
        bin_ids = np.minimum(((cents[:, axis] - lo[axis]) * scale).astype(np.int64),
                             nbins - 1)

        best_cost = np.inf
        best_bin = -1
        counts = np.bincount(bin_ids, minlength=nbins)
        bin_mins = np.full((nbins, 3), np.inf)
        bin_maxs = np.full((nbins, 3), -np.inf)
        mins = self.prim_mins[idx]
        maxs = self.prim_maxs[idx]
        for b in range(nbins):
            mask = bin_ids == b
            if mask.any():
                bin_mins[b] = mins[mask].min(axis=0)
                bin_maxs[b] = maxs[mask].max(axis=0)
        for b in range(1, nbins):
            left_count = counts[:b].sum()
            right_count = counts[b:].sum()
            if left_count == 0 or right_count == 0:
                continue
            lmins = bin_mins[:b][counts[:b] > 0]
            lmaxs = bin_maxs[:b][counts[:b] > 0]
            rmins = bin_mins[b:][counts[b:] > 0]
            rmaxs = bin_maxs[b:][counts[b:] > 0]
            la = self._area(lmins.min(axis=0), lmaxs.max(axis=0))
            ra = self._area(rmins.min(axis=0), rmaxs.max(axis=0))
            cost = la * left_count + ra * right_count
            if cost < best_cost:
                best_cost = cost
                best_bin = b
        if best_bin < 0:
            return None
        mask_left = bin_ids < best_bin
        order = np.argsort(~mask_left, kind="stable")
        prim_indices[start:end] = idx[order]
        return start + int(mask_left.sum())


# --------------------------------------------------------------------------- #
# reference primitive intersection (row gathers + per-call edge recompute)
# --------------------------------------------------------------------------- #


def _cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise 3D cross product of the pre-SoA intersection hot path."""
    out = np.empty_like(a)
    out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return out


def reference_triangle_intersect_pairs(
    vertices64: np.ndarray, origins, directions, tmins, tmaxs, prim_indices
) -> np.ndarray:
    """The seed ``TriangleBuffer.intersect_pairs``: an ``(m, 3, 3)`` row
    gather from the cached float64 vertex array plus per-call edge
    recomputation.  ``vertices64`` is the pre-converted ``(n, 3, 3)`` float64
    vertex array (the seed cached that conversion too, so building it is not
    part of the per-call cost)."""
    prim_indices = np.asarray(prim_indices, dtype=np.int64)
    if prim_indices.size == 0:
        return np.zeros(0, dtype=bool)
    tri = vertices64[prim_indices]
    o = np.asarray(origins, dtype=np.float64)
    d = np.asarray(directions, dtype=np.float64)
    tmins = np.asarray(tmins, dtype=np.float64)
    tmaxs = np.asarray(tmaxs, dtype=np.float64)
    v0 = tri[:, 0]
    e1 = tri[:, 1] - v0
    e2 = tri[:, 2] - v0
    pvec = _cross_rows(d, e2)
    det = np.einsum("ij,ij->i", e1, pvec)
    eps = 1e-12
    parallel = np.abs(det) < eps
    safe_det = np.where(parallel, 1.0, det)
    inv_det = 1.0 / safe_det
    tvec = o - v0
    u = np.einsum("ij,ij->i", tvec, pvec) * inv_det
    qvec = _cross_rows(tvec, e1)
    v = np.einsum("ij,ij->i", d, qvec) * inv_det
    t = np.einsum("ij,ij->i", e2, qvec) * inv_det
    return (
        ~parallel
        & (u >= -1e-9)
        & (v >= -1e-9)
        & (u + v <= 1.0 + 1e-9)
        & (t > tmins)
        & (t < tmaxs)
    )


def reference_sphere_intersect_pairs(
    centers: np.ndarray, radius, origins, directions, tmins, tmaxs, prim_indices
) -> np.ndarray:
    """The seed ``SphereBuffer.intersect_pairs``: per-call row gather of the
    float32 centres followed by a float64 conversion."""
    prim_indices = np.asarray(prim_indices, dtype=np.int64)
    if prim_indices.size == 0:
        return np.zeros(0, dtype=bool)
    c = centers[prim_indices].astype(np.float64)
    o = np.asarray(origins, dtype=np.float64)
    d = np.asarray(directions, dtype=np.float64)
    tmins = np.asarray(tmins, dtype=np.float64)
    tmaxs = np.asarray(tmaxs, dtype=np.float64)
    r = float(radius)
    oc = o - c
    a = np.einsum("ij,ij->i", d, d)
    b = 2.0 * np.einsum("ij,ij->i", oc, d)
    cterm = np.einsum("ij,ij->i", oc, oc) - r * r
    disc = b * b - 4.0 * a * cterm
    valid = (disc >= 0.0) & (a > 0.0)
    sqrt_disc = np.sqrt(np.where(valid, disc, 0.0))
    safe_a = np.where(a > 0.0, a, 1.0)
    t0 = (-b - sqrt_disc) / (2.0 * safe_a)
    t1 = (-b + sqrt_disc) / (2.0 * safe_a)
    hit0 = valid & (t0 > tmins) & (t0 < tmaxs)
    hit1 = valid & (t1 > tmins) & (t1 < tmaxs)
    return hit0 | hit1


def reference_aabb_intersect_pairs(
    box_mins: np.ndarray, box_maxs: np.ndarray, origins, directions, tmins, tmaxs, prim_indices
) -> np.ndarray:
    """The seed ``AabbBuffer.intersect_pairs``: per-call row gathers of both
    float32 corners followed by the generic slab test."""
    prim_indices = np.asarray(prim_indices, dtype=np.int64)
    if prim_indices.size == 0:
        return np.zeros(0, dtype=bool)
    mins = box_mins[prim_indices].astype(np.float64)
    maxs = box_maxs[prim_indices].astype(np.float64)
    return ray_box_overlap_pairs(origins, directions, tmins, tmaxs, mins, maxs)


# --------------------------------------------------------------------------- #
# reference traversal (per-round re-gather + re-divide)
# --------------------------------------------------------------------------- #


def reference_trace(
    bvh: Bvh,
    primitives: PrimitiveBuffer,
    rays: RayBatch,
    any_hit=None,
    prim_test_bytes: int | None = None,
) -> tuple[HitRecords, TraversalCounters]:
    """The seed ``TraversalEngine.trace`` loop, returning (hits, counters)."""
    counters = TraversalCounters()
    counters.rays = len(rays)
    node_bytes = bvh.node_bytes()
    per_prim_bytes = (
        prim_test_bytes
        if prim_test_bytes is not None
        else max(primitives.primitive_bytes() // max(len(primitives), 1), 1)
    )

    n_rays = len(rays)
    hit_rays: list[np.ndarray] = []
    hit_prims: list[np.ndarray] = []

    if n_rays > 0 and bvh.node_count > 0:
        node_tmin = np.minimum(rays.tmin, np.float32(0.0))
        frontier_rays = np.arange(n_rays, dtype=np.int64)
        frontier_nodes = np.zeros(n_rays, dtype=np.int64)
        while frontier_rays.size:
            counters.traversal_rounds += 1
            counters.max_frontier_size = max(
                counters.max_frontier_size, int(frontier_rays.size)
            )
            counters.node_visits += int(frontier_rays.size)
            counters.box_tests += int(frontier_rays.size)
            counters.node_bytes_read += int(frontier_rays.size) * node_bytes

            overlap = ray_box_overlap_pairs(
                rays.origins[frontier_rays],
                rays.directions[frontier_rays],
                node_tmin[frontier_rays],
                rays.tmax[frontier_rays],
                bvh.node_mins[frontier_nodes],
                bvh.node_maxs[frontier_nodes],
            )
            frontier_rays = frontier_rays[overlap]
            frontier_nodes = frontier_nodes[overlap]
            if frontier_rays.size == 0:
                break

            is_leaf = bvh.left[frontier_nodes] < 0
            leaf_rays = frontier_rays[is_leaf]
            leaf_nodes = frontier_nodes[is_leaf]
            counters.leaf_visits += int(leaf_rays.size)
            if leaf_rays.size:
                counts = bvh.prim_count[leaf_nodes]
                firsts = bvh.first_prim[leaf_nodes]
                total = int(counts.sum())
                if total:
                    pair_rays = np.repeat(leaf_rays, counts)
                    offsets = np.repeat(np.cumsum(counts) - counts, counts)
                    within = np.arange(total, dtype=np.int64) - offsets
                    slot = np.repeat(firsts, counts) + within
                    pair_prims = bvh.prim_indices[slot]
                    counters.prim_tests += int(pair_prims.size)
                    counters.prim_bytes_read += int(pair_prims.size) * per_prim_bytes
                    if primitives.hardware_intersection:
                        counters.hardware_intersection_tests += int(pair_prims.size)
                    else:
                        counters.software_intersection_calls += int(pair_prims.size)
                    mask = primitives.intersect_pairs(
                        rays.origins[pair_rays],
                        rays.directions[pair_rays],
                        rays.tmin[pair_rays],
                        rays.tmax[pair_rays],
                        pair_prims,
                    )
                    hit_rays.append(pair_rays[mask])
                    hit_prims.append(pair_prims[mask])

            inner_rays = frontier_rays[~is_leaf]
            inner_nodes = frontier_nodes[~is_leaf]
            if inner_rays.size:
                frontier_rays = np.concatenate([inner_rays, inner_rays])
                lefts = bvh.left[inner_nodes]
                frontier_nodes = np.concatenate([lefts, lefts + 1])
            else:
                frontier_rays = np.zeros(0, dtype=np.int64)
                frontier_nodes = np.zeros(0, dtype=np.int64)

    if hit_rays:
        ray_indices = np.concatenate(hit_rays)
        prim_indices = np.concatenate(hit_prims)
    else:
        ray_indices = np.zeros(0, dtype=np.int64)
        prim_indices = np.zeros(0, dtype=np.int64)

    lookup_ids = rays.lookup_ids[ray_indices] if ray_indices.size else ray_indices
    if any_hit is not None and ray_indices.size:
        keep = np.asarray(any_hit(ray_indices, prim_indices, lookup_ids), dtype=bool)
        ray_indices = ray_indices[keep]
        prim_indices = prim_indices[keep]
        lookup_ids = lookup_ids[keep]

    counters.prim_hits = int(ray_indices.size)
    rays_hit = np.unique(ray_indices).size
    counters.rays_with_hits = int(rays_hit)
    counters.rays_without_hits = int(n_rays - rays_hit)

    hits = HitRecords(
        ray_indices=ray_indices,
        prim_indices=prim_indices,
        lookup_ids=lookup_ids,
        num_rays=n_rays,
    )
    return hits, counters


# --------------------------------------------------------------------------- #
# reference early-exit traversal (sequential per-hit budget scan)
# --------------------------------------------------------------------------- #


def _reference_budgeted_trace(
    bvh: Bvh,
    primitives: PrimitiveBuffer,
    rays: RayBatch,
    owner_of_ray: np.ndarray,
    budget: dict[int, int],
    any_hit=None,
    prim_test_bytes: int | None = None,
) -> tuple[HitRecords, TraversalCounters]:
    """Golden loop of the early-exit (``first_k``) trace mode.

    Mirrors :func:`reference_trace` round for round, but consumes the round's
    surviving hits one at a time in pair-stream order — every hit decrements
    its owner's entry in the plain Python ``budget`` dict, hits of exhausted
    owners are dropped, and rays whose owner is exhausted are excluded from
    the next round's frontier.  This is deliberately the *sequential*
    formulation of the budget cut; the engine's chunked rank-based
    vectorisation must reproduce it bit for bit (hits and counters) for any
    ``FRONTIER_BLOCK`` size.
    """
    counters = TraversalCounters()
    counters.rays = len(rays)
    node_bytes = bvh.node_bytes()
    per_prim_bytes = (
        prim_test_bytes
        if prim_test_bytes is not None
        else max(primitives.primitive_bytes() // max(len(primitives), 1), 1)
    )

    n_rays = len(rays)
    hit_rays: list[int] = []
    hit_prims: list[int] = []

    if n_rays > 0 and bvh.node_count > 0:
        node_tmin = np.minimum(rays.tmin, np.float32(0.0))
        frontier_rays = np.arange(n_rays, dtype=np.int64)
        frontier_nodes = np.zeros(n_rays, dtype=np.int64)
        while frontier_rays.size:
            counters.traversal_rounds += 1
            counters.max_frontier_size = max(
                counters.max_frontier_size, int(frontier_rays.size)
            )
            counters.node_visits += int(frontier_rays.size)
            counters.box_tests += int(frontier_rays.size)
            counters.node_bytes_read += int(frontier_rays.size) * node_bytes

            overlap = ray_box_overlap_pairs(
                rays.origins[frontier_rays],
                rays.directions[frontier_rays],
                node_tmin[frontier_rays],
                rays.tmax[frontier_rays],
                bvh.node_mins[frontier_nodes],
                bvh.node_maxs[frontier_nodes],
            )
            frontier_rays = frontier_rays[overlap]
            frontier_nodes = frontier_nodes[overlap]
            if frontier_rays.size == 0:
                break

            is_leaf = bvh.left[frontier_nodes] < 0
            leaf_rays = frontier_rays[is_leaf]
            leaf_nodes = frontier_nodes[is_leaf]
            counters.leaf_visits += int(leaf_rays.size)
            if leaf_rays.size:
                counts = bvh.prim_count[leaf_nodes]
                firsts = bvh.first_prim[leaf_nodes]
                total = int(counts.sum())
                if total:
                    pair_rays = np.repeat(leaf_rays, counts)
                    offsets = np.repeat(np.cumsum(counts) - counts, counts)
                    within = np.arange(total, dtype=np.int64) - offsets
                    slot = np.repeat(firsts, counts) + within
                    pair_prims = bvh.prim_indices[slot]
                    counters.prim_tests += int(pair_prims.size)
                    counters.prim_bytes_read += int(pair_prims.size) * per_prim_bytes
                    if primitives.hardware_intersection:
                        counters.hardware_intersection_tests += int(pair_prims.size)
                    else:
                        counters.software_intersection_calls += int(pair_prims.size)
                    mask = primitives.intersect_pairs(
                        rays.origins[pair_rays],
                        rays.directions[pair_rays],
                        rays.tmin[pair_rays],
                        rays.tmax[pair_rays],
                        pair_prims,
                    )
                    cand_rays = pair_rays[mask]
                    cand_prims = pair_prims[mask]
                    if any_hit is not None and cand_rays.size:
                        # The filter is elementwise, so applying it to the
                        # whole round's candidates before the sequential
                        # budget scan matches the engine's eager per-chunk
                        # application.
                        keep = np.asarray(
                            any_hit(
                                cand_rays, cand_prims, rays.lookup_ids[cand_rays]
                            ),
                            dtype=bool,
                        )
                        cand_rays = cand_rays[keep]
                        cand_prims = cand_prims[keep]
                    for ray, prim in zip(cand_rays.tolist(), cand_prims.tolist()):
                        owner = int(owner_of_ray[ray])
                        if budget[owner] > 0:
                            budget[owner] -= 1
                            hit_rays.append(ray)
                            hit_prims.append(prim)
                        else:
                            counters.budget_dropped_hits += 1

            inner_rays = frontier_rays[~is_leaf]
            inner_nodes = frontier_nodes[~is_leaf]
            if inner_rays.size:
                alive = np.array(
                    [budget[int(owner_of_ray[ray])] > 0 for ray in inner_rays.tolist()],
                    dtype=bool,
                )
                inner_rays = inner_rays[alive]
                inner_nodes = inner_nodes[alive]
            if inner_rays.size:
                frontier_rays = np.concatenate([inner_rays, inner_rays])
                lefts = bvh.left[inner_nodes]
                frontier_nodes = np.concatenate([lefts, lefts + 1])
            else:
                frontier_rays = np.zeros(0, dtype=np.int64)
                frontier_nodes = np.zeros(0, dtype=np.int64)

    ray_indices = np.asarray(hit_rays, dtype=np.int64)
    prim_indices = np.asarray(hit_prims, dtype=np.int64)
    lookup_ids = rays.lookup_ids[ray_indices] if ray_indices.size else ray_indices

    counters.prim_hits = int(ray_indices.size)
    rays_hit = np.unique(ray_indices).size
    counters.rays_with_hits = int(rays_hit)
    counters.rays_without_hits = int(n_rays - rays_hit)

    hits = HitRecords(
        ray_indices=ray_indices,
        prim_indices=prim_indices,
        lookup_ids=lookup_ids,
        num_rays=n_rays,
    )
    return hits, counters


def reference_first_k_trace(
    bvh: Bvh,
    primitives: PrimitiveBuffer,
    rays: RayBatch,
    limit: int,
    any_hit=None,
    prim_test_bytes: int | None = None,
) -> tuple[HitRecords, TraversalCounters]:
    """Golden ``mode="first_k"`` trace: per-lookup budgets of ``limit`` hits,
    shared by every ray of the lookup and consumed in traversal-stream
    order."""
    limit = int(limit)
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    owner_of_ray = np.asarray(rays.lookup_ids, dtype=np.int64)
    budget = {int(lookup): limit for lookup in np.unique(owner_of_ray).tolist()}
    return _reference_budgeted_trace(
        bvh,
        primitives,
        rays,
        owner_of_ray,
        budget,
        any_hit=any_hit,
        prim_test_bytes=prim_test_bytes,
    )


def reference_ordered_k_trace(
    bvh: Bvh,
    primitives: PrimitiveBuffer,
    rays: RayBatch,
    limit: int,
    any_hit=None,
    prim_test_bytes: int | None = None,
) -> tuple[HitRecords, TraversalCounters]:
    """Golden ``mode="ordered_k"`` trace: per-lookup t-ordered top-k pools.

    Every lookup keeps the ``limit`` candidates that sort smallest under the
    lexicographic key ``(ray_index, hit_t, prim_index)`` — for codec-built
    range rays that order is exactly ascending ``(key, row_id)``, so the
    reported hits are the k smallest-key matches with stable row_id
    tie-breaking on duplicate keys.  Two pruning rules make the mode cheaper
    than an all-hits trace, both mirrored bit for bit by the engine:

    * *slab-time cull* — a surviving (ray, node) pair whose box-entry ``t``
      already sorts strictly after the lookup's current k-th best candidate
      (using the bound frozen at the start of the round) cannot contribute,
      and is dropped before the leaf/inner split;
    * *rank cull* — after the round's leaf merges, inner pairs whose ray
      index sorts after the (recomputed) bound's ray are dropped from the
      next frontier, exactly like first_k's exhausted-budget compaction.

    A candidate displaced from (or refused entry to) a full pool counts as a
    ``budget_dropped_hits`` drop; the per-round totals are set-based, so they
    are independent of the engine's chunk schedule.
    """
    limit = int(limit)
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    counters = TraversalCounters()
    counters.rays = len(rays)
    node_bytes = bvh.node_bytes()
    per_prim_bytes = (
        prim_test_bytes
        if prim_test_bytes is not None
        else max(primitives.primitive_bytes() // max(len(primitives), 1), 1)
    )

    n_rays = len(rays)
    owner_of_ray = np.asarray(rays.lookup_ids, dtype=np.int64)
    #: per-lookup sorted candidate pools of (ray, t, prim) tuples
    pools: dict[int, list[tuple[int, float, int]]] = {}
    #: per-lookup (ray, t) of the k-th best candidate, once the pool is full;
    #: refreshed after each round's leaf phase and frozen for the next
    #: round's slab-time cull.
    bounds: dict[int, tuple[int, float]] = {}

    if n_rays > 0 and bvh.node_count > 0:
        node_tmin = np.minimum(rays.tmin, np.float32(0.0))
        frontier_rays = np.arange(n_rays, dtype=np.int64)
        frontier_nodes = np.zeros(n_rays, dtype=np.int64)
        while frontier_rays.size:
            counters.traversal_rounds += 1
            counters.max_frontier_size = max(
                counters.max_frontier_size, int(frontier_rays.size)
            )
            counters.node_visits += int(frontier_rays.size)
            counters.box_tests += int(frontier_rays.size)
            counters.node_bytes_read += int(frontier_rays.size) * node_bytes

            overlap, entry = ray_box_overlap_pairs_with_entry(
                rays.origins[frontier_rays],
                rays.directions[frontier_rays],
                node_tmin[frontier_rays],
                rays.tmax[frontier_rays],
                bvh.node_mins[frontier_nodes],
                bvh.node_maxs[frontier_nodes],
            )
            frontier_rays = frontier_rays[overlap]
            frontier_nodes = frontier_nodes[overlap]
            entry = entry[overlap]
            if frontier_rays.size == 0:
                break

            # Slab-time cull with the bounds frozen at round start: a pair
            # cannot beat its lookup's k-th candidate when its ray sorts
            # after the bound's ray, or its box entry t sorts strictly after
            # the bound's t on the bound's own ray (every hit inside the box
            # has t >= entry).  Equality keeps the pair: a t-equal hit with a
            # smaller prim index could still enter the pool.
            alive = np.ones(frontier_rays.size, dtype=bool)
            for i, (ray, lo_val) in enumerate(
                zip(frontier_rays.tolist(), entry.tolist())
            ):
                bound = bounds.get(int(owner_of_ray[ray]))
                if bound is not None and (
                    ray > bound[0] or (ray == bound[0] and lo_val > bound[1])
                ):
                    alive[i] = False
            frontier_rays = frontier_rays[alive]
            frontier_nodes = frontier_nodes[alive]
            if frontier_rays.size == 0:
                break

            is_leaf = bvh.left[frontier_nodes] < 0
            leaf_rays = frontier_rays[is_leaf]
            leaf_nodes = frontier_nodes[is_leaf]
            counters.leaf_visits += int(leaf_rays.size)
            if leaf_rays.size:
                counts = bvh.prim_count[leaf_nodes]
                firsts = bvh.first_prim[leaf_nodes]
                total = int(counts.sum())
                if total:
                    pair_rays = np.repeat(leaf_rays, counts)
                    offsets = np.repeat(np.cumsum(counts) - counts, counts)
                    within = np.arange(total, dtype=np.int64) - offsets
                    slot = np.repeat(firsts, counts) + within
                    pair_prims = bvh.prim_indices[slot]
                    counters.prim_tests += int(pair_prims.size)
                    counters.prim_bytes_read += int(pair_prims.size) * per_prim_bytes
                    if primitives.hardware_intersection:
                        counters.hardware_intersection_tests += int(pair_prims.size)
                    else:
                        counters.software_intersection_calls += int(pair_prims.size)
                    mask = primitives.intersect_pairs(
                        rays.origins[pair_rays],
                        rays.directions[pair_rays],
                        rays.tmin[pair_rays],
                        rays.tmax[pair_rays],
                        pair_prims,
                    )
                    cand_rays = pair_rays[mask]
                    cand_prims = pair_prims[mask]
                    if any_hit is not None and cand_rays.size:
                        keep = np.asarray(
                            any_hit(
                                cand_rays, cand_prims, rays.lookup_ids[cand_rays]
                            ),
                            dtype=bool,
                        )
                        cand_rays = cand_rays[keep]
                        cand_prims = cand_prims[keep]
                    if cand_rays.size:
                        cand_t = primitives.hit_t_pairs(
                            rays.origins[cand_rays],
                            rays.directions[cand_rays],
                            rays.tmin[cand_rays],
                            rays.tmax[cand_rays],
                            cand_prims,
                        )
                        for ray, prim, t in zip(
                            cand_rays.tolist(), cand_prims.tolist(), cand_t.tolist()
                        ):
                            pool = pools.setdefault(int(owner_of_ray[ray]), [])
                            bisect.insort(pool, (ray, t, prim))
                            if len(pool) > limit:
                                pool.pop()
                                counters.budget_dropped_hits += 1

            # Refresh the bounds from the pools: they drive this round's rank
            # cull of the inner pairs and freeze as next round's slab bounds.
            bounds = {
                lookup: (pool[limit - 1][0], pool[limit - 1][1])
                for lookup, pool in pools.items()
                if len(pool) == limit
            }

            inner_rays = frontier_rays[~is_leaf]
            inner_nodes = frontier_nodes[~is_leaf]
            if inner_rays.size:
                alive = np.array(
                    [
                        bounds.get(int(owner_of_ray[ray]), (np.iinfo(np.int64).max,))[0]
                        >= ray
                        for ray in inner_rays.tolist()
                    ],
                    dtype=bool,
                )
                inner_rays = inner_rays[alive]
                inner_nodes = inner_nodes[alive]
            if inner_rays.size:
                frontier_rays = np.concatenate([inner_rays, inner_rays])
                lefts = bvh.left[inner_nodes]
                frontier_nodes = np.concatenate([lefts, lefts + 1])
            else:
                frontier_rays = np.zeros(0, dtype=np.int64)
                frontier_nodes = np.zeros(0, dtype=np.int64)

    hit_rays: list[int] = []
    hit_prims: list[int] = []
    for lookup in sorted(pools):
        for ray, _t, prim in pools[lookup]:
            hit_rays.append(ray)
            hit_prims.append(prim)
    ray_indices = np.asarray(hit_rays, dtype=np.int64)
    prim_indices = np.asarray(hit_prims, dtype=np.int64)
    lookup_ids = rays.lookup_ids[ray_indices] if ray_indices.size else ray_indices

    counters.prim_hits = int(ray_indices.size)
    rays_hit = np.unique(ray_indices).size
    counters.rays_with_hits = int(rays_hit)
    counters.rays_without_hits = int(n_rays - rays_hit)

    hits = HitRecords(
        ray_indices=ray_indices,
        prim_indices=prim_indices,
        lookup_ids=lookup_ids,
        num_rays=n_rays,
    )
    return hits, counters


# --------------------------------------------------------------------------- #
# reference refit (per-node reverse sweep)
# --------------------------------------------------------------------------- #


def reference_refit_bounds(
    bvh: Bvh, primitives: PrimitiveBuffer
) -> tuple[np.ndarray, np.ndarray]:
    """The seed refit sweep: returns the refitted float64 (mins, maxs).

    Unlike :func:`repro.rtx.refit.refit_accel` this does not mutate ``bvh``
    and skips the flag/shape validation — it exists to check the vectorised
    bottom-up pass bit for bit.
    """
    prim_mins, prim_maxs = primitives.compute_aabbs()
    prim_mins = prim_mins.astype(np.float64)
    prim_maxs = prim_maxs.astype(np.float64)

    node_mins = bvh.node_mins.astype(np.float64)
    node_maxs = bvh.node_maxs.astype(np.float64)

    for node in range(bvh.node_count - 1, -1, -1):
        if bvh.left[node] < 0:
            first = int(bvh.first_prim[node])
            count = int(bvh.prim_count[node])
            idx = bvh.prim_indices[first : first + count]
            node_mins[node] = prim_mins[idx].min(axis=0)
            node_maxs[node] = prim_maxs[idx].max(axis=0)
        else:
            l = int(bvh.left[node])
            r = l + 1
            node_mins[node] = np.minimum(node_mins[l], node_mins[r])
            node_maxs[node] = np.maximum(node_maxs[l], node_maxs[r])
    return node_mins, node_maxs


# --------------------------------------------------------------------------- #
# reference hash-table insert loop
# --------------------------------------------------------------------------- #


def reference_hashtable_insert(
    keys: np.ndarray,
    group_of: np.ndarray,
    num_groups: int,
    group_size: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The seed one-key-at-a-time insert loop of ``WarpCoreHashTable.build``.

    Returns ``(slot_keys, slot_rows, total_probe_groups)``.
    """
    from repro.baselines.hashtable import _EMPTY

    capacity = num_groups * group_size
    slot_keys = np.full(capacity, _EMPTY, dtype=np.uint64)
    slot_rows = np.zeros(capacity, dtype=np.uint64)
    total_probe_groups = 0
    for row_id in range(keys.shape[0]):
        group = int(group_of[row_id])
        probes = 0
        while True:
            probes += 1
            start = group * group_size
            window = slot_keys[start : start + group_size]
            empty = np.flatnonzero(window == _EMPTY)
            if empty.size:
                slot = start + int(empty[0])
                slot_keys[slot] = keys[row_id]
                slot_rows[slot] = row_id
                break
            group = (group + 1) % num_groups
            if probes > num_groups:
                raise RuntimeError("hash table overflow during insert")
        total_probe_groups += probes
    return slot_keys, slot_rows, total_probe_groups
