"""Bounding volume hierarchy construction.

The BVH is the index structure at the heart of the paper: OptiX builds one
over the primitives that encode the keys, and the RT cores traverse it to
answer lookups.  NVIDIA does not document the internal builder, so this
module provides three openly-described builders that bracket the plausible
design space:

* ``"lbvh"`` (default) — a Karras-style linear BVH: primitive centroids are
  quantised onto a Morton grid spanning the scene bounds, sorted, and split
  top-down at the highest differing Morton bit.  This mirrors what GPU
  builders (including, by all public accounts, OptiX's fast build path) do,
  and it naturally reproduces the Extended-Mode pathology of Section 3.2: a
  hugely skewed coordinate range collapses many primitives into the same
  Morton cell, which yields heavily overlapping sibling nodes and a traversal
  blow-up.
* ``"sah"`` — a binned surface-area-heuristic top-down builder (higher
  quality, slower build).
* ``"median"`` — object-median split along the widest axis (cheapest).

The build itself is *level-synchronous*: instead of popping one node at a
time off a Python work stack, every tree level is processed as one batch of
NumPy passes — each splitter computes every split of the level in
vectorised form, and one bottom-up pass fits all node bounds.  This is how
GPU builders are actually organised, and it removes the interpreter from
the per-node hot path entirely.  Primitive data flows as ``(3, n)`` per-axis
columns (:func:`box_columns`): float64 centroids for the Morton grid, and
six float32 box columns for the fit, which is exact because rounding to
float32 is monotone.  The LBVH orders its codes with :func:`sort_codes`,
the default sort plus a fix-up of equal-code runs, which returns the stable
sort's order.  The emitted node numbering is renumbered to the depth-first
order the original stack-based builder produced, so trees are bit-identical
with the golden reference in :mod:`repro.rtx._reference` (checked by
``tests/test_engine_equivalence.py``).  That numbering is also what lets the
Morton-prefix sharded forest (:mod:`repro.rtx.forest`) cut this tree into
shards and splice them back without renumbering it.

The BVH is stored as a structure of arrays so traversal can read node bounds
without per-node Python objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.rtx.geometry import PrimitiveBuffer
from repro.rtx.morton import morton_encode_3d, require_finite

#: Modelled allocation size of one BVH node before/after compaction (bytes).
#: Compaction removes allocation slack but does not shrink what a traversal
#: step has to fetch, which is why compacted and uncompacted accels perform
#: almost identically (Figure 7a).
NODE_BYTES_UNCOMPACTED = 80
NODE_BYTES_COMPACTED = 40
#: Bytes fetched per node visit during traversal (independent of compaction).
NODE_FETCH_BYTES = 64


@dataclass
class BvhBuildOptions:
    """Tunable knobs of the software BVH builder.

    Attributes
    ----------
    builder:
        ``"lbvh"``, ``"sah"`` or ``"median"``.
    max_leaf_size:
        Maximum number of primitives per leaf.
    sah_bins:
        Number of bins per axis for the binned SAH builder.
    morton_bits:
        Bits per axis used to quantise centroids for the LBVH builder.
    allow_update:
        Mirrors ``OPTIX_BUILD_FLAG_ALLOW_UPDATE``; required for refitting and
        disables the effect of compaction.
    allow_compaction:
        Mirrors ``OPTIX_BUILD_FLAG_ALLOW_COMPACTION``.
    shard_bits:
        When positive, :func:`repro.rtx.pipeline.accel_build` keeps the
        tree as a forest (:mod:`repro.rtx.forest`): the same tree, cut into
        ``2**shard_bits`` shards by the top ``shard_bits`` bits of the
        primitives' Morton codes, which buys local delta updates and
        incremental saves.  :func:`build_bvh` ignores it.  Requires the
        ``"lbvh"`` builder (the prefix partition *is* the top of the LBVH
        split hierarchy; SAH/median splits do not decompose along Morton
        prefixes).
    """

    builder: str = "lbvh"
    max_leaf_size: int = 4
    sah_bins: int = 16
    morton_bits: int = 21
    allow_update: bool = False
    allow_compaction: bool = True
    shard_bits: int = 0

    def validate(self) -> None:
        if self.builder not in ("lbvh", "sah", "median"):
            raise ValueError(f"unknown BVH builder {self.builder!r}")
        if self.max_leaf_size < 1:
            raise ValueError("max_leaf_size must be >= 1")
        if not 1 <= self.morton_bits <= 21:
            raise ValueError("morton_bits must be in [1, 21]")
        if self.sah_bins < 2:
            raise ValueError("sah_bins must be >= 2")
        if not 0 <= self.shard_bits <= 16:
            raise ValueError("shard_bits must be in [0, 16]")
        if self.shard_bits and self.builder != "lbvh":
            raise ValueError(
                "sharded (forest) builds require the 'lbvh' builder: the "
                "Morton-prefix partition is only a prefix of lbvh's split "
                "hierarchy"
            )
        if self.shard_bits > 3 * self.morton_bits:
            raise ValueError("shard_bits cannot exceed the Morton code width")


@dataclass
class BvhStatistics:
    """Summary statistics of a built BVH (quality diagnostics)."""

    node_count: int
    leaf_count: int
    max_depth: int
    max_leaf_size: int
    mean_leaf_size: float
    sah_cost: float
    total_overlap_area: float


@dataclass
class Bvh:
    """A binary BVH stored as a structure of arrays.

    ``left[i] == -1`` marks node ``i`` as a leaf; its primitives are
    ``prim_indices[first_prim[i] : first_prim[i] + prim_count[i]]``.
    The root is node 0.
    """

    node_mins: np.ndarray
    node_maxs: np.ndarray
    left: np.ndarray
    right: np.ndarray
    first_prim: np.ndarray
    prim_count: np.ndarray
    prim_indices: np.ndarray
    num_primitives: int
    options: BvhBuildOptions
    compacted: bool = False
    #: filled by refits so lookup-quality degradation can be inspected
    refit_generation: int = 0
    #: lazily computed list of per-level node-id arrays (root level first);
    #: shared by ``depth()``, ``statistics()`` and the vectorised refit, and
    #: carried over by compaction since the topology is unchanged.
    _levels: list[np.ndarray] | None = field(default=None, repr=False, compare=False)

    @property
    def node_count(self) -> int:
        return int(self.left.shape[0])

    @property
    def leaf_count(self) -> int:
        return int(np.count_nonzero(self.left < 0))

    def is_leaf(self, node: int) -> bool:
        return self.left[node] < 0

    def node_bytes(self) -> int:
        """Bytes fetched per node visit (identical for compacted accels)."""
        return NODE_FETCH_BYTES

    def level_ranges(self) -> list[np.ndarray]:
        """Node ids grouped by depth (index 0 = root level), cached.

        The grouping only depends on the topology, which neither refits nor
        compaction change, so it is computed once per tree with one
        vectorised gather per level.
        """
        if self._levels is None:
            levels: list[np.ndarray] = []
            if self.node_count:
                frontier = np.zeros(1, dtype=np.int64)
                while frontier.size:
                    levels.append(frontier)
                    inner = frontier[self.left[frontier] >= 0]
                    if inner.size == 0:
                        break
                    frontier = np.concatenate([self.left[inner], self.right[inner]])
            self._levels = levels
        return self._levels

    def depth(self) -> int:
        """Maximum depth of the tree (root at depth 0)."""
        levels = self.level_ranges()
        return max(len(levels) - 1, 0)

    def surface_areas(self) -> np.ndarray:
        """Surface area of every node's bounding box."""
        extents = np.maximum(self.node_maxs - self.node_mins, 0.0)
        ex, ey, ez = extents[:, 0], extents[:, 1], extents[:, 2]
        return 2.0 * (ex * ey + ey * ez + ez * ex)

    def sah_cost(self, traversal_cost: float = 1.0, intersect_cost: float = 1.0) -> float:
        """Classic SAH cost of the tree relative to the root's surface area."""
        if self.node_count == 0:
            return 0.0
        areas = self.surface_areas().astype(np.float64)
        root_area = max(float(areas[0]), 1e-30)
        leaves = self.left < 0
        inner = ~leaves
        cost = traversal_cost * float(areas[inner].sum()) / root_area
        cost += intersect_cost * float(
            (areas[leaves] * self.prim_count[leaves]).sum()
        ) / root_area
        return cost

    def statistics(self) -> BvhStatistics:
        leaves = self.left < 0
        leaf_sizes = self.prim_count[leaves]
        # Sibling overlap: shared surface between the two children of each
        # inner node, a cheap proxy for BVH quality degradation after refits.
        # Computed in float64 with a vectorised reduction; low-order bits may
        # differ from a sequential float32 per-node accumulation (this is a
        # diagnostic, not part of the golden-pinned engine surface).
        inner = np.flatnonzero(~leaves)
        overlap = 0.0
        if inner.size:
            l, r = self.left[inner], self.right[inner]
            o_min = np.maximum(
                self.node_mins[l].astype(np.float64), self.node_mins[r].astype(np.float64)
            )
            o_max = np.minimum(
                self.node_maxs[l].astype(np.float64), self.node_maxs[r].astype(np.float64)
            )
            ext = np.maximum(o_max - o_min, 0.0)
            overlap = float(
                (2.0 * (ext[:, 0] * ext[:, 1] + ext[:, 1] * ext[:, 2] + ext[:, 2] * ext[:, 0])).sum()
            )
        return BvhStatistics(
            node_count=self.node_count,
            leaf_count=int(leaves.sum()),
            max_depth=self.depth(),
            max_leaf_size=int(leaf_sizes.max()) if leaf_sizes.size else 0,
            mean_leaf_size=float(leaf_sizes.mean()) if leaf_sizes.size else 0.0,
            sah_cost=self.sah_cost(),
            total_overlap_area=overlap,
        )

    def structure_bytes(self) -> int:
        """Modelled device memory consumed by the node structure alone."""
        return self.node_count * self.node_bytes()


def build_bvh(
    primitive_buffer: PrimitiveBuffer,
    options: BvhBuildOptions | None = None,
) -> Bvh:
    """Build a BVH over all primitives of ``primitive_buffer``.

    This is the software analogue of ``optixAccelBuild`` with
    ``OPTIX_BUILD_OPERATION_BUILD``.  ``options.shard_bits`` plays no part:
    :func:`repro.rtx.forest.build_forest` runs this same lbvh build and
    cuts the result into shards.  A primitive with a non-finite bound
    raises ``ValueError`` naming its row.
    """
    options = options or BvhBuildOptions()
    options.validate()
    prim_mins, prim_maxs = box_columns(primitive_buffer)
    n = prim_mins.shape[1]
    if n == 0:
        raise ValueError("cannot build a BVH over zero primitives")
    centroids = centroid_columns(prim_mins, prim_maxs)

    if options.builder == "lbvh":
        codes = morton_encode_3d(centroids.T, options.morton_bits)
        order, sorted_codes = sort_codes(codes)
        splitter = _LbvhSplitter(sorted_codes)
    else:
        require_finite(
            np.concatenate([centroids.min(axis=1), centroids.max(axis=1)]), centroids
        )
        order = np.arange(n, dtype=np.int64)
        if options.builder == "sah":
            splitter = _SahSplitter(centroids.T, prim_mins.T, prim_maxs.T, options)
        else:
            splitter = _MedianSplitter(centroids.T)

    return _build_levels(order, prim_mins, prim_maxs, options, splitter)


def box_columns(
    primitive_buffer: PrimitiveBuffer, rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The AABBs of the buffer (or of its ``rows``) as ``(mins, maxs)``,
    each one contiguous ``(3, m)`` row per axis: the columns
    ``compute_aabbs`` writes, so nothing is copied."""
    prim_mins, prim_maxs = primitive_buffer.compute_aabbs(rows)
    return prim_mins.T, prim_maxs.T


def centroid_columns(prim_mins: np.ndarray, prim_maxs: np.ndarray) -> np.ndarray:
    """Float64 centroids of ``(3, n)`` box columns, one row per axis."""
    centroids = np.add(prim_mins, prim_maxs, dtype=np.float64)
    centroids *= 0.5
    return centroids


def sort_codes(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, codes[order])`` with ``order == np.argsort(codes, kind="stable")``.

    The default sort is several times faster than the stable one and gives
    the same order where codes are distinct.  Equal codes (duplicate keys)
    tie, so one sort of the packed keys ``run * n + row`` over the tied
    positions alone puts each equal-code run's rows back in ascending order.
    """
    order = np.argsort(codes)
    sorted_codes = codes[order]
    same = sorted_codes[1:] == sorted_codes[:-1]
    if same.any():
        tied = np.flatnonzero(np.r_[same, False] | np.r_[False, same])
        run = np.cumsum(np.r_[True, ~same[tied[1:] - 1]]) * codes.shape[0]
        packed = run + order[tied]
        packed.sort()
        order[tied] = packed - run
    return order, sorted_codes


#: The arrays that define a BVH's observable behaviour.  Everything the
#: traversal engine reads lives here, so two trees agreeing on all of them
#: are interchangeable — the invariant the sharded forest build rests on.
BVH_ARRAY_FIELDS = (
    "left",
    "right",
    "first_prim",
    "prim_count",
    "prim_indices",
    "node_mins",
    "node_maxs",
)


def bvh_arrays_diff(a: Bvh, b: Bvh) -> str | None:
    """Name of the first defining array where ``a`` and ``b`` differ, or None.

    The single home of the bit-identicality check used wherever a forest's
    tree is verified against the single tree (bench, experiments, tests).
    """
    for attr in BVH_ARRAY_FIELDS:
        if not np.array_equal(getattr(a, attr), getattr(b, attr)):
            return attr
    return None


def bvh_state_arrays(bvh: Bvh) -> dict[str, np.ndarray]:
    """The defining arrays of ``bvh`` as a name→array dict — the persisted
    form of a single tree (one segment of the epoch store)."""
    return {attr: getattr(bvh, attr) for attr in BVH_ARRAY_FIELDS}


def bvh_from_arrays(
    arrays: dict[str, np.ndarray],
    num_primitives: int,
    options: BvhBuildOptions,
    compacted: bool = False,
    refit_generation: int = 0,
) -> Bvh:
    """Rehydrate a :class:`Bvh` from persisted defining arrays.

    The arrays are adopted as-is (read-only memory-mapped views included —
    traversal never writes them), so a load is zero-copy; everything the
    engine reads is in :data:`BVH_ARRAY_FIELDS`, which makes the rebuilt
    tree observably identical to the one that was saved.
    """
    missing = [attr for attr in BVH_ARRAY_FIELDS if attr not in arrays]
    if missing:
        raise ValueError(f"persisted BVH arrays are missing fields {missing}")
    return Bvh(
        node_mins=arrays["node_mins"],
        node_maxs=arrays["node_maxs"],
        left=arrays["left"],
        right=arrays["right"],
        first_prim=arrays["first_prim"],
        prim_count=arrays["prim_count"],
        prim_indices=arrays["prim_indices"],
        num_primitives=int(num_primitives),
        options=options,
        compacted=bool(compacted),
        refit_generation=int(refit_generation),
    )


def build_lbvh_over_sorted(
    sorted_codes: np.ndarray,
    prim_mins: np.ndarray,
    prim_maxs: np.ndarray,
    options: BvhBuildOptions,
    order: np.ndarray | None = None,
) -> Bvh:
    """Build an LBVH over primitives *already sorted* by Morton code.

    ``order`` lists the primitive rows in code order and becomes the tree's
    ``prim_indices``; ``prim_mins`` / ``prim_maxs`` are ``(n, 3)`` bounds
    indexed by row (fastest as ``.T`` views of :func:`box_columns`).  Without
    ``order`` the bounds are already in code order and ``prim_indices`` is
    ``0..m-1`` — how the forest builds one shard.  Runs the same machinery
    as :func:`build_bvh`, so with ``order`` set to the stable code sort the
    tree is ``build_bvh``'s, and a shard's tree equals the matching subtree.
    """
    if order is None:
        order = np.arange(sorted_codes.shape[0], dtype=np.int64)
    splitter = _LbvhSplitter(np.asarray(sorted_codes, dtype=np.uint64))
    return _build_levels(order, prim_mins.T, prim_maxs.T, options, splitter)


# --------------------------------------------------------------------------- #
# level-synchronous machinery
# --------------------------------------------------------------------------- #


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[i], starts[i] + counts[i])`` into one index array."""
    total = int(counts.sum())
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)


def fit_bounds_bottom_up(
    left: np.ndarray,
    right: np.ndarray,
    first_prim: np.ndarray,
    prim_count: np.ndarray,
    prim_indices: np.ndarray,
    prim_mins: np.ndarray,
    prim_maxs: np.ndarray,
    levels: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Fit every node's bounds bottom-up, one vectorised pass per level.

    ``prim_mins`` / ``prim_maxs`` are ``(3, n)`` per-axis columns, and the
    fit runs on six float32 node columns.  Leaves reduce their primitives;
    inner nodes take the element-wise min/max of their two children, level
    by level from the deepest upwards.  Min/max are associative, and
    rounding to float32 is monotone so it commutes with them: the boxes are
    bit-identical to fitting each node from its primitives in float64 and
    casting to float32.  Returns ``(nodes, 3)`` float32 ``(mins, maxs)``.
    Shared by the builder and the refit pass in :mod:`repro.rtx.refit`.
    """
    num_nodes = left.shape[0]
    boxes = np.empty((2, 3, num_nodes), dtype=np.float32)
    mins, maxs = boxes

    # The leaves tile the primitive stream: a scatter puts them in stream
    # order, then one pass per leaf slot reduces every leaf's rows.
    owner = np.full(prim_indices.shape[0], -1, dtype=np.int64)
    owner[first_prim[left < 0]] = np.flatnonzero(left < 0)
    leaves = owner[owner >= 0]
    starts = first_prim[leaves]
    last = starts + prim_count[leaves] - 1
    slots = [np.minimum(starts + k, last) for k in range(1, int(prim_count[leaves].max()))]
    sides = ((prim_mins, mins, np.minimum), (prim_maxs, maxs, np.maximum))
    for columns, node_columns, reduce in sides:
        for axis in range(3):
            stream = columns[axis][prim_indices]
            fitted = stream[starts]
            for slot in slots:
                reduce(fitted, stream[slot], out=fitted)
            node_columns[axis, leaves] = fitted

    for level in reversed(levels):
        inner = level[left[level] >= 0]
        if inner.size:
            l, r = left[inner], right[inner]
            for axis in range(3):
                mins[axis, inner] = np.minimum(mins[axis, l], mins[axis, r])
                maxs[axis, inner] = np.maximum(maxs[axis, l], maxs[axis, r])
    return np.ascontiguousarray(mins.T), np.ascontiguousarray(maxs.T)


def _high_bit(values: np.ndarray) -> np.ndarray:
    """Index of the most significant set bit of each uint64 (0 for zero)."""
    x = np.asarray(values, dtype=np.uint64).copy()
    out = np.zeros(x.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        big = x >= (np.uint64(1) << np.uint64(shift))
        out[big] += shift
        x[big] >>= np.uint64(shift)
    return out


def _build_levels(order, prim_mins, prim_maxs, options, splitter) -> Bvh:
    """Top-down build where each tree level is one batch of array passes.

    Node ids are allocated breadth-first (the children of a level are the
    next level's block, in (left, right) pairs), then renumbered to the
    stack-based builder's depth-first order, and the bounds are fitted from
    the ``(3, n)`` columns ``prim_mins`` / ``prim_maxs`` in one final pass.
    """
    prim_indices = np.array(order, dtype=np.int64, copy=True)
    n = prim_indices.shape[0]
    cap = max(2 * n - 1, 1)
    left = np.full(cap, -1, dtype=np.int64)
    first_prim = np.zeros(cap, dtype=np.int64)
    prim_count = np.zeros(cap, dtype=np.int64)

    # Current level: node ids with their [start, end) ranges over
    # prim_indices, kept sorted by start (ids are then contiguous too).
    ids = np.zeros(1, dtype=np.int64)
    starts = np.zeros(1, dtype=np.int64)
    ends = np.full(1, n, dtype=np.int64)
    num_nodes = 1
    level_bounds: list[tuple[int, int]] = [(0, 1)]

    while ids.size:
        counts = ends - starts
        leaf_mask = counts <= options.max_leaf_size
        first_prim[ids[leaf_mask]] = starts[leaf_mask]
        prim_count[ids[leaf_mask]] = counts[leaf_mask]

        split_mask = ~leaf_mask
        s_ids = ids[split_mask]
        if s_ids.size == 0:
            break
        s_starts = starts[split_mask]
        s_ends = ends[split_mask]
        splits = splitter.split_level(prim_indices, s_starts, s_ends)
        # Ranges the splitter could not separate (identical Morton codes
        # or identical centroids) fall back to a median split by index,
        # as GPU builders do.
        fallback = (splits <= s_starts) | (splits >= s_ends)
        splits = np.where(fallback, s_starts + (s_ends - s_starts) // 2, splits)

        # Next level, interleaved (left0, right0, left1, right1, ...) so
        # ranges stay sorted by start and ids stay contiguous; each right
        # child is its left sibling's id plus one.
        k = s_ids.shape[0]
        left[s_ids] = num_nodes + 2 * np.arange(k, dtype=np.int64)
        ids = num_nodes + np.arange(2 * k, dtype=np.int64)
        starts = np.stack([s_starts, splits], axis=1).ravel()
        ends = np.stack([splits, s_ends], axis=1).ravel()
        num_nodes += 2 * k
        level_bounds.append((num_nodes - 2 * k, num_nodes))

    left = left[:num_nodes]
    perm = _dfs_renumbering(left, level_bounds)
    out_left = np.full(num_nodes, -1, dtype=np.int64)
    inner = np.flatnonzero(left >= 0)
    out_left[perm[inner]] = perm[left[inner]]
    out_right = np.where(out_left >= 0, out_left + 1, -1)
    out_first = np.empty(num_nodes, dtype=np.int64)
    out_count = np.empty(num_nodes, dtype=np.int64)
    out_first[perm] = first_prim[:num_nodes]
    out_count[perm] = prim_count[:num_nodes]
    node_mins, node_maxs = fit_bounds_bottom_up(
        out_left, out_right, out_first, out_count, prim_indices, prim_mins, prim_maxs,
        [perm[ls:le] for ls, le in level_bounds],
    )
    return Bvh(
        node_mins=node_mins,
        node_maxs=node_maxs,
        left=out_left,
        right=out_right,
        first_prim=out_first,
        prim_count=out_count,
        prim_indices=prim_indices,
        num_primitives=n,
        options=options,
    )


def _dfs_renumbering(left: np.ndarray, level_bounds: list[tuple[int, int]]) -> np.ndarray:
    """Map working node ids to the stack-based builder's numbering.

    The original builder popped ``(node, range)`` tuples off a Python list
    (right child first) and allocated both children consecutively when a node
    was popped.  That numbering is reconstructed without any per-node loop:
    subtree sizes (bottom-up) give each node's position in the right-first
    depth-first preorder (top-down), and the k-th inner node in that order
    allocated ids ``2k + 1`` / ``2k + 2`` for its children.  The positions
    are distinct, so one scatter by position puts the inner nodes in order.

    ``level_bounds`` are the breadth-first blocks ``[start, end)``, so
    children are strided slices of the next block.  The forest relies on a
    consequence: every child id exceeds its parent's, ``right == left + 1``,
    and a subtree rooted at the p-th inner node in that order with m inner
    nodes occupies its root id plus the block ``[2p + 1, 2p + 2m]``.
    """
    num_nodes = left.shape[0]
    blocks = [
        (ls + np.flatnonzero(left[ls:le] >= 0), slice(le, end, 2), slice(le + 1, end, 2))
        for (ls, le), (_, end) in zip(level_bounds, level_bounds[1:])
    ]
    size = np.ones(num_nodes, dtype=np.int64)
    for inner, lefts, rights in reversed(blocks):
        size[inner] += size[lefts] + size[rights]
    pos = np.zeros(num_nodes, dtype=np.int64)
    for inner, lefts, rights in blocks:
        pos[rights] = pos[inner] + 1
        pos[lefts] = pos[rights] + size[rights]

    by_pos = np.full(num_nodes, -1, dtype=np.int64)
    inner = np.flatnonzero(left >= 0)
    by_pos[pos[inner]] = inner
    ordered = by_pos[by_pos >= 0]
    perm = np.zeros(num_nodes, dtype=np.int64)
    perm[left[ordered]] = 1 + 2 * np.arange(ordered.size, dtype=np.int64)
    perm[left[ordered] + 1] = perm[left[ordered]] + 1
    return perm


class _MedianSplitter:
    """Split at the object median along the widest centroid axis."""

    def __init__(self, centroids):
        self.centroids = centroids

    def split_level(self, prim_indices, starts, ends):
        counts = ends - starts
        offsets = np.cumsum(counts) - counts
        gather = _concat_ranges(starts, counts)
        prims = prim_indices[gather]
        cents = self.centroids[prims]
        cmin = np.minimum.reduceat(cents, offsets, axis=0)
        cmax = np.maximum.reduceat(cents, offsets, axis=0)
        ext = cmax - cmin
        axis = np.argmax(ext, axis=1)
        rows = np.arange(starts.shape[0])
        splittable = ext[rows, axis] > 0.0

        # One stable lexsort keyed by (segment, coordinate on the segment's
        # widest axis) reorders every range of the level at once.  Ranges
        # whose widest extent is zero have all-equal keys, so the stable sort
        # leaves them untouched — exactly the reference behaviour.
        seg_ids = np.repeat(rows, counts)
        keys = cents[np.arange(gather.shape[0]), axis[seg_ids]]
        order = np.lexsort((keys, seg_ids))
        prim_indices[gather] = prims[order]
        return np.where(splittable, starts + counts // 2, np.int64(-1))


class _LbvhSplitter:
    """Split sorted Morton ranges at the highest differing bit.

    Primitives arrive already sorted by Morton code, so a split is simply the
    first index whose code differs from the range's first code in the most
    significant differing bit.  All splits of a level are found with one
    vectorised binary search over the shared sorted-code array.  Ranges with
    identical codes fall back to an index-median split (handled by the
    caller), which reproduces the fully-overlapping sibling nodes that
    degrade traversal for pathological coordinate distributions.
    """

    def __init__(self, sorted_codes):
        self.sorted_codes = sorted_codes

    def split_level(self, prim_indices, starts, ends):
        codes = self.sorted_codes
        first = codes[starts]
        last = codes[ends - 1]
        diff = first ^ last
        splittable = diff != np.uint64(0)
        shift = _high_bit(diff).astype(np.uint64)
        prefix = first >> shift

        # Batched binary search: per range, the first position whose code has
        # a prefix above the split bit greater than the range's first code.
        lo = starts.copy()
        hi = ends.copy()
        last = np.int64(codes.shape[0] - 1)
        while True:
            active = lo < hi
            if not active.any():
                break
            # Inactive lanes have lo == hi, which may sit one past the end of
            # the code array; clamping keeps the (discarded) gather in bounds.
            mid = np.minimum((lo + hi) >> 1, last)
            below = (codes[mid] >> shift) <= prefix
            lo = np.where(active & below, mid + 1, lo)
            hi = np.where(active & ~below, mid, hi)
        return np.where(splittable, lo, np.int64(-1))


class _SahSplitter:
    """Binned surface-area-heuristic splitter, one level per batch."""

    def __init__(self, centroids, prim_mins, prim_maxs, options):
        self.centroids = centroids
        self.prim_mins = prim_mins
        self.prim_maxs = prim_maxs
        self.bins = options.sah_bins

    @staticmethod
    def _areas(mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
        """Surface areas over a trailing xyz axis (any leading shape)."""
        ext = np.maximum(maxs - mins, 0.0)
        return 2.0 * (
            ext[..., 0] * ext[..., 1]
            + ext[..., 1] * ext[..., 2]
            + ext[..., 2] * ext[..., 0]
        )

    def split_level(self, prim_indices, starts, ends):
        nbins = self.bins
        num_ranges = starts.shape[0]
        counts = ends - starts
        offsets = np.cumsum(counts) - counts
        gather = _concat_ranges(starts, counts)
        prims = prim_indices[gather]
        cents = self.centroids[prims]
        cmin = np.minimum.reduceat(cents, offsets, axis=0)
        cmax = np.maximum.reduceat(cents, offsets, axis=0)
        ext = cmax - cmin
        axis = np.argmax(ext, axis=1)
        rows = np.arange(num_ranges)
        axis_ext = ext[rows, axis]
        splittable = axis_ext > 0.0

        seg_ids = np.repeat(rows, counts)
        scale = np.where(splittable, nbins / np.where(splittable, axis_ext, 1.0), 0.0)
        values = cents[np.arange(gather.shape[0]), axis[seg_ids]]
        rel = (values - cmin[seg_ids, axis[seg_ids]]) * scale[seg_ids]
        bin_ids = np.minimum(rel.astype(np.int64), nbins - 1)

        # Per-(range, bin) primitive counts and bounds via one stable sort.
        flat = seg_ids * nbins + bin_ids
        bin_counts = np.bincount(flat, minlength=num_ranges * nbins).reshape(
            num_ranges, nbins
        )
        sort = np.argsort(flat, kind="stable")
        sorted_flat = flat[sort]
        group_starts = np.flatnonzero(
            np.r_[True, sorted_flat[1:] != sorted_flat[:-1]]
        )
        bin_mins = np.full((num_ranges * nbins, 3), np.inf)
        bin_maxs = np.full((num_ranges * nbins, 3), -np.inf)
        sorted_prims = prims[sort]
        bin_mins[sorted_flat[group_starts]] = np.minimum.reduceat(
            self.prim_mins[sorted_prims], group_starts, axis=0
        )
        bin_maxs[sorted_flat[group_starts]] = np.maximum.reduceat(
            self.prim_maxs[sorted_prims], group_starts, axis=0
        )
        bin_mins = bin_mins.reshape(num_ranges, nbins, 3)
        bin_maxs = bin_maxs.reshape(num_ranges, nbins, 3)

        # Sweep all candidate partitions of every range at once: prefix
        # bounds from the left, suffix bounds from the right.  Empty bins are
        # inf-padded and never affect a non-empty side's min/max.
        prefix_min = np.minimum.accumulate(bin_mins, axis=1)
        prefix_max = np.maximum.accumulate(bin_maxs, axis=1)
        suffix_min = np.minimum.accumulate(bin_mins[:, ::-1], axis=1)[:, ::-1]
        suffix_max = np.maximum.accumulate(bin_maxs[:, ::-1], axis=1)[:, ::-1]
        prefix_counts = np.cumsum(bin_counts, axis=1)

        left_counts = prefix_counts[:, :-1]
        right_counts = counts[:, None] - left_counts
        with np.errstate(invalid="ignore"):
            left_area = self._areas(prefix_min[:, :-1], prefix_max[:, :-1])
            right_area = self._areas(suffix_min[:, 1:], suffix_max[:, 1:])
            cost = left_area * left_counts + right_area * right_counts
        cost = np.where((left_counts == 0) | (right_counts == 0), np.inf, cost)
        best = np.argmin(cost, axis=1)
        valid = splittable & np.isfinite(cost[rows, best])
        best_bin = best + 1

        # Stable partition of every valid range: left-group primitives first,
        # original order preserved within both groups.  Invalid ranges get an
        # all-equal key and therefore stay untouched.
        go_right = (bin_ids >= best_bin[seg_ids]) & valid[seg_ids]
        order = np.lexsort((go_right, seg_ids))
        prim_indices[gather] = prims[order]

        splits = starts + left_counts[rows, best]
        return np.where(valid, splits, np.int64(-1))
