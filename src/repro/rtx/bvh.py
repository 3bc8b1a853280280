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

from dataclasses import dataclass, field, replace

import numpy as np

from repro.rtx.geometry import PrimitiveBuffer
from repro.rtx.morton import (
    morton_encode_3d,
    morton_interleave_grid,
    quantize_to_grid,
    require_finite,
)

#: Bytes fetched per node visit during traversal.  Compaction removes
#: allocation slack but does not shrink what a traversal step has to fetch,
#: which is why compacted and uncompacted accels perform almost identically
#: (Figure 7a).
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
        disables the effect of compaction.  An index sets it exactly under
        ``UpdatePolicy.REFIT``.
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
class Bvh:
    """A binary BVH stored as a structure of arrays.

    ``left[i] == -1`` marks node ``i`` as a leaf; its primitives are
    ``prim_indices[first_prim[i] : first_prim[i] + prim_count[i]]``.  An
    inner node's children are ``left[i]`` and ``left[i] + 1``: every
    builder, cut and splice allocates the two consecutively, so the second
    is derived, never stored.  The root is node 0.
    """

    node_mins: np.ndarray
    node_maxs: np.ndarray
    left: np.ndarray
    first_prim: np.ndarray
    prim_count: np.ndarray
    prim_indices: np.ndarray
    num_primitives: int
    options: BvhBuildOptions
    compacted: bool = False
    #: filled by refits so lookup-quality degradation can be inspected
    refit_generation: int = 0
    #: lazily computed list of per-level node-id arrays (root level first);
    #: shared by ``depth()`` and the vectorised refit, and carried over by
    #: compaction since the topology is unchanged.
    _levels: list[np.ndarray] | None = field(default=None, repr=False, compare=False)
    #: ``(lo, hi)`` centroid bounds of the Morton grid, recorded by
    #: :func:`build_bvh`'s lbvh build for :func:`relabel_moved_rows`
    grid_bounds: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def node_count(self) -> int:
        return int(self.left.shape[0])

    @property
    def leaf_count(self) -> int:
        return int(np.count_nonzero(self.left < 0))

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
                    lefts = self.left[frontier]
                    lefts = lefts[lefts >= 0]
                    if lefts.size == 0:
                        break
                    frontier = np.concatenate([lefts, lefts + 1])
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
    if options.builder == "lbvh":
        # No name here holds the splitter, so its sorted codes go with the
        # level loop.
        return _build_levels(
            prim_mins, prim_maxs, options,
            _LbvhSplitter.encoding(prim_mins, prim_maxs, options.morton_bits),
        )
    centroids = centroid_columns(prim_mins, prim_maxs)
    require_finite(np.concatenate([centroids.min(axis=1), centroids.max(axis=1)]), centroids)
    if options.builder == "sah":
        splitter = _SahSplitter(centroids.T, prim_mins.T, prim_maxs.T, options)
    else:
        splitter = _MedianSplitter(centroids.T)
    return _build_levels(prim_mins, prim_maxs, options, splitter)


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


#: The node arrays of a tree: name, dtype and shape after the node count.
NODE_ARRAYS = (
    ("left", np.int64, ()),
    ("first_prim", np.int64, ()),
    ("prim_count", np.int64, ()),
    ("node_mins", np.float32, (3,)),
    ("node_maxs", np.float32, (3,)),
)

#: The arrays that define a BVH's observable behaviour: the node arrays and
#: ``prim_indices``.  Everything the traversal engine reads lives here, so
#: two trees agreeing on all of them are interchangeable — the invariant
#: the sharded forest build rests on.
BVH_ARRAY_FIELDS = (
    "left",
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


def bvh_from_arrays(
    arrays: dict[str, np.ndarray],
    num_primitives: int,
    options: BvhBuildOptions,
    compacted: bool = False,
    refit_generation: int = 0,
) -> Bvh:
    """Rehydrate a :class:`Bvh` from persisted defining arrays.

    Persisted single and shard trees enter the process here, so the arrays
    a traversal indexes with must have the tree's dtypes and shapes: the
    :data:`NODE_ARRAYS` of one node count, and ``prim_indices`` int64
    ``(num_primitives,)``.  A store written while trees still stored their
    second children may hold a ``right`` array; it must equal the
    ``left + 1`` (``-1`` at leaves) the tree derives, and is then dropped.
    A failure raises ``ValueError`` naming the array.  The arrays are
    adopted as-is (read-only memory-mapped views included — traversal
    never writes them), so a load is zero-copy; everything the engine
    reads is in :data:`BVH_ARRAY_FIELDS`, which makes the rebuilt tree
    observably identical to the one that was saved.
    """
    missing = [attr for attr in BVH_ARRAY_FIELDS if attr not in arrays]
    if missing:
        raise ValueError(f"persisted BVH arrays are missing fields {missing}")
    left = arrays["left"]
    expected = [(name, dtype, (left.size, *tail)) for name, dtype, tail in NODE_ARRAYS]
    expected.append(("prim_indices", np.int64, (int(num_primitives),)))
    for name, dtype, shape in expected:
        array = arrays[name]
        if array.dtype != dtype or array.shape != shape:
            raise ValueError(
                f"tree array {name} is {array.dtype} {array.shape}, not {np.dtype(dtype)} {shape}"
            )
    if "right" in arrays and not np.array_equal(
        arrays["right"], np.where(left >= 0, left + 1, -1)
    ):
        raise ValueError("legacy tree array right is not left + 1 at inner nodes and -1 at leaves")
    return Bvh(
        node_mins=arrays["node_mins"],
        node_maxs=arrays["node_maxs"],
        left=left,
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
    ``prim_indices``, uncopied; ``prim_mins`` / ``prim_maxs`` are ``(n, 3)``
    bounds indexed by row (fastest as ``.T`` views of :func:`box_columns`).
    Without ``order`` the bounds are already in code order, ``prim_indices``
    is ``0..m-1`` and the tree keeps no level lists — how the forest builds
    one shard.  Runs the same machinery
    as :func:`build_bvh`, so with ``order`` set to the stable code sort the
    tree is ``build_bvh``'s, and a shard's tree equals the matching subtree.
    """
    tree = _build_levels(
        prim_mins.T, prim_maxs.T, options,
        _LbvhSplitter(np.asarray(sorted_codes, dtype=np.uint64), order),
    )
    if order is None:
        # A shard tree is spliced, never traversed or refitted on its own:
        # level lists would only pin memory in a long-lived forest.
        tree._levels = None
    return tree


def relabel_moved_rows(
    bvh: Bvh,
    old_buffer: PrimitiveBuffer,
    new_buffer: PrimitiveBuffer,
    old_rows: np.ndarray,
    new_rows: np.ndarray,
) -> Bvh | None:
    """``build_bvh(new_buffer, bvh.options)`` without a build, or None.

    ``bvh`` was built over ``old_buffer``; in ``new_buffer`` row
    ``new_rows[i]`` holds what row ``old_rows[i]`` held, and the caller
    vouches that both list the same rows once each and that every other
    row is unchanged.  An LBVH depends only on the sorted Morton codes and
    the boxes in stream order, which such a move keeps, so the build is
    ``bvh`` with the moved rows relabelled in a copy of ``prim_indices``,
    sharing the node arrays and level lists, once this checks that ``bvh``
    recorded its grid bounds (a loaded tree did not) and was never
    refitted, that the stored arrays at ``new_rows`` equal the old ones at
    ``old_rows`` (compared as ``changed_rows`` compares: every position
    keeps its box and code), and that every relabelled position stays in
    the stable sort's (code, row) order with both neighbours.  ``bvh`` and
    ``old_buffer`` are only read: older epochs may still traverse them.
    """
    n = bvh.num_primitives
    if (
        bvh.grid_bounds is None
        or bvh.refit_generation
        or len(new_buffer) != n
        or not new_buffer.same_rows(new_rows, old_buffer, old_rows)
    ):
        return None
    moved = np.zeros(n, dtype=bool)
    moved[old_rows] = True
    at = np.flatnonzero(moved[bvh.prim_indices])
    del moved
    by_old = np.argsort(old_rows)
    prim_indices = bvh.prim_indices.copy()
    prim_indices[at] = new_rows[by_old[np.searchsorted(old_rows, prim_indices[at], sorter=by_old)]]

    # Each relabelled position between its neighbours (itself at the ends,
    # which the row compare's ``<=`` lets pass).
    rows = prim_indices[np.concatenate([np.maximum(at - 1, 0), at, np.minimum(at + 1, n - 1)])]
    bits = bvh.options.morton_bits
    centroids = centroid_columns(*box_columns(new_buffer, rows))
    codes = morton_interleave_grid(quantize_to_grid(centroids.T, *bvh.grid_bounds, bits), bits)
    codes, rows = codes.reshape(3, -1), rows.reshape(3, -1)
    for a, b in ((0, 1), (1, 2)):
        if not ((codes[a] < codes[b]) | ((codes[a] == codes[b]) & (rows[a] <= rows[b]))).all():
            return None
    return replace(bvh, prim_indices=prim_indices, compacted=False)


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
    first_prim: np.ndarray,
    prim_count: np.ndarray,
    prim_indices: np.ndarray,
    prim_mins: np.ndarray,
    prim_maxs: np.ndarray,
    levels: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Fit every node's bounds bottom-up, one vectorised pass per level.

    ``prim_mins`` / ``prim_maxs`` are ``(3, n)`` per-axis columns, and the
    fit writes the ``(nodes, 3)`` float32 boxes it returns.  Leaves reduce
    their primitives; inner nodes take the element-wise min/max of their
    two children, level by level from the deepest upwards.  Min/max are
    associative, and rounding to float32 is monotone so it commutes with
    them: the boxes are bit-identical to fitting each node from its
    primitives in float64 and casting to float32.  Returns ``(mins,
    maxs)``.  Shared by the builder and the refit pass in
    :mod:`repro.rtx.refit`.
    """
    num_nodes = left.shape[0]
    mins = np.empty((num_nodes, 3), dtype=np.float32)
    maxs = np.empty((num_nodes, 3), dtype=np.float32)

    # One pass per leaf slot reduces every leaf's rows of the primitive
    # stream at once.
    leaves = np.flatnonzero(left < 0)
    starts = first_prim[leaves]
    last = starts + prim_count[leaves] - 1
    slots = [np.minimum(starts + k, last) for k in range(1, int(prim_count[leaves].max()))]
    sides = ((prim_mins, mins, np.minimum), (prim_maxs, maxs, np.maximum))
    for columns, boxes, reduce in sides:
        for axis in range(3):
            stream = columns[axis][prim_indices]
            fitted = stream[starts]
            for slot in slots:
                reduce(fitted, stream[slot], out=fitted)
            boxes[leaves, axis] = fitted

    for level in reversed(levels):
        inner = level[left[level] >= 0]
        if inner.size:
            l = left[inner]
            mins[inner] = np.minimum(mins[l], mins[l + 1])
            maxs[inner] = np.maximum(maxs[l], maxs[l + 1])
    return mins, maxs


def _high_bit(values: np.ndarray) -> np.ndarray:
    """Index of the most significant set bit of each uint64 (0 for zero)."""
    x = np.asarray(values, dtype=np.uint64).copy()
    out = np.zeros(x.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        big = x >= (np.uint64(1) << np.uint64(shift))
        out[big] += shift
        x[big] >>= np.uint64(shift)
    return out


def _build_levels(prim_mins, prim_maxs, options, splitter) -> Bvh:
    """Top-down build where each tree level is one batch of array passes.

    Node ids are allocated breadth-first (:func:`_split_levels`), then
    renumbered to the stack-based builder's depth-first order, and the
    bounds are fitted from the ``(3, n)`` columns ``prim_mins`` /
    ``prim_maxs`` in one final pass.  The splitter's ``order`` becomes the
    tree's ``prim_indices`` as it is, and the tree keeps the per-level node
    lists the renumbering gives (:meth:`Bvh.level_ranges`) and the
    splitter's ``grid_bounds``.  The LBVH callers pass their only reference
    to ``splitter``, so the sorted codes go with the level loop; the
    working arrays go before the fit.
    """
    prim_indices, grid_bounds = splitter.order, splitter.grid_bounds
    left, first_prim, prim_count, level_bounds = _split_levels(prim_indices, options, splitter)
    del splitter
    num_nodes = left.shape[0]
    perm = _dfs_renumbering(left, level_bounds)
    out_left = np.full(num_nodes, -1, dtype=np.int64)
    inner = np.flatnonzero(left >= 0)
    out_left[perm[inner]] = perm[left[inner]]
    del left, inner
    out_first = np.empty(num_nodes, dtype=np.int64)
    out_first[perm] = first_prim
    del first_prim
    out_count = np.empty(num_nodes, dtype=np.int64)
    out_count[perm] = prim_count
    del prim_count

    levels = [perm[ls:le] for ls, le in level_bounds]
    node_mins, node_maxs = fit_bounds_bottom_up(
        out_left, out_first, out_count, prim_indices, prim_mins, prim_maxs, levels
    )
    return Bvh(
        node_mins=node_mins,
        node_maxs=node_maxs,
        left=out_left,
        first_prim=out_first,
        prim_count=out_count,
        prim_indices=prim_indices,
        num_primitives=int(prim_indices.shape[0]),
        options=options,
        _levels=levels,
        grid_bounds=grid_bounds,
    )


def _split_levels(prim_indices, options, splitter):
    """Split ``prim_indices`` level by level: ``(left, first_prim,
    prim_count, level_bounds)`` in breadth-first working ids, where the
    children of a level are the next level's id block ``level_bounds[i]``,
    in (left, right) pairs.  Each level's node arrays are one block,
    concatenated once at the end."""
    n = prim_indices.shape[0]
    lefts: list[np.ndarray] = []
    firsts: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    # Current level: its ranges [start, end) over prim_indices, sorted by
    # start; its nodes are the id block level_bounds[-1].
    starts = np.zeros(1, dtype=np.int64)
    ends = np.full(1, n, dtype=np.int64)
    num_nodes = 1
    level_bounds: list[tuple[int, int]] = [(0, 1)]

    while True:
        count = ends - starts
        leaf_mask = count <= options.max_leaf_size
        lefts.append(np.full(count.shape[0], -1, dtype=np.int64))
        firsts.append(np.where(leaf_mask, starts, 0))
        counts.append(np.where(leaf_mask, count, 0))

        split_mask = ~leaf_mask
        k = int(np.count_nonzero(split_mask))
        if k == 0:
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
        lefts[-1][split_mask] = num_nodes + 2 * np.arange(k, dtype=np.int64)
        starts = np.stack([s_starts, splits], axis=1).ravel()
        ends = np.stack([splits, s_ends], axis=1).ravel()
        num_nodes += 2 * k
        level_bounds.append((num_nodes - 2 * k, num_nodes))
    return np.concatenate(lefts), np.concatenate(firsts), np.concatenate(counts), level_bounds


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
    children are strided slices of the next block.  Consequences: every
    child id exceeds its parent's, the children are consecutive (the
    :class:`Bvh` rule), and a subtree rooted at the p-th inner node in that
    order with m inner nodes occupies its root id plus the block
    ``[2p + 1, 2p + 2m]``, which the forest's cut and splice rely on.
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

    grid_bounds = None

    def __init__(self, centroids):
        self.centroids = centroids
        #: the primitive order, which the splits permute in place
        self.order = np.arange(centroids.shape[0], dtype=np.int64)

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

    def __init__(self, sorted_codes, order=None, grid_bounds=None):
        self.sorted_codes = sorted_codes
        #: the primitive rows in code order (``0..n-1`` when ``None``: the
        #: primitives themselves are in code order)
        self.order = np.arange(sorted_codes.shape[0], dtype=np.int64) if order is None else order
        #: the codes' grid bounds, when :meth:`encoding` made them
        self.grid_bounds = grid_bounds

    @classmethod
    def encoding(cls, prim_mins, prim_maxs, bits):
        """The splitter over the sorted Morton codes of the ``(3, n)``
        boxes' centroids, recording the grid's centroid bounds.  The
        centroids go once their codes exist, the unsorted codes with the
        sort."""
        centroids = centroid_columns(prim_mins, prim_maxs)
        bounds = (
            np.array([column.min() for column in centroids]),
            np.array([column.max() for column in centroids]),
        )
        codes = morton_encode_3d(centroids.T, bits)
        del centroids
        order, codes = sort_codes(codes)
        return cls(codes, order, bounds)

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

    grid_bounds = None

    def __init__(self, centroids, prim_mins, prim_maxs, options):
        self.centroids = centroids
        #: the primitive order, which the splits permute in place
        self.order = np.arange(centroids.shape[0], dtype=np.int64)
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
