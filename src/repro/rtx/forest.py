"""Morton-prefix sharded BVH forest: the structure behind delta-shard updates.

The forest partitions primitives by the top ``shard_bits`` bits of their
Morton codes into ``S = 2**shard_bits`` shards.  Because the LBVH splits every
range at its *highest differing* Morton bit, two primitives in different
prefix buckets always separate on one of the top ``shard_bits`` levels —
which means the single tree :func:`repro.rtx.bvh.build_bvh` emits is exactly

* a small **top-level node table** whose splits happen in prefix space
  (computable from per-bucket counts alone, without touching primitives), and
* one **independent sub-BVH per bucket**, each derivable from nothing but the
  bucket's own sorted codes and primitive bounds.

The forest therefore builds the shards one after another, in-process, and
stitches them under the top-level table into a tree whose arrays (including
the stack-order DFS node numbering) equal the single-tree build bit for bit.
The decomposition does not make a full build faster — it does the single
tree's work plus the stitch — but it makes updates and saves local: an
update rebuilds only the dirty shards, and a save rewrites only their
segments.  Traversal needs no special dispatch path: advancing the frontier
through the top-level table *is* the shard dispatch (a ray only ever reaches
the sub-BVHs whose shard bounds it overlaps), and because the stitched tree
is the single tree, hits and counters of every trace mode come out in
exactly the single-tree stream order.

Updates exploit the same decomposition: :func:`delta_update_forest` compares
the new primitive bounds row by row against the previous build, marks only
the shards that gained, lost, or moved a primitive as dirty, re-sorts and
rebuilds those, and re-stitches.  Clean shards reuse their sorted row order
and sub-tree unchanged (their leaf ranges are merely rebased), so the
expensive work scales with the dirty shards instead of the total key count.
An update that dirties nothing is recognised as a no-op and rebuilds nothing.

One top-level subtlety: a range whose total count is at most
``max_leaf_size`` becomes a single leaf in the single tree even when it spans
several buckets.  The top-level planner reproduces this by absorbing such
runs of tiny buckets into *mixed leaves*; absorbed buckets keep their sorted
rows (they still occupy their slice of the global primitive stream) but carry
no sub-tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.rtx.bvh import (
    BVH_ARRAY_FIELDS,
    Bvh,
    BvhBuildOptions,
    _dfs_renumbering,
    build_lbvh_over_sorted,
)
from repro.rtx.geometry import PrimitiveBuffer, ray_box_overlap_pairs
from repro.rtx.morton import (
    morton_interleave_grid,
    morton_prefix_buckets,
    quantize_to_grid_with_bounds,
)


class ShardPartitionError(ValueError):
    """Persisted shard state that does not match the recomputed partition."""

    def __init__(self, bucket: int, problem: str):
        super().__init__(f"shard {bucket}: {problem}")
        #: the Morton-prefix bucket whose persisted state is wrong
        self.bucket = bucket


@dataclass
class DeltaUpdateStats:
    """What a delta-shard update actually did."""

    total_shards: int
    non_empty_shards: int
    dirty_shards: int
    rebuilt_trees: int
    dirty_keys: int
    total_keys: int
    noop: bool = False
    #: True when the global Morton grid moved (scene bounds changed), which
    #: re-quantises every code and forces a full re-sort of all shards.
    rescaled: bool = False


@dataclass
class BvhForest:
    """A sharded BVH build: the stitched tree plus per-shard bookkeeping.

    ``bvh`` is bit-identical to the single-tree ``build_bvh`` output; the
    remaining fields exist so delta updates can identify and reuse clean
    shards.
    """

    bvh: Bvh
    options: BvhBuildOptions
    num_primitives: int
    #: bounds of the centroid cloud that defined the global Morton grid
    scene_lo: np.ndarray
    scene_hi: np.ndarray
    #: Morton-prefix bucket of every primitive row
    bucket_of_row: np.ndarray
    #: non-empty bucket ids, ascending (their stream slices concatenate into
    #: ``bvh.prim_indices``)
    shard_ids: np.ndarray
    #: per non-empty bucket: global rows in shard-sorted (code) order
    shard_rows: dict[int, np.ndarray]
    #: per *delegated* bucket: its sub-BVH in shard-local numbering
    shard_trees: dict[int, Bvh]

    @property
    def num_shards(self) -> int:
        return 1 << self.options.shard_bits

    @property
    def non_empty_shards(self) -> int:
        return int(self.shard_ids.shape[0])

    @property
    def delegated_shards(self) -> int:
        return len(self.shard_trees)

    def shard_bounds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Root bounds of every delegated shard as ``(ids, mins, maxs)``."""
        ids = np.array(sorted(self.shard_trees), dtype=np.int64)
        if ids.size == 0:
            return ids, np.zeros((0, 3), np.float32), np.zeros((0, 3), np.float32)
        mins = np.stack([self.shard_trees[int(b)].node_mins[0] for b in ids])
        maxs = np.stack([self.shard_trees[int(b)].node_maxs[0] for b in ids])
        return ids, mins, maxs

    def dispatch_counts(self, rays) -> dict[int, int]:
        """Rays overlapping each delegated shard's root bounds.

        Diagnostic mirror of what frontier traversal does implicitly: a ray
        only descends into the sub-BVHs returned here.  Uses the engine's
        default node culling (the near limit is clamped to zero, like the
        hardware).
        """
        ids, mins, maxs = self.shard_bounds()
        node_tmin = np.minimum(rays.tmin, np.float32(0.0))
        counts: dict[int, int] = {}
        for i, b in enumerate(ids.tolist()):
            m = len(rays)
            overlap = ray_box_overlap_pairs(
                rays.origins,
                rays.directions,
                node_tmin,
                rays.tmax,
                np.broadcast_to(mins[i].astype(np.float64), (m, 3)),
                np.broadcast_to(maxs[i].astype(np.float64), (m, 3)),
            )
            counts[b] = int(np.count_nonzero(overlap))
        return counts


# --------------------------------------------------------------------------- #
# top-level planning (prefix space)
# --------------------------------------------------------------------------- #


@dataclass
class _TopPlan:
    """The single tree's structure above the shard roots.

    ``entries`` lists the top-level nodes in creation (preorder) order; each
    is ``("leaf", stream_lo, count)`` or ``("inner", left_ref, right_ref)``
    with refs of the form ``("t", entry_index)`` or ``("s", bucket_id)``.
    ``delegated`` holds the buckets that root their own sub-BVH.
    """

    entries: list[tuple] = field(default_factory=list)
    delegated: list[int] = field(default_factory=list)


def plan_top_level(
    shard_vals: np.ndarray, shard_counts: np.ndarray, max_leaf_size: int
) -> _TopPlan:
    """Derive the top-level node table from per-bucket counts alone.

    Mirrors the single-tree recursion exactly: a range whose count fits a
    leaf becomes a (possibly bucket-spanning) leaf, a range inside one bucket
    delegates to that bucket's sub-builder, and every other range splits at
    its highest differing Morton bit — which, for ranges spanning two or more
    prefix buckets, is always a prefix bit and therefore computable from the
    bucket ids.
    """
    plan = _TopPlan()
    if shard_vals.shape[0] == 0:
        return plan
    stream_starts = np.cumsum(shard_counts) - shard_counts

    # (range over bucket indices, parent entry, which child slot); the root
    # gets a placeholder parent.  Children are resolved by patching the
    # parent entry once the child's id (or shard delegation) is known.
    stack: list[tuple[int, int, int, int]] = [(0, int(shard_vals.shape[0]), -1, 0)]
    range_counts = np.cumsum(shard_counts)

    def _emit(parent: int, slot: int, ref: tuple) -> None:
        if parent < 0:
            return
        kind, left_ref, right_ref = plan.entries[parent]
        if slot == 0:
            plan.entries[parent] = (kind, ref, right_ref)
        else:
            plan.entries[parent] = (kind, left_ref, ref)

    while stack:
        a, b, parent, slot = stack.pop()
        count = int(range_counts[b - 1] - (range_counts[a - 1] if a else 0))
        if count <= max_leaf_size:
            plan.entries.append(("leaf", int(stream_starts[a]), count))
            _emit(parent, slot, ("t", len(plan.entries) - 1))
            continue
        if b - a == 1:
            bucket = int(shard_vals[a])
            plan.delegated.append(bucket)
            _emit(parent, slot, ("s", bucket))
            continue
        first = int(shard_vals[a])
        last = int(shard_vals[b - 1])
        # Highest differing Morton bit of the range, expressed in bucket
        # space (different buckets always differ within the prefix).
        h = (first ^ last).bit_length() - 1
        prefix = first >> h
        pos = a + int(np.searchsorted(shard_vals[a:b] >> np.uint64(h), prefix, "right"))
        node = len(plan.entries)
        plan.entries.append(("inner", None, None))
        _emit(parent, slot, ("t", node))
        # Push right first so ids are allocated left-first like the builder
        # (the final numbering is recomputed globally either way).
        stack.append((pos, b, node, 1))
        stack.append((a, pos, node, 0))
    return plan


# --------------------------------------------------------------------------- #
# per-shard work
# --------------------------------------------------------------------------- #


def _sort_and_build(
    rows: np.ndarray,
    grid: np.ndarray,
    prim_mins: np.ndarray,
    prim_maxs: np.ndarray,
    options: BvhBuildOptions,
    *,
    build_tree: bool,
    sort: bool = True,
) -> tuple[np.ndarray, Bvh | None]:
    """Sort one bucket's rows by Morton code and optionally build its tree."""
    codes = morton_interleave_grid(grid[rows], options.morton_bits)
    if sort:
        order = np.argsort(codes, kind="stable")
        rows = rows[order]
        codes = codes[order]
    tree = None
    if build_tree:
        tree = build_lbvh_over_sorted(codes, prim_mins[rows], prim_maxs[rows], options)
    return rows, tree


def _row_stream(shard_vals: np.ndarray, shard_rows: dict[int, np.ndarray]) -> np.ndarray:
    """The shards' rows concatenated in bucket order: the stitched tree's
    ``prim_indices``."""
    if not shard_vals.size:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate([shard_rows[int(b)] for b in shard_vals])


def _checked_row_stream(
    shard_rows: dict[int, np.ndarray],
    shard_vals: np.ndarray,
    shard_counts: np.ndarray,
    bucket_of_row: np.ndarray,
) -> np.ndarray:
    """The row stream of persisted shards, required to partition the column.

    Every shard must hold as many rows as keys fall in its bucket, and every
    row must lie in ``[0, n)``, appear exactly once, and sit in the shard its
    recomputed Morton bucket names.  Checksums cannot catch a writer that
    emits the wrong rows, because it checksums what it wrote.  Raises
    :class:`ShardPartitionError` naming the first offending bucket.
    """
    for bucket, count in zip(shard_vals.tolist(), shard_counts.tolist()):
        held = int(shard_rows[bucket].shape[0])
        if held != count:
            raise ShardPartitionError(
                bucket, f"holds {held} rows, but {count} keys fall in its bucket"
            )
    rows_stream = _row_stream(shard_vals, shard_rows)
    n = int(bucket_of_row.shape[0])
    stream_starts = np.cumsum(shard_counts) - shard_counts

    def _reject(bad: np.ndarray, problem: str) -> None:
        positions = np.flatnonzero(bad)
        if positions.size:
            pos = int(positions[0])
            bucket = int(shard_vals[np.searchsorted(stream_starts, pos, "right") - 1])
            raise ShardPartitionError(bucket, f"row {int(rows_stream[pos])} {problem}")

    _reject((rows_stream < 0) | (rows_stream >= n), f"lies outside [0, {n})")
    # n in-range rows repeat one exactly when they miss another, so the
    # costly per-row gather only runs to name the bucket.
    seen = np.bincount(rows_stream, minlength=n)
    if not seen.all():
        _reject(seen[rows_stream] != 1, "appears more than once")
    _reject(
        bucket_of_row[rows_stream] != np.repeat(shard_vals.astype(np.int64), shard_counts),
        "belongs to another Morton bucket",
    )
    return rows_stream


# --------------------------------------------------------------------------- #
# stitching
# --------------------------------------------------------------------------- #


def _stitch(
    shard_vals: np.ndarray,
    shard_counts: np.ndarray,
    rows_stream: np.ndarray,
    shard_trees: dict[int, Bvh],
    plan: _TopPlan,
    prim_mins: np.ndarray,
    prim_maxs: np.ndarray,
    options: BvhBuildOptions,
) -> Bvh:
    """Assemble the global single tree from the top plan and shard sub-trees.

    ``rows_stream`` is :func:`_row_stream` of the shard rows.  Works in an
    intermediate numbering (top-level nodes first, shard blocks after), then
    renumbers to the stack-order DFS ids the single-tree builder emits — the
    output arrays are bit-identical to ``build_bvh`` with ``shard_bits=0``.
    """
    stream_starts = np.cumsum(shard_counts) - shard_counts
    start_of_bucket = {int(b): int(s) for b, s in zip(shard_vals, stream_starts)}
    n = int(rows_stream.shape[0])

    num_top = len(plan.entries)
    offsets: dict[int, int] = {}
    next_id = num_top
    for bucket in sorted(shard_trees):
        offsets[bucket] = next_id
        next_id += shard_trees[bucket].node_count
    if next_id == 0:
        # Non-empty inputs always yield at least one plan entry or one
        # delegated shard; both entry points reject zero primitives.
        raise ValueError("cannot stitch an empty forest")
    num_nodes = next_id

    left = np.full(num_nodes, -1, dtype=np.int64)
    right = np.full(num_nodes, -1, dtype=np.int64)
    first_prim = np.zeros(num_nodes, dtype=np.int64)
    prim_count = np.zeros(num_nodes, dtype=np.int64)
    node_mins = np.empty((num_nodes, 3), dtype=np.float32)
    node_maxs = np.empty((num_nodes, 3), dtype=np.float32)

    # Shard blocks: rebase child pointers by the block offset and leaf ranges
    # by the bucket's slice of the global primitive stream.
    for bucket, tree in shard_trees.items():
        off = offsets[bucket]
        sl = slice(off, off + tree.node_count)
        inner = tree.left >= 0
        left[sl] = np.where(inner, tree.left + off, -1)
        right[sl] = np.where(inner, tree.right + off, -1)
        # Only leaves reference the primitive stream; inner nodes keep the
        # builder's zero placeholder.
        first_prim[sl] = np.where(
            inner, tree.first_prim, tree.first_prim + start_of_bucket[bucket]
        )
        prim_count[sl] = tree.prim_count
        node_mins[sl] = tree.node_mins
        node_maxs[sl] = tree.node_maxs

    def _resolve(ref: tuple) -> int:
        return ref[1] if ref[0] == "t" else offsets[ref[1]]

    # Top leaves first (their bounds come straight from the primitives), then
    # inner bounds bottom-up — children always have larger entry ids, so one
    # reverse sweep suffices.
    for i, entry in enumerate(plan.entries):
        if entry[0] == "leaf":
            _, lo, count = entry
            first_prim[i] = lo
            prim_count[i] = count
            gathered = rows_stream[lo : lo + count]
            node_mins[i] = prim_mins[gathered].min(axis=0).astype(np.float32)
            node_maxs[i] = prim_maxs[gathered].max(axis=0).astype(np.float32)
    for i in range(num_top - 1, -1, -1):
        entry = plan.entries[i]
        if entry[0] != "inner":
            continue
        l = _resolve(entry[1])
        r = _resolve(entry[2])
        left[i] = l
        right[i] = r
        node_mins[i] = np.minimum(node_mins[l], node_mins[r])
        node_maxs[i] = np.maximum(node_maxs[l], node_maxs[r])

    levels: list[np.ndarray] = []
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        levels.append(frontier)
        inner = frontier[left[frontier] >= 0]
        if inner.size == 0:
            break
        frontier = np.concatenate([left[inner], right[inner]])

    perm = _dfs_renumbering(left, right, levels)
    out_mins = np.empty_like(node_mins)
    out_maxs = np.empty_like(node_maxs)
    out_left = np.empty_like(left)
    out_right = np.empty_like(right)
    out_first = np.empty_like(first_prim)
    out_count = np.empty_like(prim_count)
    safe_left = np.maximum(left, 0)
    safe_right = np.maximum(right, 0)
    out_left[perm] = np.where(left >= 0, perm[safe_left], -1)
    out_right[perm] = np.where(right >= 0, perm[safe_right], -1)
    out_first[perm] = first_prim
    out_count[perm] = prim_count
    out_mins[perm] = node_mins
    out_maxs[perm] = node_maxs
    bvh = Bvh(
        node_mins=out_mins,
        node_maxs=out_maxs,
        left=out_left,
        right=out_right,
        first_prim=out_first,
        prim_count=out_count,
        prim_indices=rows_stream,
        num_primitives=n,
        options=options,
    )
    bvh.build_stats = {
        "builder": options.builder,
        "num_primitives": n,
        "node_count": bvh.node_count,
        "leaf_count": bvh.leaf_count,
        "shards": int(shard_vals.shape[0]),
        "delegated_shards": len(shard_trees),
        "top_nodes": num_top,
    }
    return bvh


# --------------------------------------------------------------------------- #
# build + delta update
# --------------------------------------------------------------------------- #


def build_forest(
    primitive_buffer: PrimitiveBuffer, options: BvhBuildOptions | None = None
) -> BvhForest:
    """Build a sharded BVH forest over all primitives of ``primitive_buffer``.

    Requires ``options.shard_bits >= 1`` and the ``"lbvh"`` builder; the
    stitched ``forest.bvh`` is bit-identical to the single-tree
    :func:`repro.rtx.bvh.build_bvh` with the same options minus sharding.
    """
    options = options or BvhBuildOptions(shard_bits=4)
    options.validate()
    if options.shard_bits < 1:
        raise ValueError("build_forest requires shard_bits >= 1")
    prim_mins, prim_maxs = primitive_buffer.compute_aabbs()
    prim_mins = prim_mins.astype(np.float64)
    prim_maxs = prim_maxs.astype(np.float64)
    n = prim_mins.shape[0]
    if n == 0:
        raise ValueError("cannot build a BVH forest over zero primitives")

    centroids = 0.5 * (prim_mins + prim_maxs)
    grid, lo, hi = quantize_to_grid_with_bounds(centroids, options.morton_bits)
    bucket = morton_prefix_buckets(grid, options.morton_bits, options.shard_bits)

    num_buckets = 1 << options.shard_bits
    counts = np.bincount(bucket, minlength=num_buckets)
    group_order = np.argsort(bucket, kind="stable")
    starts = np.cumsum(counts) - counts
    shard_vals = np.flatnonzero(counts).astype(np.uint64)
    shard_counts = counts[shard_vals.astype(np.int64)]

    plan = plan_top_level(shard_vals, shard_counts, options.max_leaf_size)
    delegated = set(plan.delegated)

    shard_rows: dict[int, np.ndarray] = {}
    shard_trees: dict[int, Bvh] = {}
    for b in shard_vals.tolist():
        rows, tree = _sort_and_build(
            group_order[starts[b] : starts[b] + counts[b]],
            grid, prim_mins, prim_maxs, options,
            build_tree=b in delegated,
        )
        shard_rows[b] = rows
        if tree is not None:
            shard_trees[b] = tree

    bvh = _stitch(
        shard_vals, shard_counts, _row_stream(shard_vals, shard_rows), shard_trees,
        plan, prim_mins, prim_maxs, options,
    )
    return BvhForest(
        bvh=bvh,
        options=options,
        num_primitives=n,
        scene_lo=lo,
        scene_hi=hi,
        bucket_of_row=bucket,
        shard_ids=shard_vals.astype(np.int64),
        shard_rows=shard_rows,
        shard_trees=shard_trees,
    )


def forest_state_segments(forest: BvhForest):
    """Yield ``(bucket, arrays, meta)`` per non-empty shard — the persisted
    form of a forest.

    Only the per-shard *sort outputs* (global rows in code order) and
    *build outputs* (sub-tree arrays, for delegated buckets) are persisted.
    Everything else a :class:`BvhForest` carries — the Morton grid, the
    bucket partition, the top-level plan and the stitched global tree — is
    a cheap deterministic pass over the key column and is recomputed at
    load time by :func:`forest_from_saved`, which keeps an incremental save
    after a delta update proportional to the dirty shards instead of O(n).
    """
    for bucket in sorted(forest.shard_rows):
        arrays: dict[str, np.ndarray] = {
            "rows": np.ascontiguousarray(forest.shard_rows[bucket], dtype=np.int64)
        }
        tree = forest.shard_trees.get(bucket)
        meta = {"bucket": int(bucket), "delegated": tree is not None}
        if tree is not None:
            for name in BVH_ARRAY_FIELDS:
                arrays[name] = np.ascontiguousarray(getattr(tree, name))
        yield bucket, arrays, meta


def forest_from_saved(
    primitive_buffer: PrimitiveBuffer,
    options: BvhBuildOptions,
    shard_rows: dict[int, np.ndarray],
    shard_tree_arrays: dict[int, dict[str, np.ndarray]],
) -> BvhForest:
    """Rebuild a :class:`BvhForest` from persisted shard state.

    Recomputes the grid, bucket partition and top-level plan from the
    primitive buffer (deterministic, so they match the saved build
    exactly), wraps the persisted sub-tree arrays, and re-stitches — the
    resulting ``forest.bvh`` is bit-identical to the tree that was saved,
    and the forest is delta-updatable like a freshly built one.  The O(n
    log n) per-shard sorts and the per-shard tree builds — the expensive
    parts — are exactly what the persisted state skips.
    """
    options.validate()
    prim_mins, prim_maxs = primitive_buffer.compute_aabbs()
    prim_mins = prim_mins.astype(np.float64)
    prim_maxs = prim_maxs.astype(np.float64)
    n = prim_mins.shape[0]
    if n == 0:
        raise ValueError("cannot restore a BVH forest over zero primitives")

    centroids = 0.5 * (prim_mins + prim_maxs)
    grid, lo, hi = quantize_to_grid_with_bounds(centroids, options.morton_bits)
    bucket = morton_prefix_buckets(grid, options.morton_bits, options.shard_bits)
    num_buckets = 1 << options.shard_bits
    counts = np.bincount(bucket, minlength=num_buckets)
    shard_vals = np.flatnonzero(counts).astype(np.uint64)
    shard_counts = counts[shard_vals.astype(np.int64)]
    plan = plan_top_level(shard_vals, shard_counts, options.max_leaf_size)

    saved = {int(b) for b in shard_rows}
    expected = {int(b) for b in shard_vals.tolist()}
    if saved != expected:
        raise ShardPartitionError(
            min(saved ^ expected),
            "the persisted shard set does not match the Morton partition "
            "recomputed from the key column",
        )
    saved_trees = {int(b) for b in shard_tree_arrays}
    if saved_trees != set(plan.delegated):
        raise ShardPartitionError(
            min(saved_trees ^ set(plan.delegated)),
            "the persisted delegated-shard set does not match the recomputed "
            "top-level plan",
        )

    rows: dict[int, np.ndarray] = {int(b): r for b, r in shard_rows.items()}
    rows_stream = _checked_row_stream(rows, shard_vals, shard_counts, bucket)
    trees: dict[int, Bvh] = {}
    for b, arrays in shard_tree_arrays.items():
        count = int(rows[int(b)].shape[0])
        trees[int(b)] = Bvh(
            node_mins=arrays["node_mins"],
            node_maxs=arrays["node_maxs"],
            left=arrays["left"],
            right=arrays["right"],
            first_prim=arrays["first_prim"],
            prim_count=arrays["prim_count"],
            prim_indices=arrays["prim_indices"],
            num_primitives=count,
            options=options,
        )
    bvh = _stitch(
        shard_vals, shard_counts, rows_stream, trees, plan, prim_mins, prim_maxs, options
    )
    return BvhForest(
        bvh=bvh,
        options=options,
        num_primitives=n,
        scene_lo=lo,
        scene_hi=hi,
        bucket_of_row=bucket,
        shard_ids=shard_vals.astype(np.int64),
        shard_rows=rows,
        shard_trees=trees,
    )


def delta_update_forest(
    forest: BvhForest,
    old_buffer: PrimitiveBuffer,
    new_buffer: PrimitiveBuffer,
) -> tuple[BvhForest, DeltaUpdateStats]:
    """Bring a forest up to date with moved/added/removed primitives.

    Only shards whose primitive membership or geometry changed are re-sorted
    and rebuilt; clean shards reuse their sorted rows and sub-trees (rebased
    into the new stream during stitching).  Returns the updated forest —
    whose ``bvh`` is bit-identical to a from-scratch build over
    ``new_buffer`` — plus statistics of the work performed.  A no-op update
    (nothing changed) returns the original forest untouched.
    """
    options = forest.options
    num_buckets = 1 << options.shard_bits

    new_mins, new_maxs = new_buffer.compute_aabbs()
    new_mins = new_mins.astype(np.float64)
    new_maxs = new_maxs.astype(np.float64)
    n_new = new_mins.shape[0]
    if n_new == 0:
        raise ValueError("cannot delta-update a forest to zero primitives")
    centroids = 0.5 * (new_mins + new_maxs)
    grid, lo, hi = quantize_to_grid_with_bounds(centroids, options.morton_bits)

    def _full_rebuild(rescaled: bool) -> tuple[BvhForest, DeltaUpdateStats]:
        rebuilt = build_forest(new_buffer, options)
        stats = DeltaUpdateStats(
            total_shards=num_buckets,
            non_empty_shards=rebuilt.non_empty_shards,
            dirty_shards=rebuilt.non_empty_shards,
            rebuilt_trees=rebuilt.delegated_shards,
            dirty_keys=n_new,
            total_keys=n_new,
            rescaled=rescaled,
        )
        return rebuilt, stats

    if not (
        np.array_equal(lo, forest.scene_lo) and np.array_equal(hi, forest.scene_hi)
    ):
        # The global grid moved: every Morton code is re-quantised, so no
        # shard content can be trusted.
        return _full_rebuild(rescaled=True)

    bucket = morton_prefix_buckets(grid, options.morton_bits, options.shard_bits)
    old_mins, old_maxs = old_buffer.compute_aabbs()
    old_mins = old_mins.astype(np.float64)
    old_maxs = old_maxs.astype(np.float64)
    n_old = forest.num_primitives
    common = min(n_old, n_new)

    changed = (new_mins[:common] != old_mins[:common]).any(axis=1)
    changed |= (new_maxs[:common] != old_maxs[:common]).any(axis=1)
    dirty = np.zeros(num_buckets, dtype=bool)
    if changed.any():
        dirty[forest.bucket_of_row[:common][changed]] = True
        dirty[bucket[:common][changed]] = True
    if n_old > common:
        dirty[forest.bucket_of_row[common:]] = True
    if n_new > common:
        dirty[bucket[common:]] = True

    counts = np.bincount(bucket, minlength=num_buckets)
    shard_vals = np.flatnonzero(counts).astype(np.uint64)
    shard_counts = counts[shard_vals.astype(np.int64)]
    dirty_ids = np.flatnonzero(dirty)
    if dirty_ids.size == 0:
        return forest, DeltaUpdateStats(
            total_shards=num_buckets,
            non_empty_shards=forest.non_empty_shards,
            dirty_shards=0,
            rebuilt_trees=0,
            dirty_keys=0,
            total_keys=n_new,
            noop=True,
        )

    plan = plan_top_level(shard_vals, shard_counts, options.max_leaf_size)
    delegated = set(plan.delegated)

    # Group the rows of dirty buckets in one stable pass.
    dirty_row_mask = dirty[bucket]
    dirty_rows = np.flatnonzero(dirty_row_mask)
    grouped = dirty_rows[np.argsort(bucket[dirty_rows], kind="stable")]
    group_counts = np.bincount(bucket[dirty_rows], minlength=num_buckets)
    group_starts = np.cumsum(group_counts) - group_counts

    shard_rows = {
        b: rows
        for b, rows in forest.shard_rows.items()
        if not dirty[b] and counts[b] > 0
    }
    shard_trees = {
        b: tree
        for b, tree in forest.shard_trees.items()
        if not dirty[b] and b in delegated
    }
    rebuilt_trees = 0
    for b in dirty_ids.tolist():
        if group_counts[b] == 0:
            continue  # bucket emptied out; nothing to sort or build
        rows, tree = _sort_and_build(
            grouped[group_starts[b] : group_starts[b] + group_counts[b]],
            grid, new_mins, new_maxs, options,
            build_tree=b in delegated,
        )
        shard_rows[b] = rows
        if tree is not None:
            shard_trees[b] = tree
            rebuilt_trees += 1
    # Clean buckets that the new top plan delegates but that previously had
    # no sub-tree (they were absorbed into a mixed leaf): build their tree
    # from the stored, still-sorted rows.
    for b in delegated:
        if not dirty[b] and b not in forest.shard_trees:
            _, shard_trees[b] = _sort_and_build(
                shard_rows[b], grid, new_mins, new_maxs, options,
                build_tree=True, sort=False,
            )
            rebuilt_trees += 1

    bvh = _stitch(
        shard_vals, shard_counts, _row_stream(shard_vals, shard_rows), shard_trees,
        plan, new_mins, new_maxs, options,
    )
    updated = BvhForest(
        bvh=bvh,
        options=options,
        num_primitives=n_new,
        scene_lo=lo,
        scene_hi=hi,
        bucket_of_row=bucket,
        shard_ids=shard_vals.astype(np.int64),
        shard_rows=shard_rows,
        shard_trees=shard_trees,
    )
    stats = DeltaUpdateStats(
        total_shards=num_buckets,
        non_empty_shards=updated.non_empty_shards,
        dirty_shards=int(dirty_ids.size),
        rebuilt_trees=rebuilt_trees,
        dirty_keys=int(dirty_rows.size),
        total_keys=n_new,
    )
    return updated, stats

