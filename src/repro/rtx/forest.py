"""Morton-prefix sharded BVH forest: the structure behind delta-shard updates.

The forest partitions primitives by the top ``shard_bits`` bits of their
Morton codes into ``2**shard_bits`` buckets.  The LBVH splits every range at
its highest differing Morton bit, so rows of different buckets separate on
one of the top ``shard_bits`` levels, and the single tree
:func:`repro.rtx.bvh.build_bvh` emits is a small top-level node table
(:func:`plan_top_level` derives it from per-bucket counts alone) over one
sub-BVH per bucket.  A range whose count fits one leaf stays a leaf even
when it spans buckets; such *mixed leaves* absorb their buckets, which keep
their rows but carry no sub-tree.

A forest is that one tree plus bookkeeping.  :func:`build_forest` runs the
one LBVH build over the per-axis columns of one full pass (:func:`_column`:
boxes, grid and the :class:`_Partition` they give) and *cuts* it: each
bucket's rows are its slice of ``prim_indices``, and each delegated
bucket's sub-BVH is copied out in local numbering.  :func:`forest_from_saved`
and :func:`delta_update_forest` *splice* shard sub-trees (persisted ones, or
clean ones beside freshly rebuilt dirty ones) back into a tree
bit-identical to the single build.

Both directions rest on the builder's numbering: the k-th inner node in
right-first preorder gets the children ``2k + 1`` and ``2k + 2``.  So a
child's id exceeds its parent's, ``right == left + 1``, and a subtree is its
root plus one contiguous block: a shard whose root is inner node ``p`` in
that order and which has ``m`` inner nodes holds the ids ``[2p + 1, 2p +
2m]``, and its local id ``i >= 1`` is global ``i + 2p`` (its *block
offset*).  :func:`_layout` walks the top plan in that order and places every
top node and shard block, so neither direction renumbers the tree.

An update compares the buffers' stored arrays once, and only the rows
that left or entered get boxes, grid cells and buckets.  The partition is
patched from those rows, and only the shards that gained, lost or moved a
primitive are re-sorted and rebuilt.  The rest is copying: the patched
bucket column, the row stream and the splice's node arrays.  An update
that changes nothing rebuilds nothing, and only a move of the scene bounds
(or a doubt about one) pays a full pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Iterable

import numpy as np

from repro.rtx.bvh import (
    BVH_ARRAY_FIELDS,
    Bvh,
    BvhBuildOptions,
    box_columns,
    build_lbvh_over_sorted,
    bvh_from_arrays,
    centroid_columns,
    sort_codes,
)
from repro.rtx.geometry import PrimitiveBuffer
from repro.rtx.morton import (
    morton_interleave_grid,
    morton_prefix_buckets,
    quantize_to_grid,
    quantize_to_grid_with_bounds,
    require_finite,
)


class ShardPartitionError(ValueError):
    """Persisted shard state that does not match the recomputed partition,
    or a shard tree the splice cannot place."""

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
    """The single tree plus the per-shard bookkeeping delta updates need.

    ``bvh`` is bit-identical to the single-tree ``build_bvh`` output; the
    remaining fields let an update find and reuse clean shards and let a
    save write one segment per shard.
    """

    bvh: Bvh
    options: BvhBuildOptions
    num_primitives: int
    #: bounds of the centroid cloud that defined the global Morton grid
    scene_lo: np.ndarray
    scene_hi: np.ndarray
    #: Morton-prefix bucket of every primitive row
    bucket_of_row: np.ndarray
    #: non-empty bucket ids, ascending
    shard_ids: np.ndarray
    #: per non-empty bucket: its global rows in code order, a view of its
    #: slice of ``bvh.prim_indices``
    shard_rows: dict[int, np.ndarray]
    #: per *delegated* bucket: its sub-BVH in shard-local numbering
    shard_trees: dict[int, Bvh]

    @property
    def non_empty_shards(self) -> int:
        return int(self.shard_ids.shape[0])

    @property
    def delegated_shards(self) -> int:
        return len(self.shard_trees)


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
    bucket ids.  Entries are listed parent before children, which lets the
    splice bound them in one reverse sweep; node ids come from
    :func:`_layout`.
    """
    plan = _TopPlan()
    stream_starts = np.cumsum(shard_counts) - shard_counts
    range_counts = np.cumsum(shard_counts)

    def _node(a: int, b: int) -> tuple:
        """The ref of the node over the bucket indices ``[a, b)``; every
        split is at a prefix bit, so the recursion is at most
        ``shard_bits`` deep."""
        count = int(range_counts[b - 1] - (range_counts[a - 1] if a else 0))
        if count <= max_leaf_size:
            plan.entries.append(("leaf", int(stream_starts[a]), count))
            return ("t", len(plan.entries) - 1)
        if b - a == 1:
            plan.delegated.append(int(shard_vals[a]))
            return ("s", int(shard_vals[a]))
        first = int(shard_vals[a])
        last = int(shard_vals[b - 1])
        # Highest differing Morton bit of the range, expressed in bucket
        # space (different buckets always differ within the prefix).
        h = (first ^ last).bit_length() - 1
        pos = a + int(np.searchsorted(shard_vals[a:b] >> np.uint64(h), first >> h, "right"))
        node = len(plan.entries)
        plan.entries.append(None)
        plan.entries[node] = ("inner", _node(a, pos), _node(pos, b))
        return ("t", node)

    if shard_vals.shape[0]:
        _node(0, int(shard_vals.shape[0]))
    return plan


def _layout(
    plan: _TopPlan, inner_counts: dict[int, int]
) -> tuple[list[int], dict[int, int], dict[int, int], int]:
    """Node ids of the tree made of ``plan`` and its delegated shards.

    Walks the plan in the builder's right-first preorder, handing the k-th
    inner node the children ``2k + 1`` and ``2k + 2``; a delegated shard
    consumes ``inner_counts[bucket]`` inner positions in one go.  Returns
    the global id of every plan entry, every delegated shard's root id and
    block offset (its local id ``i >= 1`` is global ``i + offset``), and the
    total node count.
    """
    entry_ids = [0] * len(plan.entries)
    roots: dict[int, int] = {}
    offsets: dict[int, int] = {}
    inner_seen = 0
    root = ("t", 0) if plan.entries else ("s", plan.delegated[0])
    stack = [(root, 0)]
    while stack:
        (kind, ref), node = stack.pop()
        if kind == "s":
            roots[ref] = node
            offsets[ref] = 2 * inner_seen
            inner_seen += inner_counts[ref]
            continue
        entry_ids[ref] = node
        entry = plan.entries[ref]
        if entry[0] == "inner":
            # The right child is popped first, as in the builder.
            stack.append((entry[1], 2 * inner_seen + 1))
            stack.append((entry[2], 2 * inner_seen + 2))
            inner_seen += 1
    return entry_ids, roots, offsets, 2 * inner_seen + 1


@dataclass
class _Partition:
    """The Morton partition of a primitive column and the top plan it gives."""

    scene_lo: np.ndarray
    scene_hi: np.ndarray
    #: Morton-prefix bucket of every row
    bucket: np.ndarray
    #: non-empty buckets, ascending, and their row counts
    shard_vals: np.ndarray
    shard_counts: np.ndarray
    plan: _TopPlan

    @property
    def stream_starts(self) -> np.ndarray:
        """Where each non-empty bucket's rows start in the row stream."""
        return np.cumsum(self.shard_counts) - self.shard_counts

    def index_of(self, buckets: list[int]) -> np.ndarray:
        """Positions of ``buckets`` among the non-empty buckets."""
        return np.searchsorted(self.shard_vals, np.array(buckets, dtype=np.uint64))


def _partition(
    lo: np.ndarray, hi: np.ndarray, bucket: np.ndarray, counts: np.ndarray, options: BvhBuildOptions
) -> _Partition:
    """The partition with per-bucket row ``counts`` (one entry per bucket)."""
    shard_vals = np.flatnonzero(counts).astype(np.uint64)
    shard_counts = counts[shard_vals.astype(np.int64)]
    plan = plan_top_level(shard_vals, shard_counts, options.max_leaf_size)
    return _Partition(lo, hi, bucket, shard_vals, shard_counts, plan)


def _column(
    buffer: PrimitiveBuffer, options: BvhBuildOptions, verb: str
) -> tuple[_Partition, np.ndarray, np.ndarray, np.ndarray]:
    """The full pass over ``buffer``: its partition, then its ``(3, n)`` box
    and grid columns (whose ``.T`` views are the ``(n, 3)`` inputs the
    Morton and build functions read fastest).  A primitive with a
    non-finite bound raises ``ValueError``."""
    prim_mins, prim_maxs = box_columns(buffer)
    if prim_mins.shape[1] == 0:
        raise ValueError(f"cannot {verb} a BVH forest over zero primitives")
    grid, lo, hi = quantize_to_grid_with_bounds(
        centroid_columns(prim_mins, prim_maxs).T, options.morton_bits
    )
    bucket = morton_prefix_buckets(grid, options.morton_bits, options.shard_bits)
    counts = np.bincount(bucket, minlength=1 << options.shard_bits)
    return _partition(lo, hi, bucket, counts, options), prim_mins, prim_maxs, grid.T


def _forest(
    part: _Partition, options: BvhBuildOptions, bvh: Bvh, shard_trees: dict[int, Bvh]
) -> BvhForest:
    """Wrap a tree and its shard trees; each shard's rows become a view of
    its slice of the tree's ``prim_indices``."""
    stream = bvh.prim_indices
    shard_rows = {
        b: stream[start : start + count]
        for b, start, count in zip(
            part.shard_vals.tolist(), part.stream_starts.tolist(), part.shard_counts.tolist()
        )
    }
    return BvhForest(
        bvh=bvh,
        options=options,
        num_primitives=bvh.num_primitives,
        scene_lo=part.scene_lo,
        scene_hi=part.scene_hi,
        bucket_of_row=part.bucket,
        shard_ids=part.shard_vals.astype(np.int64),
        shard_rows=shard_rows,
        shard_trees=shard_trees,
    )


# --------------------------------------------------------------------------- #
# cut (tree -> shards) and splice (shards -> tree)
# --------------------------------------------------------------------------- #


def _cut(bvh: Bvh, part: _Partition) -> dict[int, Bvh]:
    """Copy each delegated shard's sub-tree out of ``bvh``, in local numbering.

    Child ids lose the shard's block offset, leaf ranges its stream start,
    and ``prim_indices`` becomes ``0..rows-1``: the arrays
    ``build_lbvh_over_sorted`` emits over the shard's code-sorted rows.
    """
    buckets = sorted(part.plan.delegated)
    if not buckets:
        return {}
    which = part.index_of(buckets)
    stream_starts = part.stream_starts
    # A shard's leaves tile its rows, and it has one inner node fewer.
    leaf_shard = np.searchsorted(stream_starts, bvh.first_prim[bvh.left < 0], "right") - 1
    inner = np.bincount(leaf_shard, minlength=stream_starts.shape[0])[which] - 1
    sizes = 2 * inner + 1
    _, roots, offsets, _ = _layout(part.plan, dict(zip(buckets, inner.tolist())))

    # The global id of every shard node in local order: root, then block.
    block_starts = np.cumsum(sizes) - sizes
    offset = np.repeat([offsets[b] for b in buckets], sizes)
    ids = offset + np.arange(offset.shape[0]) - np.repeat(block_starts, sizes)
    ids[block_starts] = [roots[b] for b in buckets]
    left = bvh.left[ids]
    is_inner = left >= 0
    local = {
        "left": np.where(is_inner, left - offset, -1),
        "right": np.where(is_inner, bvh.right[ids] - offset, -1),
        "first_prim": bvh.first_prim[ids]
        - np.where(is_inner, 0, np.repeat(stream_starts[which], sizes)),
        "prim_count": bvh.prim_count[ids],
        "node_mins": np.take(bvh.node_mins, ids, axis=0),
        "node_maxs": np.take(bvh.node_maxs, ids, axis=0),
    }
    rows = part.shard_counts[which].tolist()
    local_rows = np.arange(max(rows), dtype=np.int64)
    trees: dict[int, Bvh] = {}
    for b, lo, k, count in zip(buckets, block_starts.tolist(), sizes.tolist(), rows):
        arrays = {name: array[lo : lo + k] for name, array in local.items()}
        arrays["prim_indices"] = local_rows[:count]
        trees[b] = bvh_from_arrays(arrays, count, bvh.options)
    return trees


#: the node arrays of a shard tree: name, dtype and shape after the length
_NODE_ARRAYS = (
    ("left", np.int64, ()),
    ("right", np.int64, ()),
    ("first_prim", np.int64, ()),
    ("prim_count", np.int64, ()),
    ("node_mins", np.float32, (3,)),
    ("node_maxs", np.float32, (3,)),
)


def _checked_sizes(buckets: list[int], trees: list[Bvh], rows: np.ndarray) -> np.ndarray:
    """Node count of each shard tree, after requiring a tree the splice can
    place.

    The topology arrays must be int64 of shape ``(k,)`` and the boxes
    float32 of shape ``(k, 3)``, with ``k`` odd and at least 3.  Exactly
    ``(k - 1) / 2`` nodes are inner, their left children are the odd ids
    ``1..k-2``, each used once, ``right == left + 1``, and every child id is
    above its parent's: so every node but the root has one parent with a
    smaller id, and the root reaches each node once.  The leaves tile
    ``[0, rows)``.  A failure raises :class:`ShardPartitionError`.  It runs
    once, where persisted trees enter the process (:func:`forest_from_saved`).

    The child and leaf checks read the inner nodes and the leaves apart,
    and "each used once" and the tiling are proven by bool scatters; the
    exact per-node counts run only to name the node or row that fails.
    """
    sizes = np.empty(len(buckets), dtype=np.int64)
    for i, (bucket, tree) in enumerate(zip(buckets, trees)):
        k = tree.left.shape[0] if tree.left.ndim else 0
        for name, dtype, tail in _NODE_ARRAYS:
            array = getattr(tree, name)
            if array.dtype != dtype or array.shape != (k, *tail):
                raise ShardPartitionError(
                    bucket,
                    f"tree array {name} is {array.dtype} {array.shape}, "
                    f"not {np.dtype(dtype)} {(k, *tail)}",
                )
        if k < 3 or k % 2 == 0:
            raise ShardPartitionError(bucket, f"tree has {k} nodes, not an odd count >= 3")
        sizes[i] = k
    if not buckets:
        return sizes

    # The remaining checks run once over all shards' arrays, concatenated.
    left, right, first, count = (
        np.concatenate([getattr(tree, name) for tree in trees])
        for name in ("left", "right", "first_prim", "prim_count")
    )
    block_starts = np.cumsum(sizes) - sizes

    def _reject(bad: np.ndarray, problem, at=None, starts: np.ndarray = block_starts) -> None:
        """Raise ``problem(i, shard)`` at the first flagged position ``i``
        (``at[j]`` when ``bad`` flags the positions ``at``)."""
        hit = np.flatnonzero(bad)
        if hit.size:
            i = int(hit[0] if at is None else at[hit[0]])
            s = int(np.searchsorted(starts, i, "right")) - 1
            raise ShardPartitionError(buckets[s], problem(i, s))

    def local(i: int, s: int) -> int:
        return i - int(block_starts[s])

    is_inner = left >= 0
    inner_counts = np.add.reduceat(is_inner, block_starts, dtype=np.int64)
    wrong = np.flatnonzero(inner_counts != sizes // 2)
    if wrong.size:
        s = int(wrong[0])
        raise ShardPartitionError(
            buckets[s], f"tree has {inner_counts[s]} inner nodes, not {sizes[s] // 2}"
        )
    # Every shard now has sizes // 2 inner nodes and one leaf more.
    inner = np.flatnonzero(is_inner)
    base = np.repeat(block_starts, sizes // 2)
    child = left[inner]
    _reject(
        ((child & 1) == 0)
        | (child <= inner - base)
        | (child > np.repeat(sizes - 2, sizes // 2))
        | (right[inner] != child + 1),
        lambda i, s: f"tree node {local(i, s)} has children ({left[i]}, {right[i]}), "
        f"not an odd id in ({local(i, s)}, {sizes[s] - 1}) and the next one",
        at=inner,
    )
    child += base
    used = np.zeros(left.shape[0], dtype=bool)
    used[child] = True
    if np.count_nonzero(used) != child.shape[0]:
        parents = np.bincount(child, minlength=left.shape[0])
        _reject(parents > 1, lambda i, s: f"tree node {local(i, s)} has {parents[i]} parents")

    leaves = np.flatnonzero(~is_inner)
    leaf_rows = np.repeat(rows, sizes // 2 + 1)
    lo, span = first[leaves], count[leaves]
    _reject(
        (span < 1) | (lo < 0) | (lo > leaf_rows - span),
        lambda i, s: f"tree leaf {local(i, s)} holds rows [{first[i]}, "
        f"{int(first[i]) + int(count[i])}), not a non-empty range of its {rows[s]} rows",
        at=leaves,
    )
    # Laid end to end (``row_starts``), the shards' leaves tile ``[0,
    # total)`` exactly when some leaf starts at row 0, every leaf ends
    # where a leaf starts or at ``total``, and the leaves are ``total``
    # rows long between them: sorted by start, each leaf then reaches at
    # least the next start, so the lengths cover ``[0, total)`` and only
    # add up to ``total`` with no leaf shared, overlapping or over-long.
    # Each leaf lies inside its own shard, so each shard is tiled by its own.
    row_starts = np.cumsum(rows) - rows
    total = int(rows.sum())
    lo += np.repeat(row_starts, sizes // 2 + 1)
    is_start = np.zeros(total + 1, dtype=bool)
    is_start[lo] = True
    is_start[total] = True
    if not (is_start[0] and int(span.sum()) == total and is_start[lo + span].all()):
        held = np.cumsum(
            np.bincount(lo, minlength=total + 1) - np.bincount(lo + span, minlength=total + 1)
        )[:total]
        _reject(
            held != 1,
            lambda i, s: f"{held[i]} tree leaves hold its row {i - row_starts[s]}, not one",
            starts=row_starts,
        )
    return sizes


def _splice(
    part: _Partition,
    options: BvhBuildOptions,
    buffer: PrimitiveBuffer,
    rows_stream: np.ndarray,
    shard_trees: dict[int, Bvh],
) -> BvhForest:
    """Place the shard sub-trees and the top plan into one tree's arrays.

    ``rows_stream`` is the shards' rows concatenated in bucket order; it
    becomes ``prim_indices``.  Each delegated shard's local arrays are
    written at its root id and block (:func:`_layout`), the top leaves are
    bounded from the boxes of their few rows in ``buffer``, and the top
    inner nodes are filled bottom-up.  The tree is bit-identical to
    ``build_bvh`` over the same primitives.  Block offsets come from the
    trees' node counts, so a malformed tree would write into its
    neighbours' blocks: persisted trees passed :func:`_checked_sizes` at
    load, and trees built in this process are trusted unchecked.
    """
    buckets = sorted(shard_trees)
    trees = [shard_trees[b] for b in buckets]
    which = part.index_of(buckets)
    sizes = np.array([tree.left.shape[0] for tree in trees], dtype=np.int64)
    entry_ids, roots, offsets, num_nodes = _layout(
        part.plan, dict(zip(buckets, (sizes // 2).tolist()))
    )

    left, right = np.full((2, num_nodes), -1, dtype=np.int64)
    first_prim, prim_count = np.zeros((2, num_nodes), dtype=np.int64)
    node_mins, node_maxs = np.empty((2, num_nodes, 3), dtype=np.float32)
    starts = part.stream_starts[which].tolist()
    for b, tree, k, start in zip(buckets, trees, sizes.tolist(), starts):
        root, offset = roots[b], offsets[b]
        is_inner = tree.left >= 0
        for out, local in (
            (left, np.where(is_inner, tree.left + offset, -1)),
            (right, np.where(is_inner, tree.right + offset, -1)),
            (first_prim, np.where(is_inner, 0, tree.first_prim + start)),
            (prim_count, tree.prim_count),
            (node_mins, tree.node_mins),
            (node_maxs, tree.node_maxs),
        ):
            out[root] = local[0]
            out[offset + 1 : offset + k] = local[1:]

    def _node(ref: tuple) -> int:
        return entry_ids[ref[1]] if ref[0] == "t" else roots[ref[1]]

    # The top leaves' rows, laid end to end in entry order, get boxes in
    # one call.
    leaf_rows = [rows_stream[:0]] + [
        rows_stream[lo : lo + count] for kind, lo, count in part.plan.entries if kind == "leaf"
    ]
    leaf_mins, leaf_maxs = box_columns(buffer, np.concatenate(leaf_rows))
    end = leaf_mins.shape[1]

    # Children always have larger entry indices, so one reverse sweep
    # bounds every top node after its children.
    for i in range(len(part.plan.entries) - 1, -1, -1):
        entry, node = part.plan.entries[i], entry_ids[i]
        if entry[0] == "leaf":
            _, lo, count = entry
            first_prim[node] = lo
            prim_count[node] = count
            node_mins[node] = leaf_mins[:, end - count : end].min(axis=1)
            node_maxs[node] = leaf_maxs[:, end - count : end].max(axis=1)
            end -= count
        else:
            l, r = _node(entry[1]), _node(entry[2])
            left[node] = l
            right[node] = r
            node_mins[node] = np.minimum(node_mins[l], node_mins[r])
            node_maxs[node] = np.maximum(node_maxs[l], node_maxs[r])

    bvh = Bvh(
        node_mins=node_mins,
        node_maxs=node_maxs,
        left=left,
        right=right,
        first_prim=first_prim,
        prim_count=prim_count,
        prim_indices=rows_stream,
        num_primitives=int(rows_stream.shape[0]),
        options=options,
    )
    return _forest(part, options, bvh, shard_trees)


# --------------------------------------------------------------------------- #
# build, save, load, delta update
# --------------------------------------------------------------------------- #


def build_forest(
    primitive_buffer: PrimitiveBuffer, options: BvhBuildOptions | None = None
) -> BvhForest:
    """Build a sharded BVH forest over all primitives of ``primitive_buffer``.

    Requires ``options.shard_bits >= 1`` and the ``"lbvh"`` builder.  Runs
    one sort and one LBVH build — ``forest.bvh`` is exactly what
    :func:`repro.rtx.bvh.build_bvh` emits — and then cuts the tree into its
    shards: rows are slices of ``prim_indices``, and each delegated shard's
    sub-tree is copied out in local numbering.
    """
    options = options or BvhBuildOptions(shard_bits=4)
    options.validate()
    if options.shard_bits < 1:
        raise ValueError("build_forest requires shard_bits >= 1")
    return _build(*_column(primitive_buffer, options, "build"), options)


def _build(
    part: _Partition,
    prim_mins: np.ndarray,
    prim_maxs: np.ndarray,
    grid: np.ndarray,
    options: BvhBuildOptions,
) -> BvhForest:
    """The one sort and LBVH build over a full pass's columns, cut into shards."""
    codes = morton_interleave_grid(grid.T, options.morton_bits)
    order, sorted_codes = sort_codes(codes)
    bvh = build_lbvh_over_sorted(sorted_codes, prim_mins.T, prim_maxs.T, options, order=order)
    return _forest(part, options, bvh, _cut(bvh, part))


def forest_state_segments(forest: BvhForest):
    """Yield ``(bucket, arrays, meta)`` per non-empty shard — the persisted
    form of a forest.

    Only each shard's rows in code order and, for delegated buckets, its
    sub-tree arrays in local numbering are persisted.  The Morton grid, the
    bucket partition, the top-level plan and the tree are a deterministic
    pass over the key column that :func:`forest_from_saved` recomputes, so
    a save after a delta update rewrites only the dirty shards.
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


def _checked_row_stream(rows: dict[int, np.ndarray], part: _Partition) -> np.ndarray:
    """The row stream of persisted shards, required to partition the column.

    Every shard's rows must be an int64 ``(count,)`` array, ``count`` being
    the number of keys that fall in its bucket, and every row must lie in
    ``[0, n)``, appear exactly once, and sit in the shard its recomputed
    Morton bucket names.  Checksums cannot catch a writer that emits the
    wrong rows, because it checksums what it wrote.  Raises
    :class:`ShardPartitionError` naming the first offending bucket.

    The checks are two reductions, a bool scatter and a gather of the
    buckets in their narrowest dtype (uint16 at most); the per-row scans
    run only to name the row that fails.
    """
    shard_vals = part.shard_vals
    for bucket, count in zip(shard_vals.tolist(), part.shard_counts.tolist()):
        array = rows[bucket]
        if array.dtype != np.int64 or array.ndim != 1:
            raise ShardPartitionError(
                bucket, f"rows array is {array.dtype} {array.shape}, not int64 ({count},)"
            )
        if array.shape[0] != count:
            raise ShardPartitionError(
                bucket, f"holds {array.shape[0]} rows, but {count} keys fall in its bucket"
            )
    rows_stream = np.concatenate([rows[b] for b in shard_vals.tolist()])
    n = int(part.bucket.shape[0])
    stream_starts = part.stream_starts

    def _reject(bad: np.ndarray, problem: str) -> None:
        positions = np.flatnonzero(bad)
        if positions.size:
            pos = int(positions[0])
            bucket = int(shard_vals[np.searchsorted(stream_starts, pos, "right") - 1])
            raise ShardPartitionError(bucket, f"row {int(rows_stream[pos])} {problem}")

    if rows_stream.min() < 0 or rows_stream.max() >= n:
        _reject((rows_stream < 0) | (rows_stream >= n), f"lies outside [0, {n})")
    # n in-range rows repeat one exactly when they miss another, so the
    # exact per-row count only runs to name the bucket.
    seen = np.zeros(n, dtype=bool)
    seen[rows_stream] = True
    if not seen.all():
        _reject(np.bincount(rows_stream, minlength=n)[rows_stream] != 1, "appears more than once")
    narrow = np.min_scalar_type(int(shard_vals[-1]))
    found = part.bucket.astype(narrow)[rows_stream]
    expected = np.repeat(shard_vals.astype(narrow), part.shard_counts)
    if not np.array_equal(found, expected):
        _reject(found != expected, "belongs to another Morton bucket")
    return rows_stream


def forest_from_saved(
    primitive_buffer: PrimitiveBuffer,
    options: BvhBuildOptions,
    segments: Iterable[tuple[dict[str, np.ndarray], dict]],
) -> BvhForest:
    """Rebuild a :class:`BvhForest` from persisted shard state.

    ``segments`` holds one ``(arrays, meta)`` pair per shard, as
    :func:`forest_state_segments` yields them.  Recomputes the partition and
    the top-level plan from the primitive buffer, checks that the persisted
    rows partition the column and that every persisted sub-tree is one the
    splice can place (:func:`_checked_sizes`), and splices them: the
    resulting ``forest.bvh`` is bit-identical to the tree that was saved,
    and the forest is delta-updatable like a freshly built one.  The sort
    and the tree build are exactly what the persisted state skips.  State
    that does not fit raises :class:`ShardPartitionError` naming the bucket.
    This is the one check of persisted trees; delta updates splice them,
    like trees built in this process, unchecked.
    """
    options.validate()
    part = _column(primitive_buffer, options, "restore")[0]
    rows: dict[int, np.ndarray] = {}
    tree_arrays: dict[int, dict[str, np.ndarray]] = {}
    for arrays, meta in segments:
        rows[int(meta["bucket"])] = arrays["rows"]
        if meta.get("delegated"):
            tree_arrays[int(meta["bucket"])] = arrays
    for saved, expected, what in (
        (rows.keys(), set(part.shard_vals.tolist()), "shard set does not match the Morton partition"),
        (tree_arrays.keys(), set(part.plan.delegated), "delegated-shard set does not match the top-level plan"),
    ):
        if saved != expected:
            raise ShardPartitionError(
                min(saved ^ expected),
                f"the persisted {what} recomputed from the key column",
            )

    rows_stream = _checked_row_stream(rows, part)
    trees: dict[int, Bvh] = {}
    for b, arrays in tree_arrays.items():
        missing = [name for name in BVH_ARRAY_FIELDS if name not in arrays]
        if missing:
            raise ShardPartitionError(b, f"tree arrays {missing} are missing")
        trees[b] = bvh_from_arrays(arrays, rows[b].shape[0], options)
    buckets = sorted(trees)
    _checked_sizes(buckets, [trees[b] for b in buckets], part.shard_counts[part.index_of(buckets)])
    return _splice(part, options, primitive_buffer, rows_stream, trees)


def delta_update_forest(
    forest: BvhForest,
    old_buffer: PrimitiveBuffer,
    new_buffer: PrimitiveBuffer,
) -> tuple[BvhForest, DeltaUpdateStats]:
    """Bring a forest built over ``old_buffer`` up to date with ``new_buffer``.

    Boxes, centroids, grid cells and buckets are computed for the changed
    and dirty-shard rows only.  The rows that *leave* (old values) and
    *enter* (new values) are the ones ``new_buffer.changed_rows(old_buffer)``
    reports, one comparison of the stored arrays, plus the rows past the
    shorter buffer's end.  The partition is patched copy-on-write, since
    old epochs may still read the old forest's arrays: a copy of
    ``bucket_of_row`` with the entering rows rewritten, per-bucket counts
    moved by the leaving and entering rows, and the top plan re-derived
    from those counts.  Only the shards that gained, lost or moved a
    primitive are re-sorted and rebuilt, from their old rows plus the
    entering ones; clean shards keep their sorted rows and sub-trees, and
    the splice places both kinds.

    The scene bounds follow from the leaving rows' old and the entering
    rows' new centroids, unless a leaving row held a bound that no entering
    row reaches: then one full pass decides.  A moved bound re-quantises
    every code, so the whole forest is rebuilt (``stats.rescaled``).

    Returns the updated forest — whose ``bvh`` is bit-identical to a
    from-scratch build over ``new_buffer`` — plus statistics of the work
    performed.  A no-op update (nothing changed) returns the original
    forest untouched.  A non-finite entering primitive raises
    ``ValueError`` naming its row.
    """
    options = forest.options
    num_buckets = 1 << options.shard_bits
    n_old, n_new = forest.num_primitives, len(new_buffer)
    if n_new == 0:
        raise ValueError("cannot delta-update a BVH forest over zero primitives")
    stats = partial(DeltaUpdateStats, total_shards=num_buckets, total_keys=n_new)
    common = min(n_old, n_new)
    changed = new_buffer.changed_rows(old_buffer)
    leaving = np.concatenate([changed, np.arange(common, n_old)])
    entering = np.concatenate([changed, np.arange(common, n_new)])
    if not (leaving.size or entering.size):
        return forest, stats(
            non_empty_shards=forest.non_empty_shards,
            dirty_shards=0,
            rebuilt_trees=0,
            dirty_keys=0,
            noop=True,
        )

    entering_c = centroid_columns(*box_columns(new_buffer, entering))
    leaving_c = centroid_columns(*box_columns(old_buffer, leaving))
    if not _bounds_stay(forest, entering, entering_c, leaving_c):
        part, *columns = _column(new_buffer, options, "delta-update")
        if not (
            np.array_equal(part.scene_lo, forest.scene_lo)
            and np.array_equal(part.scene_hi, forest.scene_hi)
        ):
            # The global grid moved: every Morton code is re-quantised, so
            # no shard content can be trusted.
            rebuilt = _build(part, *columns, options)
            return rebuilt, stats(
                non_empty_shards=rebuilt.non_empty_shards,
                dirty_shards=rebuilt.non_empty_shards,
                rebuilt_trees=rebuilt.delegated_shards,
                dirty_keys=n_new,
                rescaled=True,
            )

    # Patch the partition into fresh arrays; the old forest's stay as they are.
    entering_bucket = morton_prefix_buckets(
        quantize_to_grid(entering_c.T, forest.scene_lo, forest.scene_hi, options.morton_bits),
        options.morton_bits,
        options.shard_bits,
    )
    leaving_bucket = forest.bucket_of_row[leaving]
    bucket = np.empty(n_new, dtype=np.int64)
    bucket[:common] = forest.bucket_of_row[:common]
    bucket[entering] = entering_bucket
    counts = np.zeros(num_buckets, dtype=np.int64)
    counts[forest.shard_ids] = [forest.shard_rows[b].shape[0] for b in forest.shard_ids.tolist()]
    counts += np.bincount(entering_bucket, minlength=num_buckets)
    counts -= np.bincount(leaving_bucket, minlength=num_buckets)
    part = _partition(forest.scene_lo, forest.scene_hi, bucket, counts, options)
    dirty = np.zeros(num_buckets, dtype=bool)
    dirty[leaving_bucket] = True
    dirty[entering_bucket] = True

    # A dirty shard's rows are its old rows that stay plus the entering
    # ones: one sort of (bucket, row) keys groups them by bucket, rows
    # ascending, and drops the repeats.
    candidates = np.concatenate(
        [entering]
        + [forest.shard_rows[b] for b in np.flatnonzero(dirty).tolist() if b in forest.shard_rows]
    )
    candidates = candidates[candidates < n_new]
    keys = bucket[candidates] * n_new + candidates
    keys.sort()
    grouped = keys[np.diff(keys, prepend=-1) != 0] % n_new
    group_ends = np.cumsum(np.where(dirty, counts, 0))

    delegated = set(part.plan.delegated)
    parts: list[np.ndarray] = []
    trees: dict[int, Bvh] = {}
    rebuilt_trees = 0
    for b, count in zip(part.shard_vals.tolist(), part.shard_counts.tolist()):
        if dirty[b]:
            rows, tree = _sort_and_build(
                grouped[group_ends[b] - count : group_ends[b]],
                new_buffer,
                part,
                options,
                b in delegated,
            )
            rebuilt_trees += tree is not None
        else:
            rows = forest.shard_rows[b]
            tree = forest.shard_trees.get(b) if b in delegated else None
            if b in delegated and tree is None:
                # The new plan delegates a clean bucket that used to sit in
                # a mixed leaf: build its tree from the still-sorted rows.
                _, tree = _sort_and_build(rows, new_buffer, part, options, True, sort=False)
                rebuilt_trees += 1
        parts.append(rows)
        if tree is not None:
            trees[b] = tree

    updated = _splice(part, options, new_buffer, np.concatenate(parts), trees)
    return updated, stats(
        non_empty_shards=updated.non_empty_shards,
        dirty_shards=int(np.count_nonzero(dirty)),
        rebuilt_trees=rebuilt_trees,
        dirty_keys=int(grouped.size),
    )


def _bounds_stay(
    forest: BvhForest, entering: np.ndarray, entering_c: np.ndarray, leaving_c: np.ndarray
) -> bool:
    """True when the scene bounds provably stay the forest's: no entering
    centroid lies outside them, and every bound a leaving row held is
    reached by an entering row (else an unchanged row may or may not still
    hold it).  ``*_c`` are ``(3, m)`` centroid columns of the ``entering``
    and leaving rows; a non-finite entering row raises ``ValueError``."""
    lo, hi = forest.scene_lo, forest.scene_hi
    if entering.size:
        low, high = entering_c.min(axis=1), entering_c.max(axis=1)
        require_finite(np.concatenate([low, high]), entering_c, rows=entering)
        if (low < lo).any() or (high > hi).any():
            return False
    return not any(
        ((leaving_c == at).any(axis=1) & ~(entering_c == at).any(axis=1)).any()
        for at in (lo[:, None], hi[:, None])
    )


def _sort_and_build(
    rows: np.ndarray,
    buffer: PrimitiveBuffer,
    part: _Partition,
    options: BvhBuildOptions,
    build_tree: bool,
    sort: bool = True,
) -> tuple[np.ndarray, Bvh | None]:
    """Sort one bucket's rows by Morton code and optionally build its tree;
    only these rows of ``buffer`` get boxes and grid cells."""
    mins, maxs = box_columns(buffer, rows)
    grid = quantize_to_grid(
        centroid_columns(mins, maxs).T, part.scene_lo, part.scene_hi, options.morton_bits
    )
    codes = morton_interleave_grid(grid, options.morton_bits)
    if sort:
        order, codes = sort_codes(codes)
        rows, mins, maxs = rows[order], mins[:, order], maxs[:, order]
    tree = build_lbvh_over_sorted(codes, mins.T, maxs.T, options) if build_tree else None
    return rows, tree
