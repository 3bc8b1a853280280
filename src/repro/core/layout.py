"""The snapshot layout of an :class:`~repro.core.rx_index.RXIndex`.

This module decides which segments and arrays an index's store holds under
each manifest format: what a save writes (:func:`index_segments`,
:func:`index_meta`), which segments an update leaves clean
(:func:`changed_segments`), and how a load reads a store back and checks
it before anything is adopted (:func:`read_index`).  The epoch store
(:mod:`repro.persist`) below it stores whatever segments it is given.

Format 3, what saves write:

* a single tree: ``columns`` (``keys`` and ``values``, uint64 ``(n,)``) and
  ``bvh`` (the tree's :data:`~repro.rtx.bvh.BVH_ARRAY_FIELDS`, meta
  ``refit_generation``);
* a forest: ``values`` (``values``) and one ``shard-NNNNN`` segment per
  non-empty Morton bucket ``NNNNN`` (:func:`shard_segment`): its rows'
  ``keys`` in stream order, its ``rows`` (int64, in Morton-code order)
  and, when the top plan delegates the bucket, its sub-tree's
  :data:`~repro.rtx.bvh.NODE_ARRAYS` in local numbering; meta ``bucket``
  and ``delegated``.  There is no ``columns`` segment, so an update that
  changes a few clustered keys leaves every clean shard's segment and
  ``values`` as they are.

Format 2, read only: a single tree as in format 3; a forest holds
``columns`` and shard segments without ``keys``.  Stores written before the
trees dropped their derived arrays also hold a legacy ``right`` array per
tree and ``prim_indices`` per delegated shard
(:func:`~repro.rtx.bvh.bvh_from_arrays`).

What a load checks, in order, before the index allocates anything: the
segments the kind needs are present; the key and value columns are uint64
columns of one length; a forest's shard segments have a valid ``bucket``
and ``delegated``, each shard's ``rows`` is an int64 column (and in format
3 its ``keys`` a uint64 column as long), and the rows of all shards
together are a permutation of ``[0, n)`` — only then are format 3's keys
scattered into the column; the manifest's index block describes that
column; then the trees.  A forest's rows must sit in the shards of their
Morton buckets and its shard trees must splice
(:func:`~repro.rtx.forest.forest_from_saved`); a single tree's leaf
ranges, child ids and ``prim_indices`` must lie inside its tables, and its
root box must be the union of the boxes its keys encode to.  Every failure
raises :class:`~repro.persist.SnapshotCorrupt` naming the segment, or
``MANIFEST.json`` for the index block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.persist import MANIFEST_NAME, SnapshotCorrupt
from repro.persist.segments import is_count
from repro.rtx.bvh import (
    BVH_ARRAY_FIELDS,
    NODE_ARRAYS,
    Bvh,
    BvhBuildOptions,
    bvh_from_arrays,
)
from repro.rtx.forest import BvhForest, DeltaUpdateStats, ShardPartitionError, forest_from_saved


def shard_name(bucket: int) -> str:
    """The segment of the forest shard of Morton bucket ``bucket``."""
    return f"shard-{bucket:05d}"


# --------------------------------------------------------------------------- #
# save
# --------------------------------------------------------------------------- #


def shard_segment(forest: BvhForest, bucket: int, keys: np.ndarray | None = None):
    """``(arrays, meta)`` of the non-empty shard ``bucket``: its rows in code
    order and, when delegated, its sub-tree's node arrays; with the index's
    key column ``keys``, its rows' keys too, first.  Without ``keys`` it is
    the shard state :func:`~repro.rtx.forest.forest_from_saved` reads."""
    rows = np.ascontiguousarray(forest.shard_rows[bucket], dtype=np.int64)
    arrays = {} if keys is None else {"keys": keys[rows]}
    arrays["rows"] = rows
    tree = forest.shard_trees.get(bucket)
    if tree is not None:
        for name, _, _ in NODE_ARRAYS:
            arrays[name] = np.ascontiguousarray(getattr(tree, name))
    return arrays, {"bucket": int(bucket), "delegated": tree is not None}


def _columns(keys: np.ndarray, values: np.ndarray):
    return {"keys": np.ascontiguousarray(keys), "values": np.ascontiguousarray(values)}, None


def _tree(bvh: Bvh):
    arrays = {name: np.ascontiguousarray(getattr(bvh, name)) for name in BVH_ARRAY_FIELDS}
    return arrays, {"refit_generation": int(bvh.refit_generation)}


def _values(values: np.ndarray):
    return {"values": np.ascontiguousarray(values)}, None


def index_segments(keys: np.ndarray, values: np.ndarray, accel) -> dict:
    """The format-3 segments of an index over ``keys`` and ``values`` with
    ``accel``, each a callable that builds its ``(arrays, meta)``, so a save
    builds only the segments it cannot reuse."""
    forest = accel.forest
    if forest is None:
        return {"columns": partial(_columns, keys, values), "bvh": partial(_tree, accel.bvh)}
    segments = {"values": partial(_values, values)}
    for bucket in sorted(forest.shard_rows):
        segments[shard_name(bucket)] = partial(shard_segment, forest, bucket, keys)
    return segments


def index_meta(config, num_keys: int, accel) -> dict:
    """The manifest's index block: what :func:`read_index` checks the
    segments against."""
    return {
        "config": config.as_dict(),
        "num_keys": int(num_keys),
        "num_primitives": int(accel.bvh.num_primitives),
        "kind": "bvh" if accel.forest is None else "forest",
        "compacted": bool(accel.compacted),
        "refit_generation": int(accel.bvh.refit_generation),
    }


def changed_segments(delta: DeltaUpdateStats, values_changed: bool) -> list[str] | None:
    """The segments of a forest's store whose state a ``DELTA_SHARD``
    update changed, or None for all of them (a rescaled update).

    A shard keeps its segment exactly when the update leaves its rows
    alone: ``delta.changed_buckets`` lists the others.  A clean shard keeps
    its delegation and sub-tree too, and its keys: a changed key moves its
    row's anchor (every codec maps valid keys one to one), so the row is
    one the update dirtied.  ``values`` changes only with new values."""
    if delta.rescaled:
        return None
    names = [shard_name(bucket) for bucket in delta.changed_buckets]
    if values_changed:
        names.append("values")
    return names


# --------------------------------------------------------------------------- #
# load
# --------------------------------------------------------------------------- #


@dataclass
class SavedIndex:
    """The checked state of a snapshot, ready for an index to adopt."""

    keys: np.ndarray
    values: np.ndarray
    buffer: object
    #: the tree, marked compacted as the manifest says
    bvh: Bvh
    forest: BvhForest | None


def read_index(snap, config, options: BvhBuildOptions, make_buffer) -> SavedIndex:
    """Read and check the index a verified snapshot holds.

    ``config`` is the manifest's, ``options`` the tree options it implies
    and ``make_buffer`` turns a key column into the index's primitive
    buffer.  See the module docstring for the checks; a failure raises
    :class:`~repro.persist.SnapshotCorrupt`.
    """
    kind = "forest" if config.shard_bits else "bvh"
    keyed_shards = kind == "forest" and snap.format_version >= 3
    needed = {"bvh": ("columns", "bvh"), "forest": ("values",) if keyed_shards else ("columns",)}
    for name in needed[kind]:
        if name not in snap.segments:
            raise SnapshotCorrupt(
                f"snapshot manifest of a {kind} index lists no {name} segment", segment=name
            )
    shards = [
        _shard_state(snap, name, keyed_shards)
        for name in snap.segments
        if kind == "forest" and name.startswith("shard-")
    ]
    if keyed_shards:
        values = _uint64_column(snap.arrays("values"), "values", "values")
        _check_rows(shards, values.shape[0], "values")
        keys = _scattered_keys(shards, values.shape[0])
    else:
        columns = snap.arrays("columns")
        keys = _uint64_column(columns, "columns", "keys")
        values = _uint64_column(columns, "columns", "values", keys.shape[0])
        if kind == "forest":
            _check_rows(shards, keys.shape[0], "columns")
    meta = snap.index_meta
    _check_index_block(meta, kind, config.shard_bits, keys.shape[0])

    buffer = make_buffer(keys)
    compacted = meta["compacted"]
    if kind == "forest":
        try:
            forest = forest_from_saved(buffer, options, [(arrays, m) for _, arrays, m in shards])
        except ShardPartitionError as exc:
            raise SnapshotCorrupt(
                f"persisted forest shards are invalid: {exc}", segment=shard_name(exc.bucket)
            ) from exc
        bvh = forest.bvh
        bvh.compacted = compacted
    else:
        forest = None
        try:
            bvh = bvh_from_arrays(
                snap.arrays("bvh"),
                num_primitives=meta["num_primitives"],
                options=options,
                compacted=compacted,
                refit_generation=meta["refit_generation"],
            )
        except ValueError as exc:
            raise SnapshotCorrupt(str(exc), segment="bvh") from exc
        _check_single_tree(bvh, buffer)
    return SavedIndex(keys, values, buffer, bvh, forest)


def _uint64_column(arrays: dict, segment: str, name: str, rows: int | None = None):
    """``arrays[name]``, required to be a uint64 column of ``rows`` rows (of
    one or more when ``rows`` is None)."""
    if name not in arrays:
        raise SnapshotCorrupt(f"{segment} segment holds no {name} array", segment=segment)
    array = arrays[name]
    if (
        array.dtype != np.uint64
        or array.ndim != 1
        or (array.shape[0] < 1 if rows is None else array.shape[0] != rows)
    ):
        want = "a non-empty uint64 column" if rows is None else f"uint64 ({rows},)"
        raise SnapshotCorrupt(
            f"{segment} segment array {name} is {array.dtype} {array.shape}, not {want}",
            segment=segment,
        )
    return array


def _malformed_shard(name: str, problem: str) -> SnapshotCorrupt:
    return SnapshotCorrupt(
        f"persisted forest shard segment is malformed: {problem}", segment=name
    )


def _shard_state(snap, name: str, keyed: bool) -> tuple[str, dict, dict]:
    """``(name, arrays, meta)`` of the forest shard segment ``name``.

    Its meta must hold an int ``bucket`` (not a bool) that the name
    ``shard-NNNNN`` spells and a bool ``delegated``, and its arrays a
    ``rows`` array and, when ``keyed``, a ``keys`` array.
    """
    arrays, meta = snap.arrays(name), snap.meta(name)

    def shown(key):
        return repr(meta[key]) if key in meta else "(missing)"

    problems = []
    bucket = meta.get("bucket")
    if type(bucket) is not int:
        problems.append(f"bucket {shown('bucket')} is not an int")
    elif name != shard_name(bucket):
        problems.append(f"bucket {bucket} does not match the name {name}")
    if not isinstance(meta.get("delegated"), bool):
        problems.append(f"delegated {shown('delegated')} is not a bool")
    for array in ("keys", "rows") if keyed else ("rows",):
        if array not in arrays:
            problems.append(f"it holds no {array} array")
    if problems:
        raise _malformed_shard(name, "; ".join(problems))
    return name, arrays, meta


def _check_rows(shards: list[tuple[str, dict, dict]], n: int, column: str) -> None:
    """Require the rows of all ``shards`` together to be a permutation of
    ``[0, n)``, ``n`` being the length of the ``column`` segment's arrays.

    Every shard's ``rows`` must be an int64 column (and its ``keys``, when
    it holds them, a uint64 column as long), each row in range and none
    twice, ``n`` in all.  A failure raises :class:`SnapshotCorrupt` naming
    the first offending shard, or ``column`` when rows are missing.  The
    exact per-row count runs only to name the shard of a repeated row.
    """
    seen = np.zeros(n, dtype=bool)
    total = 0
    for name, arrays, _ in shards:
        rows = arrays["rows"]
        if rows.dtype != np.int64 or rows.ndim != 1:
            raise _malformed_shard(
                name, f"rows array is {rows.dtype} {rows.shape}, not int64 ({rows.size},)"
            )
        keys = arrays.get("keys")
        if keys is not None and (keys.dtype != np.uint64 or keys.shape != rows.shape):
            raise _malformed_shard(
                name, f"keys array is {keys.dtype} {keys.shape}, not uint64 {rows.shape}"
            )
        # Viewed as uint64, a negative row is past every bound too.
        if rows.size and rows.view(np.uint64).max() >= n:
            row = rows[(rows < 0) | (rows >= n)][0]
            raise _malformed_shard(name, f"row {row} lies outside [0, {n})")
        seen[rows] = True
        total += rows.shape[0]
    if total == n and seen.all():
        return
    stream = np.concatenate([np.zeros(0, np.int64)] + [a["rows"] for _, a, _ in shards])
    repeated = np.bincount(stream, minlength=n)[stream] > 1
    if repeated.any():
        pos = int(np.flatnonzero(repeated)[0])
        ends = np.cumsum([a["rows"].shape[0] for _, a, _ in shards])
        name = shards[int(np.searchsorted(ends, pos, "right"))][0]
        raise _malformed_shard(name, f"row {stream[pos]} appears more than once")
    raise SnapshotCorrupt(
        f"row {int(np.flatnonzero(~seen)[0])} of the {n} the {column} segment holds "
        "lies in no shard",
        segment=column,
    )


def _scattered_keys(shards: list[tuple[str, dict, dict]], n: int) -> np.ndarray:
    """The key column of a format-3 forest whose shards passed
    :func:`_check_rows`: each shard's keys scattered to its rows."""
    keys = np.empty(n, dtype=np.uint64)
    for _, arrays, _ in shards:
        keys[arrays["rows"]] = arrays["keys"]
    return keys


def _check_index_block(meta: dict, kind: str, shard_bits: int, n: int) -> None:
    """The manifest's index block must describe the store: ``kind`` is the
    one ``shard_bits`` implies, ``num_keys`` and ``num_primitives`` are the
    ``n`` keys, ``refit_generation`` is a count and ``compacted`` a bool."""

    def shown(key):
        return repr(meta[key]) if key in meta else "(missing)"

    problems = []
    if meta.get("kind") != kind:
        problems.append(
            f"kind {shown('kind')} is not {kind!r}, which shard_bits={shard_bits} implies"
        )
    for key in ("num_keys", "num_primitives"):
        if not is_count(meta.get(key)) or meta[key] != n:
            problems.append(f"{key} {shown(key)} is not the {n} keys the store holds")
    if not is_count(meta.get("refit_generation")):
        problems.append(
            f"refit_generation {shown('refit_generation')} is not a non-negative int"
        )
    if not isinstance(meta.get("compacted"), bool):
        problems.append(f"compacted {shown('compacted')} is not a bool")
    if problems:
        raise SnapshotCorrupt(
            f"snapshot manifest index block: {'; '.join(problems)}", segment=MANIFEST_NAME
        )


def _check_single_tree(bvh: Bvh, buffer) -> None:
    """Require a single tree whose every index stays inside its tables, and
    whose root box is the union of ``buffer``'s primitive boxes.

    A leaf's ``[first_prim, first_prim + prim_count)`` must be a non-empty
    range of the ``n`` primitives, an inner node's ``left`` must be an id in
    ``[1, node_count - 2]`` (so ``left + 1`` is one too), and every
    ``prim_indices`` entry must lie in ``[0, n)``: O(nodes) reductions, so a
    traversal never indexes past an array.  Every tree built or refitted
    over the buffer's primitives has the root box; the buffer comes from
    the stored keys under the manifest's config, so a config edited away
    from the tree (another ``decomposition``, say) moves the boxes and
    fails here instead of answering wrong.  A failure raises
    :class:`~repro.persist.SnapshotCorrupt` naming ``bvh``.
    """
    k, n = bvh.node_count, bvh.num_primitives
    if k < 1:
        raise SnapshotCorrupt("tree has no nodes", segment="bvh")
    left, first, count = bvh.left, bvh.first_prim, bvh.prim_count
    # Masks over every node, so no gather; a leaf range is checked as
    # count >= 1 first, so n - count cannot overflow where it decides.
    fine = count >= 1
    fine &= first >= 0
    fine &= first <= n - count
    fine |= left >= 0
    if not fine.all():
        i = int(np.flatnonzero(~fine)[0])
        raise SnapshotCorrupt(
            f"tree leaf {i} holds primitives [{first[i]}, {int(first[i]) + int(count[i])}), "
            f"not a non-empty range of its {n}",
            segment="bvh",
        )
    if left.max() > k - 2 or (left == 0).any():
        i = int(np.flatnonzero((left == 0) | (left > k - 2))[0])
        raise SnapshotCorrupt(
            f"tree node {i} has children ({left[i]}, {left[i] + 1}), not ids in [1, {k - 1}]",
            segment="bvh",
        )
    prims = bvh.prim_indices
    # Viewed as uint64, a negative entry is past every bound too.
    if n and prims.view(np.uint64).max() >= n:
        j = int(np.flatnonzero((prims < 0) | (prims >= n))[0])
        raise SnapshotCorrupt(
            f"tree prim_indices[{j}] = {prims[j]} lies outside [0, {n})", segment="bvh"
        )

    union = buffer.bounds()
    root = (bvh.node_mins[0], bvh.node_maxs[0])
    if not all(np.array_equal(a, b) for a, b in zip(root, union)):
        raise SnapshotCorrupt(
            f"tree root box {[a.tolist() for a in root]} is not the union "
            f"{[a.tolist() for a in union]} of the boxes the {len(buffer)} stored keys "
            f"encode to under the manifest's config",
            segment="bvh",
        )
