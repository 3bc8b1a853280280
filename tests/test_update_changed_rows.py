"""An update pays for what it changed, and the shortcut changes nothing.

``RXIndex.update`` diffs the owned key column once.  Under every policy
only the changed rows' keys are encoded, and the new primitive buffer is
the old one copied with those rows replaced (``PrimitiveBuffer.with_rows``);
a ``DELTA_SHARD`` update compares the two buffers at those rows only
(``changed_rows(old, rows)``).  This file checks:

1. **The chain** — a ``DIFF_SEED``-driven update chain over triangle,
   sphere and AABB primitives, Naive, Extended and 3D keys, REBUILD,
   REFIT (where ``RXConfig.validate`` allows it) and ``DELTA_SHARD``, and
   dense (duplicate-free) or drawn (with replacement) key columns: swaps,
   permutations of a few rows' keys, rewrites that move rows across
   buckets, growth, shrinkage, no-ops, and Naive keys past 2^24 (whose
   float32 equals a neighbour's), which the whole-column range check
   refuses.  After each step the buffer's stored arrays are a full
   encode's, the tree is a fresh build's (under REFIT, the previous tree
   refit over a full encode), the ``DeltaUpdateStats`` are what comparing
   every row gives (but for ``relabelled``), and the previous buffer,
   tree and forest are unwritten.  A REBUILD chain over a single tree and
   a ``DELTA_SHARD`` chain take both paths: the relabel of a permutation,
   and the build or re-sort (their first two steps are a permutation and
   a growth; on a dense column the permutation must relabel).  No other
   chain relabels.
2. **The counts** — a 64-swap update of 2^14 keys encodes its 128 changed
   keys and compares 128 rows, under every policy; under REBUILD it neither
   builds nor sorts and shares the previous tree's node arrays, and under
   ``DELTA_SHARD`` it neither sorts nor builds a shard and shares the
   previous forest's node arrays and shard trees.  A rewrite, a swap that
   leaves equal Morton codes out of row order and (for a single tree) the
   first update after a load each build or re-sort, a growth re-sorts, and
   a loaded forest relabels.  ``relabel_moved_rows`` refuses a box grown
   in place, unknown grid bounds and a refitted tree.
3. **The buffer methods** — ``changed_rows(old, rows)``, ``same_rows`` and
   ``with_rows`` on every buffer kind.

The chain is drawn from ``DIFF_SEED`` (env var; CI runs extra seeds
through ``make test-diff``).
"""

import copy
import os
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.core import rx_index
from repro.core.config import (
    KeyMode,
    PrimitiveType,
    RangeRayMode,
    RXConfig,
    UpdatePolicy,
)
from repro.core.keycodec import ThreeDCodec, make_codec
from repro.core.rx_index import RXIndex
from repro.rtx import bvh as bvh_module
from repro.rtx import forest as forest_module
from repro.rtx import pipeline
from repro.rtx.build_input import build_input_for_points
from repro.rtx.bvh import (
    BVH_ARRAY_FIELDS,
    NODE_ARRAYS,
    build_bvh,
    bvh_arrays_diff,
    relabel_moved_rows,
)
from repro.rtx.forest import build_forest, delta_update_forest
from repro.rtx.geometry import (
    AabbBuffer,
    PrimitiveBuffer,
    TriangleBuffer,
    make_triangle_vertices,
)
from repro.rtx.pipeline import GeometryAccel
from repro.rtx.refit import refit_accel
from repro.workloads import clustered_key_swaps, dense_shuffled_keys

DIFF_SEED = int(os.environ.get("DIFF_SEED", "20260727"))


def _config(primitive: PrimitiveType, key_mode: KeyMode, policy: UpdatePolicy) -> RXConfig:
    return RXConfig(
        key_mode=key_mode,
        primitive=primitive,
        range_ray_mode=RangeRayMode.PARALLEL_FROM_ZERO,
        compaction=policy is not UpdatePolicy.REFIT,
        update_policy=policy,
        shard_bits=1 if policy is UpdatePolicy.DELTA_SHARD else 0,
    )


def _valid(config: RXConfig) -> bool:
    try:
        config.validate()
    except ValueError:
        return False
    return True


#: every (primitive, key mode, policy) an index accepts
CASES = [
    (primitive, mode, policy)
    for primitive in PrimitiveType
    for mode in KeyMode
    for policy in UpdatePolicy
    if _valid(_config(primitive, mode, policy))
]


def _stored(buffer: PrimitiveBuffer) -> dict:
    """A buffer's type, shared values and stored arrays (dtype, shape,
    read-only flag and bytes)."""
    state = {"type": type(buffer).__name__}
    state.update({name: getattr(buffer, name) for name in buffer._shared})
    for name in buffer._stored:
        array = getattr(buffer, name)
        state[name] = None if array is None else (
            str(array.dtype), array.shape, array.flags.writeable, array.tobytes()
        )
    return state


def _held(keys: np.ndarray, accel: GeometryAccel) -> dict:
    """Bytes of every array an epoch reads: keys, buffer, tree and forest."""
    arrays = {"keys": keys}
    arrays.update({f"buffer.{n}": getattr(accel.buffer, n) for n in accel.buffer._stored})
    arrays.update({f"bvh.{n}": getattr(accel.bvh, n) for n in BVH_ARRAY_FIELDS})
    forest = accel.forest
    if forest is not None:
        arrays["bucket_of_row"] = forest.bucket_of_row
        arrays.update({f"rows.{b}": rows for b, rows in forest.shard_rows.items()})
        for b, tree in forest.shard_trees.items():
            arrays.update({f"tree.{b}.{n}": getattr(tree, n) for n in BVH_ARRAY_FIELDS})
    return {name: a.tobytes() for name, a in arrays.items() if a is not None}


def _next_keys(rng, keys: np.ndarray, span: int, op: str) -> np.ndarray:
    n = keys.shape[0]
    new_keys = keys.copy()
    if op == "swap":
        a, b = rng.integers(0, n, (2, int(rng.integers(1, 16))))
        new_keys[a], new_keys[b] = keys[b], keys[a]
    elif op == "permute":
        # A few rows trade keys among themselves.
        rows = rng.choice(n, int(rng.integers(2, 16)), replace=False)
        new_keys[rows] = keys[rng.permutation(rows)]
    elif op == "rewrite":
        # Random keys over the whole span land in other buckets.
        rows = rng.integers(0, n, int(rng.integers(1, 16)))
        new_keys[rows] = rng.integers(0, span, rows.shape[0])
    elif op == "grow":
        new_keys = np.append(keys, rng.integers(0, span, int(rng.integers(1, 16)))).astype(np.uint64)
    elif op == "shrink":
        new_keys = keys[: n - int(rng.integers(1, 16))]
    elif op == "past-2^24":
        # 2^24 and 2^24 + 1 share one float32.
        rows = rng.integers(0, n, 2)
        new_keys[rows] = [1 << 24, (1 << 24) + 1]
    return new_keys


@pytest.mark.parametrize(
    "primitive, mode, policy, column",
    [
        pytest.param(*case, column, id="-".join([c.value for c in case] + suffix))
        for column, suffix in (("drawn", []), ("dense", ["dense"]))
        for case in CASES
    ],
)
def test_update_chain_matches_full_encodes_and_fresh_builds(
    monkeypatch, primitive, mode, policy, column
):
    case = CASES.index((primitive, mode, policy))
    rng = np.random.default_rng([DIFF_SEED, 36, case] + ([1] if column == "dense" else []))
    shard_bits = {
        UpdatePolicy.REBUILD: int(rng.choice([0, rng.integers(1, 13)])),
        UpdatePolicy.REFIT: 0,
        UpdatePolicy.DELTA_SHARD: int(rng.integers(1, 13)),
    }[policy]
    config = replace(
        _config(primitive, mode, policy),
        shard_bits=shard_bits,
        max_leaf_size=int(rng.integers(1, 9)),
    )
    codec = make_codec(mode)
    n = int(rng.integers(200, 1200))
    span = min(int(rng.integers(n, 4 * n)), codec.max_key() + 1)
    if column == "dense":
        keys = rng.choice(span, n, replace=False).astype(np.uint64)
    else:
        keys = rng.integers(0, span, n).astype(np.uint64)
    index = RXIndex(config)
    index.build(keys)

    deltas, relabels, builds, resorts = [], [], [], []

    def recorded(forest, old_buffer, new_buffer, rows=None, moves=None):
        result = delta_update_forest(forest, old_buffer, new_buffer, rows, moves)
        deltas.append(result[1])
        return result

    def relabelled(*args):
        tree = relabel_moved_rows(*args)
        relabels.append(tree is not None)
        return tree

    def built(*args):
        builds.append(len(args[0]))
        return build_bvh(*args)

    monkeypatch.setattr(pipeline, "delta_update_forest", recorded)
    monkeypatch.setattr(rx_index, "relabel_moved_rows", relabelled)
    monkeypatch.setattr(forest_module, "relabel_moved_rows", relabelled)
    monkeypatch.setattr(pipeline, "build_bvh", built)
    ops = ("swap", "permute", "rewrite", "grow", "shrink", "noop", "past-2^24")
    for step in range(10):
        op = ("permute", "grow")[step] if step < 2 else ops[int(rng.integers(0, len(ops)))]
        label = f"step {step} {op}"
        new_keys = _next_keys(rng, keys, span, op)
        resized = new_keys.shape != keys.shape
        values = np.arange(new_keys.shape[0], dtype=np.uint64) if resized else None
        # A refit replaces the tree's arrays on the same object: keep the old ones.
        accel, previous_keys = index.accel, index.keys
        previous = GeometryAccel(copy.copy(accel.bvh), accel.buffer, accel.forest)
        before = _held(previous_keys, previous)
        refused = (op == "past-2^24" and mode is KeyMode.NAIVE) or (
            resized and policy is UpdatePolicy.REFIT
        )
        if refused:
            with pytest.raises(ValueError):
                index.update(new_keys, values)
            assert _held(index.keys, index.accel) == before, label
            continue
        index.update(new_keys, values)
        keys = new_keys

        full = index._make_buffer(keys)
        assert _stored(index.accel.buffer) == _stored(full), label
        if policy is UpdatePolicy.REFIT:
            want = refit_accel(copy.copy(previous.bvh), full).bvh
        else:
            want = build_bvh(full, config.bvh_options())
        assert bvh_arrays_diff(index.accel.bvh, want) is None, label
        if policy is UpdatePolicy.DELTA_SHARD:
            # A relabel reports what the re-sort of every row would have.
            every_row = delta_update_forest(previous.forest, previous.buffer, full)
            got, want = asdict(deltas.pop()), asdict(every_row[1])
            assert not want.pop("relabelled"), label
            relabelled_step = got.pop("relabelled")
            assert got == want, label
            resorts.append(not (relabelled_step or want["noop"]))
            assert bvh_arrays_diff(index.accel.bvh, every_row[0].bvh) is None, label
        # The previous epoch's arrays are copied from, never written.
        assert _held(previous_keys, previous) == before, label
    assert deltas == []
    if policy is UpdatePolicy.DELTA_SHARD or (
        policy is UpdatePolicy.REBUILD and shard_bits == 0
    ):
        # The growth builds or re-sorts; on a dense column the permutation
        # relabels.
        assert (builds or True in resorts) and (True in relabels or column == "drawn")
    else:
        assert True not in relabels


@pytest.mark.parametrize("policy", list(UpdatePolicy), ids=lambda p: p.value)
def test_an_update_encodes_and_compares_only_its_changed_rows(monkeypatch, policy):
    """A 64-swap update of 2^14 keys hands ``encode_points`` its 128
    changed keys and ``changed_rows`` (``DELTA_SHARD`` only) its 128 rows,
    not the whole column."""
    config = {
        UpdatePolicy.REBUILD: RXConfig.paper_default(),
        UpdatePolicy.REFIT: RXConfig.paper_default().with_updates_enabled(),
        UpdatePolicy.DELTA_SHARD: RXConfig.paper_default().with_delta_updates(shard_bits=12),
    }[policy]
    keys = dense_shuffled_keys(1 << 14, seed=29)
    index = RXIndex(config)
    index.build(keys)
    new_keys = clustered_key_swaps(keys, 64, seed=30)
    assert np.count_nonzero(new_keys != keys) == 128

    encoded, compared = [], []
    encode_points, changed_rows = ThreeDCodec.encode_points, PrimitiveBuffer.changed_rows

    def encode_spy(self, keys):
        encoded.append(len(keys))
        return encode_points(self, keys)

    def compare_spy(self, old, rows=None):
        compared.append(len(self) if rows is None else len(rows))
        return changed_rows(self, old, rows)

    monkeypatch.setattr(ThreeDCodec, "encode_points", encode_spy)
    monkeypatch.setattr(PrimitiveBuffer, "changed_rows", compare_spy)
    index.update(new_keys)
    assert encoded == [128]
    assert compared == ([128] if policy is UpdatePolicy.DELTA_SHARD else [])


#: where a single tree's update builds and sorts
TREE_BUILD = ((pipeline, "build_bvh"), (bvh_module, "sort_codes"))
#: where a forest's update re-sorts and rebuilds its dirty shards
SHARD_BUILD = ((forest_module, "sort_codes"), (forest_module, "build_lbvh_over_sorted"))


def _build_calls(monkeypatch, index: RXIndex, new_keys: np.ndarray, spied=TREE_BUILD) -> dict:
    """Calls of the ``spied`` functions that ``index.update(new_keys)``
    makes, and whether it reported a relabel."""
    calls = {name: 0 for _, name in spied}
    for module, name in spied:

        def spy(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    calls["relabelled"] = index.update(new_keys).stats["relabelled"]
    monkeypatch.undo()
    return calls


def _fresh_build(index: RXIndex):
    return build_bvh(index.accel.buffer, index.config.bvh_options())


def test_a_permuting_rebuild_relabels_the_previous_tree(monkeypatch):
    """A 64-swap REBUILD update of 2^14 dense keys neither builds nor sorts:
    its tree shares the previous tree's node arrays, relabels the moved
    rows in a copy of ``prim_indices``, and equals a fresh build."""
    keys = dense_shuffled_keys(1 << 14, seed=29)
    index = RXIndex(RXConfig.paper_default())
    index.build(keys)
    old = index.accel.bvh
    calls = _build_calls(monkeypatch, index, clustered_key_swaps(keys, 64, seed=30))
    assert calls == {"build_bvh": 0, "sort_codes": 0, "relabelled": True}
    tree = index.accel.bvh
    assert all(getattr(tree, name) is getattr(old, name) for name, _, _ in NODE_ARRAYS)
    assert tree.prim_indices is not old.prim_indices
    assert tree.compacted and bvh_arrays_diff(tree, _fresh_build(index)) is None


def test_relabel_refuses_what_it_cannot_prove():
    """A box grown in place keeps its centroid, so its code and the stream
    order; only the stored-array compare refuses it.  Unknown grid bounds
    (a loaded single tree's) and a refitted tree are refused too."""
    index = RXIndex(replace(RXConfig.paper_default(), primitive=PrimitiveType.AABB))
    index.build(dense_shuffled_keys(1 << 10, seed=3))
    bvh, buffer = index.accel.bvh, index.accel.buffer
    rows = np.array([5])
    same = AabbBuffer(buffer.mins.copy(), buffer.maxs.copy())
    grown = AabbBuffer(buffer.mins - np.float32(0.25), buffer.maxs + np.float32(0.25))
    bounds = bvh.grid_bounds
    assert relabel_moved_rows(bvh, bounds, buffer, same, rows, rows) is not None
    assert relabel_moved_rows(bvh, bounds, buffer, grown, rows, rows) is None
    assert relabel_moved_rows(bvh, None, buffer, same, rows, rows) is None
    refitted = replace(bvh, refit_generation=1)
    assert relabel_moved_rows(refitted, bounds, buffer, same, rows, rows) is None


def _tied_swap(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``keys`` with row 200 a copy of row 100's key, and a swap that moves
    row 100's copy to row 300: the run of equal Morton codes would read
    rows (300, 200), out of row order."""
    keys = keys.copy()
    keys[200] = keys[100]
    new_keys = keys.copy()
    new_keys[[100, 300]] = keys[[300, 100]]
    return keys, new_keys


@pytest.mark.parametrize("update", ["rewrite", "tied swap", "after load"])
def test_a_rebuild_that_cannot_relabel_builds_once(monkeypatch, tmp_path, update):
    """New key values, a swap that leaves equal codes out of row order, and
    the first update after a load (its tree recorded no grid bounds) each
    build once; an update after that build relabels again."""
    keys = dense_shuffled_keys(1 << 14, seed=29)
    new_keys = clustered_key_swaps(keys, 64, seed=30)
    if update == "rewrite":
        new_keys = keys.copy()
        new_keys[:64] += np.uint64(1 << 20)
    elif update == "tied swap":
        keys, new_keys = _tied_swap(keys)
    index = RXIndex(RXConfig.paper_default())
    index.build(keys)
    if update == "after load":
        index.save(tmp_path)
        index = RXIndex.load(tmp_path)
    built = {"build_bvh": 1, "sort_codes": 1, "relabelled": False}
    assert _build_calls(monkeypatch, index, new_keys) == built
    assert bvh_arrays_diff(index.accel.bvh, _fresh_build(index)) is None
    swaps = clustered_key_swaps(index.keys, 64, seed=31)
    relabelled = {"build_bvh": 0, "sort_codes": 0, "relabelled": True}
    assert _build_calls(monkeypatch, index, swaps) == relabelled
    assert bvh_arrays_diff(index.accel.bvh, _fresh_build(index)) is None


def _forest_index(keys: np.ndarray) -> RXIndex:
    index = RXIndex(RXConfig.paper_default().with_delta_updates(shard_bits=12))
    index.build(keys)
    return index


def _assert_forest_is_fresh(index: RXIndex) -> None:
    """The index's forest is a fresh ``build_forest``'s: its tree bit for
    bit, and its buckets and shard rows."""
    forest = index.accel.forest
    fresh = build_forest(index.accel.buffer, forest.options)
    assert bvh_arrays_diff(forest.bvh, _fresh_build(index)) is None
    assert np.array_equal(forest.bucket_of_row, fresh.bucket_of_row)
    assert forest.bucket_of_row.dtype == fresh.bucket_of_row.dtype
    assert forest.shard_rows.keys() == fresh.shard_rows.keys()
    assert all(np.array_equal(rows, fresh.shard_rows[b]) for b, rows in forest.shard_rows.items())


def test_a_permuting_delta_shard_update_relabels_the_forest(monkeypatch):
    """A 64-swap ``DELTA_SHARD`` update of 2^14 dense keys at
    ``shard_bits=12`` neither sorts nor builds a shard: the new forest
    shares the previous one's node arrays, shard trees and placement,
    relabels a copy of ``prim_indices`` and ``bucket_of_row``, and equals
    a fresh build."""
    keys = dense_shuffled_keys(1 << 14, seed=29)
    index = _forest_index(keys)
    old = index.accel.forest
    swaps = clustered_key_swaps(keys, 64, seed=30)
    calls = _build_calls(monkeypatch, index, swaps, SHARD_BUILD)
    assert calls == {"sort_codes": 0, "build_lbvh_over_sorted": 0, "relabelled": True}
    forest = index.accel.forest
    assert all(getattr(forest.bvh, name) is getattr(old.bvh, name) for name, _, _ in NODE_ARRAYS)
    assert forest.shard_trees.keys() == old.shard_trees.keys()
    assert all(tree is old.shard_trees[b] for b, tree in forest.shard_trees.items())
    assert forest.placement is old.placement
    assert forest.bvh.prim_indices is not old.bvh.prim_indices
    assert forest.bucket_of_row is not old.bucket_of_row
    assert index.accel.bvh is forest.bvh and forest.bvh.compacted
    _assert_forest_is_fresh(index)


@pytest.mark.parametrize("update", ["rewrite", "growth", "tied swap"])
def test_a_delta_shard_update_that_cannot_relabel_re_sorts(monkeypatch, update):
    """New key values, a growth and a swap that leaves equal codes out of
    row order each re-sort their dirty shards (inside the scene bounds, so
    nothing rescales); a swap after that relabels again."""
    keys = dense_shuffled_keys(1 << 14, seed=29)
    new_keys = keys.copy()
    if update == "rewrite":
        new_keys[:64] = keys[64:128]
    elif update == "growth":
        new_keys = np.append(keys, keys[:64])
    else:
        keys, new_keys = _tied_swap(keys)
    index = _forest_index(keys)
    values = None if update != "growth" else np.arange(new_keys.shape[0], dtype=np.uint64)
    sorts = []
    sort_codes = forest_module.sort_codes

    def spy(codes):
        sorts.append(codes.shape[0])
        return sort_codes(codes)

    monkeypatch.setattr(forest_module, "sort_codes", spy)
    stats = index.update(new_keys, values).stats
    monkeypatch.undo()
    assert sorts and not (stats["relabelled"] or stats["rescaled"])
    _assert_forest_is_fresh(index)
    swaps = clustered_key_swaps(index.keys, 64, seed=31)
    assert _build_calls(monkeypatch, index, swaps, SHARD_BUILD)["relabelled"]
    _assert_forest_is_fresh(index)


def test_the_first_delta_shard_update_after_a_load_relabels(monkeypatch, tmp_path):
    """A load re-derives the scene bounds, the forest's Morton grid, so a
    loaded forest relabels where a loaded single tree builds."""
    keys = dense_shuffled_keys(1 << 14, seed=29)
    _forest_index(keys).save(tmp_path)
    index = RXIndex.load(tmp_path)
    swaps = clustered_key_swaps(keys, 64, seed=30)
    calls = _build_calls(monkeypatch, index, swaps, SHARD_BUILD)
    assert calls == {"sort_codes": 0, "build_lbvh_over_sorted": 0, "relabelled": True}
    _assert_forest_is_fresh(index)


#: a buffer over a key column, for every buffer kind
_BUFFERS = {
    "triangle-3d": lambda keys: _index_buffer("triangle", KeyMode.THREE_D, keys),
    "triangle-extended": lambda keys: _index_buffer("triangle", KeyMode.EXTENDED, keys),
    "sphere": lambda keys: _index_buffer("sphere", KeyMode.THREE_D, keys),
    "aabb": lambda keys: _index_buffer("aabb", KeyMode.THREE_D, keys),
    "aabb-extended": lambda keys: _index_buffer("aabb", KeyMode.EXTENDED, keys),
    "vertex-triangle": lambda keys: TriangleBuffer(
        make_triangle_vertices(np.column_stack([keys, keys % 7, keys % 3]).astype(np.float64))
    ),
}


def _index_buffer(primitive: str, mode: KeyMode, keys) -> PrimitiveBuffer:
    points, x_half_extent = make_codec(mode).encode_points(keys)
    return build_input_for_points(primitive, points, x_half_extent=x_half_extent)


@pytest.mark.parametrize("kind", sorted(_BUFFERS))
class TestRowPatches:
    @staticmethod
    def _columns(kind):
        rng = np.random.default_rng([DIFF_SEED, 37, sorted(_BUFFERS).index(kind)])
        keys = rng.integers(0, 5000, 800).astype(np.uint64)
        new_keys = keys.copy()
        rows = np.sort(rng.choice(800, 40, replace=False))
        new_keys[rows] = rng.integers(0, 5000, 40)
        new_keys[rows[:5]] = keys[rows[:5]]  # listed rows that do not change
        return keys, new_keys, rows

    def test_with_rows_is_a_full_build(self, kind):
        keys, new_keys, rows = self._columns(kind)
        make = _BUFFERS[kind]
        old = make(keys)
        before = _stored(old)
        patched = old.with_rows(rows, make(new_keys[rows]))
        assert _stored(patched) == _stored(make(new_keys))
        assert _stored(old) == before

    def test_changed_rows_at_the_listed_rows_is_the_full_compare(self, kind):
        keys, new_keys, rows = self._columns(kind)
        make = _BUFFERS[kind]
        old, new = make(keys), make(new_keys)
        every_row = new.changed_rows(old)
        assert np.array_equal(new.changed_rows(old, rows), every_row)
        assert np.array_equal(every_row, rows[5:])

    def test_same_rows_pairs_moved_rows_by_value(self, kind):
        keys, new_keys, rows = self._columns(kind)
        make = _BUFFERS[kind]
        old = make(keys)
        moved = np.roll(rows, 1)  # row moved[i] takes row rows[i]'s key
        permuted = keys.copy()
        permuted[moved] = keys[rows]
        assert make(permuted).same_rows(moved, old, rows)
        assert make(new_keys).same_rows(rows[:5], old, rows[:5])
        assert not make(new_keys).same_rows(rows, old, rows)
        other = _BUFFERS["sphere" if kind != "sphere" else "aabb"]
        assert not other(keys).same_rows(rows, old, rows)

    def test_a_patch_of_another_layout_is_refused(self, kind):
        keys, _, rows = self._columns(kind)
        make = _BUFFERS[kind]
        with pytest.raises(ValueError, match="row patch"):
            make(keys).with_rows(rows, make(keys[rows[:-1]]))
        other = _BUFFERS["sphere" if kind != "sphere" else "aabb"]
        with pytest.raises(ValueError, match="row patch"):
            make(keys).with_rows(rows, other(keys[rows]))
