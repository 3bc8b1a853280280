"""Randomised differential harness for every trace mode.

Generates random scenes and ray batches with the *stdlib* ``random`` module
(independent of the NumPy generators used inside the engine) and pins
``TraversalEngine.trace`` in all three modes — ``all``, ``first_k`` and
``ordered_k`` — bit for bit against the golden loops in
:mod:`repro.rtx._reference`: identical hit records (rays, primitives,
lookup_ids, order) *and* identical counters, across

* all three primitive types,
* duplicate-free and duplicate-heavy key columns,
* ``FRONTIER_BLOCK`` sizes ``{1, 7, 16}`` patched in, plus the module's
  own (``None``), which runs these rounds in one block,
* single-tree builds and Morton-prefix sharded forests (the tree a load
  splices from the forest's saved shard state is additionally asserted
  array-equal to the single tree, and the engine traces that *spliced*
  tree while the golden loops walk the single-tree build),
* single-ray lookups and multi-ray lookups sharing one first_k budget,
  plus a ``first_k(limit=1)`` trace with one lookup per ray (how point
  lookups end each ray at its first hit),
* traces with and without an elementwise any-hit filter,
* lookup ids laid out the way the generator never makes them: a lookup's
  rays scattered through the batch, ids not monotone in ray order, and ids
  on both sides of 2^16, so budget and pool arrays are indexed beyond the
  uint16 range the engine's radix sorts take.

On top of the reference equivalence, every ``first_k`` result is checked
against its defining property: the hits must be exactly the all-hits stream
cut to the first ``k`` surviving hits per lookup (a stable top-k cut).
Likewise every ``ordered_k`` result must be the per-lookup ``k`` smallest
hits of the all-hits stream under the ``(ray, t, prim)`` order — the sorted
top-k cut, with ``t`` computed by the shared ``hit_t_pairs`` kernels.
Two unit checks pin the engine's sort helpers directly: ``stable_order``
against ``np.argsort(kind="stable")``, and the ordered pool merge against
the ``np.lexsort`` merge it replaced.

The generator seed defaults to 20260727 and can be overridden with the
``DIFF_SEED`` environment variable (CI runs extra seeds).  The harness
generates nearly a hundred cases and stays within a few seconds.
"""

import os
import random

import numpy as np
import pytest

from repro.core.layout import shard_segment
from repro.rtx._reference import (
    reference_first_k_trace,
    reference_ordered_k_trace,
    reference_trace,
)
from repro.rtx.build_input import build_input_for_points
from repro.rtx.bvh import BvhBuildOptions, build_bvh, bvh_arrays_diff
from repro.rtx.forest import build_forest, forest_from_saved
from repro.rtx.geometry import RayBatch
from repro.rtx.traversal import TraversalEngine, _OrderedKState, stable_order

DIFF_SEED = int(os.environ.get("DIFF_SEED", "20260727"))
PRIMITIVES = ["triangle", "sphere", "aabb"]
#: ``FRONTIER_BLOCK`` patched in per case; None keeps the module's own.
CHUNK_SIZES = [1, 7, 16, None]
SHARD_BITS = [0, 3]
NUM_CASES = 96
#: Lookup-id layouts of the scattered cases: name -> id offset.  Wide ids
#: start just below 2^16 and run past it, so a sort that took them for
#: uint16 would misorder them.
LOOKUP_LAYOUTS = {"scattered": 0, "wide": (1 << 16) - 6}
#: Base cases the layouts are applied to: every eighth case of the sweep.
LAYOUT_CASES = range(0, NUM_CASES, 8)


def _make_case(rng: random.Random, case_index: int) -> dict:
    """One random scene + ray batch + trace configuration."""
    # Mixed-radix decode of the case index so the 96 cases sweep the full
    # primitive × chunk-size × sharding × duplicates grid (48 cells) twice.
    primitive = PRIMITIVES[case_index % len(PRIMITIVES)]
    chunk = CHUNK_SIZES[(case_index // len(PRIMITIVES)) % len(CHUNK_SIZES)]
    shard_bits = SHARD_BITS[(case_index // 12) % len(SHARD_BITS)]
    with_duplicates = (case_index // 24) % 2 == 0

    # Key column on a line: increasing positions with random gaps, with a
    # duplicate-heavy variant (several primitives share one position, so a
    # single ray picks up multiple hits at the same x).
    n_positions = rng.randrange(20, 90)
    xs: list[float] = []
    x = 0.0
    for _ in range(n_positions):
        x += rng.randrange(1, 6)
        repeats = rng.randrange(1, 4) if with_duplicates else 1
        xs.extend([x] * repeats)
    points = np.array([[v, 0.0, 0.0] for v in xs], dtype=np.float64)
    max_x = xs[-1]

    # Sharded builds are lbvh-only (the Morton-prefix partition is a prefix
    # of lbvh's split hierarchy); unsharded cases sweep all three builders.
    builder = "lbvh" if shard_bits else rng.choice(("lbvh", "median", "sah"))
    max_leaf_size = rng.choice((1, 2, 4))

    # Ray batch: a mix of offset range rays, from-zero range rays (overlap
    # every preceding key — the early-exit worst case), and perpendicular
    # point rays.  Some lookups fan out into two rays sharing one first_k
    # budget, like a multi-row 3D-Mode range lookup.
    num_lookups = rng.randrange(12, 40)
    origins, directions, tmins, tmaxs, lookup_ids = [], [], [], [], []
    for lookup in range(num_lookups):
        fan_out = 2 if rng.random() < 0.3 else 1
        for _ in range(fan_out):
            shape = rng.random()
            lo = rng.uniform(-2.0, max_x)
            if shape < 0.4:  # offset range ray along +x
                origins.append([lo, 0.0, 0.0])
                directions.append([1.0, 0.0, 0.0])
                tmins.append(0.0)
                tmaxs.append(rng.uniform(1.0, 25.0))
            elif shape < 0.8:  # from-zero range ray along +x
                origins.append([0.0, 0.0, 0.0])
                directions.append([1.0, 0.0, 0.0])
                tmins.append(lo)
                tmaxs.append(lo + rng.uniform(1.0, 25.0))
            else:  # perpendicular point ray along +z
                origins.append([lo, 0.0, -0.5])
                directions.append([0.0, 0.0, 1.0])
                tmins.append(0.0)
                tmaxs.append(1.0)
            lookup_ids.append(lookup)

    return {
        "primitive": primitive,
        "chunk": chunk,
        "shard_bits": shard_bits,
        "builder": builder,
        "max_leaf_size": max_leaf_size,
        "points": points,
        "rays": RayBatch(
            origins=np.array(origins),
            directions=np.array(directions),
            tmin=np.array(tmins),
            tmax=np.array(tmaxs),
            lookup_ids=np.array(lookup_ids, dtype=np.int64),
        ),
        "limit": rng.randrange(1, 6),
        "any_hit": (lambda r, p, l: (p % 3 != 0)) if case_index % 5 == 4 else None,
    }


def _assert_same(hits, counters, golden_hits, golden_counters, label):
    assert np.array_equal(hits.ray_indices, golden_hits.ray_indices), label
    assert np.array_equal(hits.prim_indices, golden_hits.prim_indices), label
    assert np.array_equal(hits.lookup_ids, golden_hits.lookup_ids), label
    assert counters.as_dict() == golden_counters.as_dict(), label


def _stable_top_k_cut(all_hits, num_rays: int, limit: int):
    """The first ``limit`` hits per lookup of the all-hits stream."""
    taken: dict[int, int] = {}
    keep = np.empty(all_hits.count, dtype=bool)
    for i, lookup in enumerate(all_hits.lookup_ids.tolist()):
        count = taken.get(lookup, 0)
        keep[i] = count < limit
        taken[lookup] = count + keep[i]
    return all_hits.ray_indices[keep], all_hits.prim_indices[keep]


def _sorted_top_k_cut(all_hits, buffer, rays, limit: int):
    """Per lookup: the ``limit`` smallest all-hits under ``(ray, t, prim)``.

    The defining property of ``ordered_k``, computed independently of both
    the engine and the reference loop — only the ``t`` values come from the
    shared ``hit_t_pairs`` kernels (their bit-identity is the point).
    """
    r = all_hits.ray_indices
    ts = buffer.hit_t_pairs(
        np.asarray(rays.origins)[r],
        np.asarray(rays.directions)[r],
        np.asarray(rays.tmin)[r],
        np.asarray(rays.tmax)[r],
        all_hits.prim_indices,
    )
    keep_rays, keep_prims = [], []
    for lookup in np.unique(all_hits.lookup_ids):
        sel = np.nonzero(all_hits.lookup_ids == lookup)[0]
        order = np.lexsort((all_hits.prim_indices[sel], ts[sel], r[sel]))
        cut = sel[order][:limit]
        keep_rays.append(r[cut])
        keep_prims.append(all_hits.prim_indices[cut])
    if not keep_rays:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return np.concatenate(keep_rays), np.concatenate(keep_prims)


@pytest.mark.parametrize("case_index", range(NUM_CASES))
def test_all_modes_bit_identical_to_reference(case_index, frontier_block):
    rng = random.Random(DIFF_SEED * 1000 + case_index)
    case = _make_case(rng, case_index)
    frontier_block(case["chunk"])
    buffer = build_input_for_points(case["primitive"], case["points"])
    golden_bvh = build_bvh(
        buffer,
        BvhBuildOptions(builder=case["builder"], max_leaf_size=case["max_leaf_size"]),
    )
    if case["shard_bits"]:
        # The engine walks the forest's tree as a load splices it from the
        # saved shard state, while the golden loops walk the single-tree
        # build — pinning both the splice and the traversal.  The arrays
        # must agree exactly for that to be a real comparison, so assert it
        # explicitly first.
        options = BvhBuildOptions(
            builder=case["builder"],
            max_leaf_size=case["max_leaf_size"],
            shard_bits=case["shard_bits"],
        )
        forest = build_forest(buffer, options)
        segments = [shard_segment(forest, b) for b in sorted(forest.shard_rows)]
        bvh = forest_from_saved(buffer, options, segments).bvh
        diff = bvh_arrays_diff(bvh, golden_bvh)
        assert diff is None, f"spliced forest diverged from the single tree on {diff!r}"
    else:
        bvh = golden_bvh
    rays = case["rays"]
    any_hit = case["any_hit"]
    label = (
        f"seed={DIFF_SEED} case={case_index} primitive={case['primitive']} "
        f"chunk={case['chunk']} builder={case['builder']} "
        f"shard_bits={case['shard_bits']} "
        f"limit={case['limit']}"
    )

    def engine():
        return TraversalEngine(bvh, buffer)

    # all-hits mode
    eng = engine()
    all_hits = eng.trace(rays, any_hit=any_hit)
    golden_hits, golden_counters = reference_trace(golden_bvh, buffer, rays, any_hit=any_hit)
    _assert_same(all_hits, eng.counters, golden_hits, golden_counters, f"all {label}")

    # first_k with a budget of one hit per ray: every ray its own lookup
    per_ray = RayBatch(
        origins=rays.origins,
        directions=rays.directions,
        tmin=rays.tmin,
        tmax=rays.tmax,
        lookup_ids=np.arange(len(rays)),
    )
    eng = engine()
    hits = eng.trace(per_ray, any_hit=any_hit, mode="first_k", limit=1)
    golden_hits, golden_counters = reference_first_k_trace(
        golden_bvh, buffer, per_ray, 1, any_hit=any_hit
    )
    _assert_same(hits, eng.counters, golden_hits, golden_counters, f"first_k-1 {label}")

    # first_k mode
    limit = case["limit"]
    eng = engine()
    fk_hits = eng.trace(rays, any_hit=any_hit, mode="first_k", limit=limit)
    golden_hits, golden_counters = reference_first_k_trace(
        golden_bvh, buffer, rays, limit, any_hit=any_hit
    )
    _assert_same(fk_hits, eng.counters, golden_hits, golden_counters, f"first_k {label}")

    # first_k defining property: identical to the all-hits stream cut to the
    # first `limit` surviving hits per lookup.
    cut_rays, cut_prims = _stable_top_k_cut(all_hits, len(rays), limit)
    assert np.array_equal(fk_hits.ray_indices, cut_rays), label
    assert np.array_equal(fk_hits.prim_indices, cut_prims), label

    # ordered_k mode
    eng = engine()
    ok_hits = eng.trace(rays, any_hit=any_hit, mode="ordered_k", limit=limit)
    golden_hits, golden_counters = reference_ordered_k_trace(
        golden_bvh, buffer, rays, limit, any_hit=any_hit
    )
    _assert_same(ok_hits, eng.counters, golden_hits, golden_counters, f"ordered_k {label}")

    # ordered_k defining property: the per-lookup `limit` smallest surviving
    # hits under the (ray, t, prim) order, reported in that order.
    cut_rays, cut_prims = _sorted_top_k_cut(all_hits, buffer, rays, limit)
    assert np.array_equal(ok_hits.ray_indices, cut_rays), label
    assert np.array_equal(ok_hits.prim_indices, cut_prims), label


def test_case_generator_covers_the_grid():
    """The sweep must cover every primitive × chunk × shard × dup cell
    exactly twice."""
    seen: dict[tuple, int] = {}
    for case_index in range(NUM_CASES):
        case = _make_case(random.Random(DIFF_SEED * 1000 + case_index), case_index)
        cell = (
            case["primitive"],
            case["chunk"],
            case["shard_bits"],
            (case_index // 24) % 2 == 0,
        )
        seen[cell] = seen.get(cell, 0) + 1
    cells = len(PRIMITIVES) * len(CHUNK_SIZES) * len(SHARD_BITS) * 2
    assert len(seen) == cells
    assert set(seen.values()) == {2}


def _scatter_lookups(rays: RayBatch, rng: random.Random, offset: int) -> RayBatch:
    """``rays`` shuffled, with lookup ids renamed by a random permutation
    plus ``offset``: a multi-ray lookup's rays are no longer adjacent, and
    the ids are not monotone in ray order."""
    order = list(range(len(rays)))
    rng.shuffle(order)
    names = list(range(int(rays.lookup_ids.max()) + 1))
    rng.shuffle(names)
    order = np.array(order, dtype=np.int64)
    names = np.array(names, dtype=np.int64) + offset
    return RayBatch(
        origins=rays.origins[order],
        directions=rays.directions[order],
        tmin=rays.tmin[order],
        tmax=rays.tmax[order],
        lookup_ids=names[rays.lookup_ids[order]],
    )


@pytest.mark.parametrize("layout", sorted(LOOKUP_LAYOUTS))
@pytest.mark.parametrize("case_index", LAYOUT_CASES)
def test_budgeted_modes_with_scattered_lookup_ids(case_index, layout, frontier_block):
    rng = random.Random(DIFF_SEED * 1000 + case_index)
    case = _make_case(rng, case_index)
    frontier_block(case["chunk"])
    rays = _scatter_lookups(case["rays"], rng, LOOKUP_LAYOUTS[layout])
    assert len(set(rays.lookup_ids.tolist())) > 1
    assert not (np.diff(rays.lookup_ids) >= 0).all(), "ids must not be monotone"
    buffer = build_input_for_points(case["primitive"], case["points"])
    bvh = build_bvh(
        buffer,
        BvhBuildOptions(builder=case["builder"], max_leaf_size=case["max_leaf_size"]),
    )
    any_hit = case["any_hit"]
    limit = case["limit"]
    label = (
        f"seed={DIFF_SEED} case={case_index} layout={layout} "
        f"primitive={case['primitive']} chunk={case['chunk']} limit={limit}"
    )

    def engine():
        return TraversalEngine(bvh, buffer)

    eng = engine()
    all_hits = eng.trace(rays, any_hit=any_hit)
    for k in (1, limit):
        eng = engine()
        hits = eng.trace(rays, any_hit=any_hit, mode="first_k", limit=k)
        golden_hits, golden_counters = reference_first_k_trace(
            bvh, buffer, rays, k, any_hit=any_hit
        )
        _assert_same(hits, eng.counters, golden_hits, golden_counters, f"first_k-{k} {label}")
        cut_rays, cut_prims = _stable_top_k_cut(all_hits, len(rays), k)
        assert np.array_equal(hits.ray_indices, cut_rays), label
        assert np.array_equal(hits.prim_indices, cut_prims), label

    eng = engine()
    hits = eng.trace(rays, any_hit=any_hit, mode="ordered_k", limit=limit)
    golden_hits, golden_counters = reference_ordered_k_trace(
        bvh, buffer, rays, limit, any_hit=any_hit
    )
    _assert_same(hits, eng.counters, golden_hits, golden_counters, f"ordered_k {label}")
    cut_rays, cut_prims = _sorted_top_k_cut(all_hits, buffer, rays, limit)
    assert np.array_equal(hits.ray_indices, cut_rays), label
    assert np.array_equal(hits.prim_indices, cut_prims), label


def test_stable_order_equals_stable_argsort():
    rng = np.random.default_rng(DIFF_SEED)
    cases = {
        "empty": np.zeros(0, dtype=np.int64),
        "one": np.array([7], dtype=np.int64),
        "below 2^16": rng.integers(0, 50, size=2000),
        "up to 2^16 - 1": rng.integers(0, 1 << 16, size=5000),
        "across 2^16": rng.integers((1 << 16) - 4, (1 << 16) + 4, size=500),
        "past 2^16": rng.integers(70_000, 70_050, size=2000),
    }
    for name, ids in cases.items():
        got = stable_order(ids)
        want = np.argsort(ids, kind="stable")
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def _lexsort_merge(pool, owners, k, cand_rays, cand_t, cand_prims):
    """The ``np.lexsort`` pool merge ``_OrderedKState.merge`` replaced:
    ``(lookups, rays, ts, prims)`` of the new pool and the dropped rays."""
    all_l = np.concatenate([pool[0], owners[cand_rays]])
    all_r = np.concatenate([pool[1], cand_rays])
    all_t = np.concatenate([pool[2], cand_t])
    all_p = np.concatenate([pool[3], cand_prims])
    order = np.lexsort((all_p, all_t, all_r, all_l))
    sorted_l = all_l[order]
    ranks = np.arange(sorted_l.shape[0]) - np.searchsorted(sorted_l, sorted_l)
    keep = ranks < k
    kept = order[keep]
    return (sorted_l[keep], all_r[kept], all_t[kept], all_p[kept]), all_r[order[~keep]]


@pytest.mark.parametrize("offset", sorted(LOOKUP_LAYOUTS.values()))
def test_ordered_pool_merge_equals_lexsort_merge(offset):
    """Random candidate chunks with tied ``t`` on one ray, ``-0.0`` beside
    ``+0.0``, and non-monotone lookup ids: every merge keeps the pool and
    drops the rays the lexsort merge does, bit for bit."""
    rng = np.random.default_rng([DIFF_SEED, offset])
    t_values = np.array([-0.0, 0.0, -1.5, 0.25, 0.25, 3.0, 7.5])
    for _ in range(60):
        n_rays = int(rng.integers(1, 30))
        owners = rng.integers(0, 12, size=n_rays) + offset
        k = int(rng.integers(1, 6))
        state = _OrderedKState(int(owners.max()) + 1, k, owners)
        pool = tuple(
            np.zeros(0, dtype=dtype)
            for dtype in (np.int64, np.int64, np.float64, np.int64)
        )
        # (ray, prim) pairs are unique within a trace: a ray tests each
        # primitive once.
        pairs = rng.permutation(n_rays * 40)[: int(rng.integers(3, n_rays * 40))]
        for chunk in np.array_split(pairs, int(rng.integers(1, 4))):
            cand_rays = chunk // 40
            cand_prims = chunk % 40 * 3 + 1
            cand_t = rng.choice(t_values, size=chunk.shape[0])
            # Half the candidates of one ray tie on t at zero, signs mixed.
            on_ray = np.flatnonzero(cand_rays == cand_rays[0])
            cand_t[on_ray[::2]] = rng.choice([-0.0, 0.0], size=on_ray[::2].shape[0])
            dropped = state.merge(cand_rays, cand_t, cand_prims)
            pool, want_dropped = _lexsort_merge(
                pool, owners, k, cand_rays, cand_t, cand_prims
            )
            assert np.array_equal(dropped, want_dropped)
            assert np.array_equal(state.lookups, pool[0])
            assert np.array_equal(state.rays, pool[1])
            assert np.array_equal(state.ts.view(np.int64), pool[2].view(np.int64))
            assert np.array_equal(state.prims, pool[3])
