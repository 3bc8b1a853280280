"""Randomised differential harness for every trace mode.

Generates random scenes and ray batches with the *stdlib* ``random`` module
(independent of the NumPy generators used inside the engine) and pins
``TraversalEngine.trace`` in all three modes — ``all``, ``first_k`` and
``ordered_k`` — bit for bit against the golden loops in
:mod:`repro.rtx._reference`: identical hit records (rays, primitives,
lookup_ids, order) *and* identical counters, across

* all three primitive types,
* duplicate-free and duplicate-heavy key columns,
* frontier chunk sizes ``{0, 1, 7, None}`` (0 and None alias "unbounded"),
* single-tree builds and Morton-prefix sharded forests (the tree a load
  splices from the forest's saved shard state is additionally asserted
  array-equal to the single tree, and the engine traces that *spliced*
  tree while the golden loops walk the single-tree build),
* single-ray lookups and multi-ray lookups sharing one first_k budget,
  plus a ``first_k(limit=1)`` trace with one lookup per ray (how point
  lookups end each ray at its first hit),
* traces with and without an elementwise any-hit filter.

On top of the reference equivalence, every ``first_k`` result is checked
against its defining property: the hits must be exactly the all-hits stream
cut to the first ``k`` surviving hits per lookup (a stable top-k cut).
Likewise every ``ordered_k`` result must be the per-lookup ``k`` smallest
hits of the all-hits stream under the ``(ray, t, prim)`` order — the sorted
top-k cut, with ``t`` computed by the shared ``hit_t_pairs`` kernels.

The generator seed defaults to 20260727 and can be overridden with the
``DIFF_SEED`` environment variable (CI runs extra seeds).  The harness
generates nearly a hundred cases and stays within a few seconds.
"""

import os
import random

import numpy as np
import pytest

from repro.rtx._reference import (
    reference_first_k_trace,
    reference_ordered_k_trace,
    reference_trace,
)
from repro.rtx.build_input import build_input_for_points
from repro.rtx.bvh import BvhBuildOptions, build_bvh, bvh_arrays_diff
from repro.rtx.forest import build_forest, forest_from_saved, forest_state_segments
from repro.rtx.geometry import RayBatch
from repro.rtx.traversal import TraversalEngine

DIFF_SEED = int(os.environ.get("DIFF_SEED", "20260727"))
PRIMITIVES = ["triangle", "sphere", "aabb"]
CHUNK_SIZES = [0, 1, 7, None]
SHARD_BITS = [0, 3]
NUM_CASES = 96


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
def test_all_modes_bit_identical_to_reference(case_index):
    rng = random.Random(DIFF_SEED * 1000 + case_index)
    case = _make_case(rng, case_index)
    buffer = build_input_for_points(case["primitive"], case["points"]).primitive_buffer()
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
        segments = [
            (arrays, meta)
            for _, arrays, meta in forest_state_segments(build_forest(buffer, options))
        ]
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
        return TraversalEngine(bvh, buffer, max_frontier=case["chunk"])

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
