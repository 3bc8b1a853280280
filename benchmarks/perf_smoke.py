"""Wall-clock perf smoke for the level-synchronous engine.

Measures the engine hot paths — ``build_bvh``, ``TraversalEngine.trace``,
``refit_accel`` and the per-pair primitive intersectors — against the golden
reference implementations preserved in :mod:`repro.rtx._reference`, verifies
observable equivalence on the way (identical topology, bit-identical masks
and counters), and appends the results to a ``BENCH_engine.json`` trajectory
artifact so future PRs can track the engine's speed over time.  Two
further scenarios have no seed counterpart and are measured against the
engine's own all-hits trace: the early-exit point-lookup trace
(``first_k`` with a budget of one hit per ray, the hardware any-hit
termination) and the limit-pushdown ``first_k`` range-lookup trace.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py               # full smoke
    PYTHONPATH=src python benchmarks/perf_smoke.py --quick       # small sizes
    PYTHONPATH=src python benchmarks/perf_smoke.py --strict      # enforce targets
    PYTHONPATH=src python benchmarks/perf_smoke.py --check-only  # correctness only (CI)

A sharded-build scenario measures the Morton-prefix forest
(:mod:`repro.rtx.forest`) at 2^20 keys against the single-tree build: one
entry, which also times the splice of the forest's saved shard state and
verifies that the spliced tree is bit-identical to the single-tree arrays,
and records each build's traced peak and kept bytes per key.
It has no speed target: a forest build is the single tree's build plus a
cut into shards, and the forest exists for its local delta updates and
saves.  ``--build-only`` runs just this scenario (``make bench-build``;
``--scale paper`` lifts it to the paper's 2^26-key column).

Targets (checked, reported, and enforced under ``--strict``):

* ``build_bvh`` (lbvh, 2^18 keys) at least 5x faster than the reference,
* ``trace`` (2^16 point rays) at least 1.5x faster than the reference,
* triangle ``intersect_pairs`` (2^20 range-ray pairs) at least 2x faster
  than the reference row-gather intersector,
* ``first_k`` limited (k=8) range lookups (2^16 rays) at least 2x faster
  than the same batch traced in all-hits mode,
* keyset-cursor pagination (2^20-key table, k=64 pages over a 2^16-row
  range): resuming the deepest page from its cursor at least 5x faster
  than the OFFSET-style full-prefix rescan, both pages verified
  bit-identical to the reference ``(key, rowID)`` order.

Serving is not timed here: rxbench's point-zipf workload (``serve_rps``)
and the ``serve`` and ``chaos`` panels of ``examples/reproduce_paper.py``
measure it, and the tier-1 serve and fault harnesses check it.

A warm-restart scenario (``--restart-only``; ``make bench-restart``) saves
a built paper-default index through the crash-safe epoch store
(:mod:`repro.persist`) and times cold-load-to-first-query — a verified
``RXIndex.load(mmap=True)`` plus one point-lookup batch — against a full
rebuild plus the same batch, asserting the loaded index answers
bit-identically first.  The load must come out at least 1.5x faster than
the rebuild at 2^20 keys (``--scale paper`` lifts it to the paper's 2^26
column, where the gap widens: checksummed mmap ingest is I/O-bound while
the rebuild pays the full Morton/LBVH pipeline again).

Every entry now carries ``new_seconds_p50`` / ``new_seconds_p95`` /
``timing_repeats`` next to the historical best-of-N ``new_seconds``
(additive fields; the speedup basis is unchanged).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core.layout import shard_segment
from repro.rtx._reference import (
    reference_aabb_intersect_pairs,
    reference_build_bvh,
    reference_refit_bounds,
    reference_sphere_intersect_pairs,
    reference_trace,
    reference_triangle_intersect_pairs,
)
from repro.rtx.build_input import build_input_for_points
from repro.rtx.bvh import BvhBuildOptions, build_bvh, bvh_arrays_diff
from repro.rtx.forest import build_forest, forest_from_saved
from repro.rtx.geometry import RayBatch, TriangleBuffer, make_triangle_vertices
from repro.rtx.refit import refit_accel
from repro.rtx.traversal import TraversalEngine

DEFAULT_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

BUILD_SPEEDUP_TARGET = 5.0
TRACE_SPEEDUP_TARGET = 1.5
INTERSECT_SPEEDUP_TARGET = 2.0
FIRSTK_SPEEDUP_TARGET = 2.0
PAGING_SPEEDUP_TARGET = 5.0
RESTART_SPEEDUP_TARGET = 1.5


def _time(fn, repeats: int = 1) -> float:
    """Best-of-N wall-clock seconds for ``fn()``."""
    return _time_stats(fn, repeats)["new_seconds"]


def _time_stats(fn, repeats: int = 1) -> dict:
    """Wall-clock distribution of ``fn()`` over ``repeats`` runs.

    Returns the additive timing fields of a BENCH entry: the historical
    ``new_seconds`` best stays the comparison/speedup basis, while the p50
    and p95 over the repeats expose run-to-run variance (with one repeat all
    three coincide).
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    p50, p95 = np.percentile(samples, [50.0, 95.0])
    return {
        "new_seconds": min(samples),
        "new_seconds_p50": float(p50),
        "new_seconds_p95": float(p95),
        "timing_repeats": repeats,
    }


def _traced_bytes_per_key(fn, n: int) -> tuple[float, float]:
    """``(peak, kept)`` of one ``fn()`` in bytes per key: its tracemalloc
    high-water mark and the traced bytes its result keeps."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return (peak - before) / n, (kept - before) / n


def _line_points(n: int) -> np.ndarray:
    return np.column_stack([np.arange(n), np.zeros(n), np.zeros(n)])


def bench_build(log2_keys: int, builder: str = "lbvh", compare: bool = True) -> dict:
    """Time a BVH build at ``2**log2_keys`` keys, optionally vs the reference."""
    n = 2**log2_keys
    rng = np.random.default_rng(log2_keys)
    points = rng.uniform(0, 1e6, size=(n, 3))
    buffer = TriangleBuffer(make_triangle_vertices(points))
    options = BvhBuildOptions(builder=builder)

    timing = _time_stats(lambda: build_bvh(buffer, options), repeats=2)
    entry = {
        "path": "build",
        "builder": builder,
        "log2_keys": log2_keys,
        **timing,
    }
    if compare:
        built = build_bvh(buffer, options)
        ref_seconds = _time(lambda: reference_build_bvh(buffer, options))
        golden = reference_build_bvh(buffer, options)
        assert np.array_equal(built.left, golden.left), "topology diverged"
        assert np.array_equal(built.prim_indices, golden.prim_indices)
        assert np.array_equal(built.node_mins, golden.node_mins)
        entry["ref_seconds"] = ref_seconds
        entry["speedup"] = ref_seconds / entry["new_seconds"]
    return entry


def bench_build_forest(log2_keys: int, shard_bits: int) -> dict:
    """Time the sharded forest build against the single-tree build.

    The comparison partner (``ref_seconds``) is our own vectorised
    ``build_bvh``, not the seed reference, so ``speedup`` isolates what the
    forest's cut into shards costs.  ``splice_seconds`` times
    :func:`repro.rtx.forest.forest_from_saved` over the forest's saved shard
    state (:func:`repro.core.layout.shard_segment`: what a load hands it
    after checking and scattering the keys); the spliced tree is
    verified bit-identical to the single-tree arrays on the way.  One more
    traced build of each kind records its tracemalloc peak and the bytes
    its tree keeps, per key (``peak_bytes_per_key`` / ``kept_bytes_per_key``,
    ``ref_``-prefixed for the single tree).
    """
    n = 2**log2_keys
    rng = np.random.default_rng(log2_keys)
    points = rng.uniform(0, 1e6, size=(n, 3))
    buffer = TriangleBuffer(make_triangle_vertices(points))
    options = BvhBuildOptions(shard_bits=shard_bits)

    forest = build_forest(buffer, options)
    segments = [shard_segment(forest, b) for b in sorted(forest.shard_rows)]
    entry = {
        "path": "build_forest",
        "log2_keys": log2_keys,
        "shard_bits": shard_bits,
        "shards": forest.non_empty_shards,
        "delegated_shards": forest.delegated_shards,
        **_time_stats(lambda: build_forest(buffer, options), repeats=2),
    }
    single = build_bvh(buffer, BvhBuildOptions())
    diff = bvh_arrays_diff(forest_from_saved(buffer, options, segments).bvh, single)
    assert diff is None, f"spliced forest diverged from the single tree on {diff!r}"
    entry["splice_seconds"] = _time(
        lambda: forest_from_saved(buffer, options, segments), repeats=2
    )
    entry["ref_seconds"] = _time(lambda: build_bvh(buffer, BvhBuildOptions()), repeats=2)
    entry["speedup"] = entry["ref_seconds"] / entry["new_seconds"]
    # Traced after the timed builds, so tracemalloc slows none of them.
    entry["peak_bytes_per_key"], entry["kept_bytes_per_key"] = _traced_bytes_per_key(
        lambda: build_forest(buffer, options), n
    )
    entry["ref_peak_bytes_per_key"], entry["ref_kept_bytes_per_key"] = _traced_bytes_per_key(
        lambda: build_bvh(buffer, BvhBuildOptions()), n
    )
    return entry


def bench_trace(log2_keys: int, log2_rays: int, compare: bool = True) -> dict:
    """Time point-lookup tracing of ``2**log2_rays`` rays, vs the reference."""
    n = 2**log2_keys
    rng = np.random.default_rng(log2_rays)
    buffer = build_input_for_points("triangle", _line_points(n))
    bvh = build_bvh(buffer)
    xs = rng.uniform(0, n, size=2**log2_rays)
    rays = RayBatch(
        origins=np.column_stack([xs, np.zeros_like(xs), np.full_like(xs, -0.5)]),
        directions=np.tile([0.0, 0.0, 1.0], (xs.shape[0], 1)),
        tmin=0.0,
        tmax=1.0,
    )
    engine = TraversalEngine(bvh, buffer)
    engine.trace(rays)  # warm-up

    timing = _time_stats(lambda: engine.trace(rays), repeats=2)
    entry = {
        "path": "trace",
        "log2_keys": log2_keys,
        "log2_rays": log2_rays,
        **timing,
    }
    if compare:
        hits = engine.trace(rays)
        ref_seconds = _time(lambda: reference_trace(bvh, buffer, rays))
        golden_hits, golden_counters = reference_trace(bvh, buffer, rays)
        assert engine.counters.as_dict() == golden_counters.as_dict(), (
            "traversal counters diverged"
        )
        assert np.array_equal(hits.prim_indices, golden_hits.prim_indices)
        entry["ref_seconds"] = ref_seconds
        entry["speedup"] = ref_seconds / entry["new_seconds"]
    return entry


def bench_refit(log2_keys: int, compare: bool = True) -> dict:
    """Time a refit at ``2**log2_keys`` keys, vs the reference sweep."""
    n = 2**log2_keys
    rng = np.random.default_rng(log2_keys + 100)
    points = rng.uniform(0, 1e5, size=(n, 3))
    buffer = TriangleBuffer(make_triangle_vertices(points))
    bvh = build_bvh(buffer, BvhBuildOptions(allow_update=True))
    moved = TriangleBuffer(
        make_triangle_vertices(points + rng.uniform(-1, 1, size=(n, 3)))
    )

    timing = _time_stats(lambda: refit_accel(bvh, moved), repeats=2)
    entry = {"path": "refit", "log2_keys": log2_keys, **timing}
    if compare:
        golden_mins, golden_maxs = reference_refit_bounds(bvh, moved)
        ref_seconds = _time(lambda: reference_refit_bounds(bvh, moved))
        refit_accel(bvh, moved)
        assert np.array_equal(bvh.node_mins, golden_mins.astype(np.float32))
        assert np.array_equal(bvh.node_maxs, golden_maxs.astype(np.float32))
        entry["ref_seconds"] = ref_seconds
        entry["speedup"] = ref_seconds / entry["new_seconds"]
    return entry


def _range_pair_inputs(kind: str, log2_keys: int, log2_pairs: int):
    """Range-ray (ray, primitive) pair stream over a line of keys.

    The rays run along +x with a span of several keys — the shape of the
    paper's range lookups, where the Möller–Trumbore inner loop dominates —
    and each pair tests the ray against a primitive near its span so the hit
    branches are exercised.
    """
    n = 2**log2_keys
    m = 2**log2_pairs
    rng = np.random.default_rng(log2_pairs + 7)
    buffer = build_input_for_points(kind, _line_points(n))
    xs = rng.uniform(0, n - 32, size=m)
    origins = np.column_stack([xs, np.zeros(m), np.zeros(m)]).astype(np.float32)
    directions = np.tile(np.float32([1.0, 0.0, 0.0]), (m, 1))
    tmins = np.zeros(m, dtype=np.float32)
    tmaxs = rng.uniform(1, 25, size=m).astype(np.float32)
    prim = (xs.astype(np.int64) + rng.integers(0, 25, size=m)) % n
    return buffer, origins, directions, tmins, tmaxs, prim


def bench_intersect_pairs(kind: str, log2_pairs: int, compare: bool = True) -> dict:
    """Time per-pair intersection throughput of the key primitives vs the
    seed's row-gather intersectors, on a range-ray pair stream.

    Key triangles recompute each pair's corners from its anchor, so only
    the sphere and AABB SoA packs are warmed first (the seed cached its
    float64 copy too)."""
    log2_keys = 16
    buffer, o, d, tmins, tmaxs, prim = _range_pair_inputs(kind, log2_keys, log2_pairs)
    if kind != "triangle":
        buffer.intersection_pack()

    timing = _time_stats(
        lambda: buffer.intersect_pairs(o, d, tmins, tmaxs, prim), repeats=3
    )
    entry = {
        "path": "intersect",
        "kind": kind,
        "log2_pairs": log2_pairs,
        **timing,
    }
    if compare:
        if kind == "triangle":
            points = _line_points(2**log2_keys)
            v64 = make_triangle_vertices(points).astype(np.float64)
            ref = lambda: reference_triangle_intersect_pairs(v64, o, d, tmins, tmaxs, prim)
        elif kind == "sphere":
            ref = lambda: reference_sphere_intersect_pairs(
                buffer.centers, buffer.radius, o, d, tmins, tmaxs, prim
            )
        else:
            ref = lambda: reference_aabb_intersect_pairs(
                buffer.mins, buffer.maxs, o, d, tmins, tmaxs, prim
            )
        golden = ref()
        mask = buffer.intersect_pairs(o, d, tmins, tmaxs, prim)
        assert mask.any(), "pair workload must contain hits"
        assert np.array_equal(mask, golden), f"{kind} intersection masks diverged"
        entry["ref_seconds"] = _time(ref, repeats=3)
        entry["speedup"] = entry["ref_seconds"] / entry["new_seconds"]
    return entry


def bench_trace_anyhit(log2_keys: int, log2_rays: int, compare: bool = True) -> dict:
    """Time any-hit point lookups against the default all-hits mode.

    The point lookups trace ``first_k`` with a budget of one hit: one ray
    per lookup, so each ray ends at its first hit.

    A skewed key column (a deep dense cluster at low x plus a sparse tail)
    probed with from-zero parallel point rays for the sparse keys: every ray
    geometrically overlaps the whole cluster, but its own key sits in a
    shallow leaf, so terminating at the first hit (the hardware any-hit
    behaviour) skips the entire cluster descent — the situation the paper's
    point-lookup numbers depend on.
    """
    rng = np.random.default_rng(log2_rays + 13)
    n = 2**log2_keys
    n_cluster = int(n * 0.9)
    cluster = np.arange(n_cluster, dtype=np.float64)
    sparse = n_cluster + np.cumsum(
        rng.integers(8, 16, size=n - n_cluster)
    ).astype(np.float64)
    xs = np.concatenate([cluster, sparse])
    points = np.column_stack([xs, np.zeros_like(xs), np.zeros_like(xs)])
    buffer = build_input_for_points("triangle", points)
    bvh = build_bvh(buffer)
    engine = TraversalEngine(bvh, buffer)
    k = sparse[rng.integers(0, sparse.shape[0], size=2**log2_rays)]
    m = k.shape[0]
    rays = RayBatch(
        origins=np.zeros((m, 3)),
        directions=np.tile([1.0, 0.0, 0.0], (m, 1)),
        tmin=k - 0.5,
        tmax=k + 0.5,
    )
    engine.trace(rays, mode="first_k", limit=1)  # warm-up

    timing = _time_stats(
        lambda: engine.trace(rays, mode="first_k", limit=1), repeats=2
    )
    entry = {
        "path": "trace_anyhit",
        "log2_keys": log2_keys,
        "log2_rays": log2_rays,
        **timing,
    }
    if compare:
        # The all-hits side is the expensive one; a single repeat keeps the
        # smoke's wall-clock in check.
        entry["ref_seconds"] = _time(lambda: engine.trace(rays), repeats=1)
        entry["speedup"] = entry["ref_seconds"] / entry["new_seconds"]
        any_hits = engine.trace(rays, mode="first_k", limit=1)
        any_counters = engine.counters
        all_hits = engine.trace(rays)
        all_counters = engine.counters
        assert any_counters.node_visits < all_counters.node_visits
        assert any_counters.prim_tests < all_counters.prim_tests
        assert any_counters.rays_with_hits == all_counters.rays_with_hits
        assert np.unique(any_hits.ray_indices).size == any_hits.count
        assert all_hits.count >= any_hits.count
        entry["node_visits_all"] = all_counters.node_visits
        entry["node_visits_anyhit"] = any_counters.node_visits
        entry["prim_tests_all"] = all_counters.prim_tests
        entry["prim_tests_anyhit"] = any_counters.prim_tests
    return entry


def bench_range_firstk(
    log2_keys: int, log2_rays: int, limit: int = 8, span: int = 32, compare: bool = True
) -> dict:
    """Paper-scale limited range lookups: ``first_k`` vs the all-hits trace.

    The key column is a deep dense cluster at low x plus a sparse tail, and
    the lookups are from-zero range rays over ``span`` keys of the tail —
    the layout of Table 3's from-zero measurements, where every ray
    geometrically overlaps the whole cluster (node culling ignores tmin) and
    the all-hits trace pays the full cluster descent.  With ``limit`` hits
    per lookup the budget is spent in the shallow tail leaves, the rays
    compact out of the frontier, and the deep cluster rounds never run —
    node visits must come out strictly below the all-hits run.  The reported
    rows are pinned to the stable top-``limit`` cut of the all-hits stream.
    """
    rng = np.random.default_rng(log2_rays + 29)
    n = 2**log2_keys
    n_cluster = int(n * 0.9)
    cluster = np.arange(n_cluster, dtype=np.float64)
    sparse = n_cluster + np.cumsum(
        rng.integers(8, 16, size=n - n_cluster)
    ).astype(np.float64)
    xs = np.concatenate([cluster, sparse])
    points = np.column_stack([xs, np.zeros_like(xs), np.zeros_like(xs)])
    buffer = build_input_for_points("triangle", points)
    bvh = build_bvh(buffer)
    engine = TraversalEngine(bvh, buffer)
    starts = rng.integers(0, sparse.shape[0] - span, size=2**log2_rays)
    lo = sparse[starts]
    hi = sparse[starts + span - 1]
    rays = RayBatch(
        origins=np.zeros((lo.shape[0], 3)),
        directions=np.tile([1.0, 0.0, 0.0], (lo.shape[0], 1)),
        tmin=lo - 0.5,
        tmax=hi + 0.5,
    )
    engine.trace(rays, mode="first_k", limit=limit)  # warm-up

    timing = _time_stats(
        lambda: engine.trace(rays, mode="first_k", limit=limit), repeats=2
    )
    entry = {
        "path": "trace_firstk",
        "log2_keys": log2_keys,
        "log2_rays": log2_rays,
        "limit": limit,
        "span": span,
        **timing,
    }
    if compare:
        # The all-hits side descends the whole cluster; one repeat keeps the
        # smoke's wall-clock in check.
        entry["ref_seconds"] = _time(lambda: engine.trace(rays), repeats=1)
        entry["speedup"] = entry["ref_seconds"] / entry["new_seconds"]
        fk_hits = engine.trace(rays, mode="first_k", limit=limit)
        fk_counters = engine.counters
        all_hits = engine.trace(rays)
        all_counters = engine.counters
        assert fk_counters.node_visits < all_counters.node_visits
        assert fk_counters.prim_tests < all_counters.prim_tests
        assert fk_counters.rays_with_hits == all_counters.rays_with_hits
        # The reported rows must be the stable top-k cut of the all-hits
        # stream: the first `limit` hits of every lookup, in stream order.
        taken = np.zeros(len(rays), dtype=np.int64)
        keep = np.empty(all_hits.count, dtype=bool)
        for i, lookup in enumerate(all_hits.lookup_ids.tolist()):
            keep[i] = taken[lookup] < limit
            taken[lookup] += keep[i]
        assert np.array_equal(fk_hits.ray_indices, all_hits.ray_indices[keep])
        assert np.array_equal(fk_hits.prim_indices, all_hits.prim_indices[keep])
        entry["node_visits_all"] = all_counters.node_visits
        entry["node_visits_firstk"] = fk_counters.node_visits
        entry["prim_tests_all"] = all_counters.prim_tests
        entry["prim_tests_firstk"] = fk_counters.prim_tests
    return entry


def bench_paging(
    log2_keys: int, log2_range_rows: int, page_size: int = 64, compare: bool = True
) -> dict:
    """Keyset-cursor page resume vs the OFFSET-style full-prefix rescan.

    A dense ``2**log2_keys``-key table paged through a ``2**log2_range_rows``-
    row ordered range scan in ``page_size``-row pages.  The timed contenders
    are the two ways a client can fetch the scan's *deepest* full page:

    * **resume** — one ``order="key"`` lookup carrying the cursor of the
      previous page: the range ray starts just past the cursor's
      ``(key, rowID)``, so traversal and the ordered pool only ever touch
      O(page) qualifying entries;
    * **rescan** — the same lookup without a cursor but with
      ``limit = consumed + page_size``: the ordered pool re-pays every row
      of the prefix before the page (what a LIMIT/OFFSET plan does).

    Both pages are verified bit-identical to the reference ``(key, rowID)``
    order, the resumed page's primitive tests must come out strictly below
    the rescan's, and the wall-clock ratio is the ``paging`` target.
    """
    from repro.core.config import RXConfig
    from repro.core.cursor import encode_cursor
    from repro.core.rx_index import RXIndex
    from repro.workloads import dense_shuffled_keys

    n = 2**log2_keys
    span = 2**log2_range_rows
    keys = dense_shuffled_keys(n, seed=log2_keys + 41)
    index = RXIndex(RXConfig.paper_default())
    index.build(keys)
    lower = (n - span) // 2
    upper = lower + span - 1
    lowers = np.array([lower], dtype=np.uint64)
    uppers = np.array([upper], dtype=np.uint64)

    # Reference (key, rowID) order of the whole scan.
    sel = (keys >= np.uint64(lower)) & (keys <= np.uint64(upper))
    rows = np.nonzero(sel)[0].astype(np.uint64)
    golden = rows[np.lexsort((rows, keys[sel]))]
    total = golden.shape[0]
    assert total == span, "dense column must qualify exactly span rows"
    consumed = total - page_size  # the deepest full page of the scan
    cursor_row = int(golden[consumed - 1])
    cursor = encode_cursor(int(keys[cursor_row]), cursor_row)

    def resumed():
        return index.range_lookup(
            lowers, uppers, limit=page_size, order="key", cursor=cursor
        )

    def rescan():
        return index.range_lookup(
            lowers, uppers, limit=consumed + page_size, order="key"
        )

    resumed()  # warm-up
    timing = _time_stats(resumed, repeats=3)
    entry = {
        "path": "paging",
        "log2_keys": log2_keys,
        "log2_range_rows": log2_range_rows,
        "page_size": page_size,
        "pages_consumed": consumed // page_size,
        **timing,
    }
    if compare:
        expected = golden[consumed : consumed + page_size]
        resume_run, resume_next = resumed()
        assert np.array_equal(resume_run.row_ids, expected), (
            "resumed page diverged from the reference order"
        )
        rescan_run, _ = rescan()
        assert np.array_equal(rescan_run.row_ids, golden[: consumed + page_size]), (
            "prefix rescan diverged from the reference order"
        )
        assert np.array_equal(rescan_run.row_ids[consumed:], expected)
        # The budget bugfix: resuming inside the column must not re-pay the
        # prefix — the resumed page's primitive tests stay O(page).
        assert (
            resume_run.stats["total_prim_tests"]
            < rescan_run.stats["total_prim_tests"]
        ), "cursor resume did not skip the prefix work"
        entry["prim_tests_resume"] = resume_run.stats["total_prim_tests"]
        entry["prim_tests_rescan"] = rescan_run.stats["total_prim_tests"]
        entry["ref_seconds"] = _time(rescan, repeats=1)
        entry["speedup"] = entry["ref_seconds"] / entry["new_seconds"]
    return entry


def bench_restart(log2_keys: int, compare: bool = True) -> dict:
    """Cold snapshot load to first query vs a full rebuild to first query.

    Builds a paper-default index over a dense shuffled ``2**log2_keys``-key
    column, saves it through the crash-safe epoch store, then times the two
    ways a restarted server can reach its first answered batch:

    * **load** — ``RXIndex.load(mmap=True)``: checksum-verified zero-copy
      ingest of the committed epoch's segments, then one 64-query
      point-lookup batch;
    * **rebuild** — ``RXIndex().build(keys)`` from the raw key column, then
      the same batch.

    The loaded index must answer the batch bit-identically to the rebuilt
    one before any timing counts, and the wall-clock ratio is the
    ``restart`` target.  Each load repeat constructs a fresh index from
    disk, so the p50/p95 spread reflects genuine cold starts (the page
    cache stays warm across repeats, as it would on a real restart of a
    recently-written snapshot).
    """
    import shutil
    import tempfile

    from repro.core.config import RXConfig
    from repro.core.rx_index import RXIndex
    from repro.workloads import dense_shuffled_keys

    n = 2**log2_keys
    keys = dense_shuffled_keys(n, seed=log2_keys + 67)
    rng = np.random.default_rng(log2_keys)
    queries = rng.choice(keys, size=64)

    index = RXIndex(RXConfig.paper_default())
    index.build(keys)
    golden = index.point_lookup(queries)

    snapdir = Path(tempfile.mkdtemp(prefix="rx-restart-"))
    try:
        save_info = index.save(snapdir)

        def cold_load():
            loaded = RXIndex.load(snapdir, mmap=True)
            return loaded, loaded.point_lookup(queries)

        def rebuild():
            fresh = RXIndex(RXConfig.paper_default())
            fresh.build(keys)
            return fresh, fresh.point_lookup(queries)

        loaded, replay = cold_load()  # warm-up + identity gate
        assert np.array_equal(golden.result_rows, replay.result_rows), (
            "loaded index answered differently from the index it snapshots"
        )
        assert golden.stats == replay.stats, (
            "loaded index did different traversal work than the original"
        )
        timing = _time_stats(cold_load, repeats=3)
        entry = {
            "path": "restart",
            "log2_keys": log2_keys,
            "bytes_on_disk": save_info["bytes_on_disk"],
            "segments_total": save_info["segments_total"],
            "load_epoch": loaded.epoch,
            **timing,
        }
        if compare:
            rebuilt, again = rebuild()
            assert np.array_equal(golden.result_rows, again.result_rows)
            assert bvh_arrays_diff(loaded.accel.bvh, rebuilt.accel.bvh) is None, (
                "loaded accel diverged from a from-scratch build"
            )
            entry["ref_seconds"] = _time(rebuild, repeats=1)
            entry["speedup"] = entry["ref_seconds"] / entry["new_seconds"]
        return entry
    finally:
        shutil.rmtree(snapdir, ignore_errors=True)


def run_smoke(quick: bool = False) -> list[dict]:
    """Run the smoke sweep (2^14–2^18 keys) and return the result entries."""
    entries = []
    build_sizes = [14] if quick else [14, 16, 18]
    for log2_keys in build_sizes:
        entries.append(bench_build(log2_keys, "lbvh"))
    if not quick:
        # The reference SAH/median builders are too slow for the big sizes;
        # time them where a comparison stays cheap.
        entries.append(bench_build(14, "median"))
        entries.append(bench_build(14, "sah"))
    entries.append(bench_trace(14 if quick else 16, 14 if quick else 16))
    entries.append(bench_refit(14 if quick else 16))
    log2_pairs = 16 if quick else 20
    for kind in ("triangle", "sphere", "aabb"):
        entries.append(bench_intersect_pairs(kind, log2_pairs))
    entries.append(bench_trace_anyhit(10, 12 if quick else 16))
    # Paper-scale limited (LIMIT 8) range lookups in first_k mode.
    entries.append(bench_range_firstk(10, 12 if quick else 16))
    # Sharded forest build vs the single-tree build.
    if quick:
        entries.append(bench_build_forest(16, shard_bits=4))
    else:
        entries.append(bench_build_forest(20, shard_bits=6))
    # Keyset-cursor pagination: resumed page vs full-prefix rescan.
    if quick:
        entries.append(bench_paging(14, 10, page_size=64))
    else:
        entries.append(bench_paging(20, 16, page_size=64))
    return entries


#: Keys every BENCH entry must carry before it may enter the artifact: the
#: scenario identity plus the full timing-distribution block.  A scenario
#: that forgets one (a new bench hand-rolling its entry dict instead of
#: spreading ``_time_stats``) would silently poison the trajectory for
#: every later comparison, so ``append_artifact`` refuses it up front.
REQUIRED_ENTRY_KEYS = (
    "path",
    "new_seconds",
    "new_seconds_p50",
    "new_seconds_p95",
    "timing_repeats",
)


def validate_entries(entries: list[dict]) -> None:
    """Reject malformed BENCH entries before they reach the artifact."""
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(
                f"BENCH entry #{position} is {type(entry).__name__}, not a dict"
            )
        missing = [key for key in REQUIRED_ENTRY_KEYS if key not in entry]
        if missing:
            label = entry.get("path", f"#{position}")
            raise ValueError(
                f"BENCH entry {label!r} is missing required keys: "
                f"{', '.join(missing)}"
            )


def append_artifact(entries: list[dict], path: Path = DEFAULT_ARTIFACT) -> dict:
    """Append one run to the ``BENCH_engine.json`` trajectory artifact.

    Every entry records the shard count it ran with (1 for the unsharded
    paths) and the run records the host CPU count, so trajectories from
    different machines remain comparable.  Entries missing the required
    identity/timing keys are rejected (:func:`validate_entries`) before
    anything is written.
    """
    validate_entries(entries)
    if path.exists():
        trajectory = json.loads(path.read_text())
    else:
        trajectory = {"description": "engine wall-clock trajectory", "runs": []}
    for entry in entries:
        entry.setdefault("shards", 1)
    run = {
        "unix_time": time.time(),
        "cpu_count": os.cpu_count() or 1,
        "entries": entries,
    }
    trajectory["runs"].append(run)
    path.write_text(json.dumps(trajectory, indent=2) + "\n")
    return run


def check_targets(entries: list[dict]) -> list[str]:
    """Return a list of target violations (empty = all good)."""
    problems = []
    for entry in entries:
        speedup = entry.get("speedup")
        if speedup is None:
            continue
        if entry["path"] == "build" and entry["builder"] == "lbvh" and entry["log2_keys"] >= 18:
            if speedup < BUILD_SPEEDUP_TARGET:
                problems.append(
                    f"build lbvh 2^{entry['log2_keys']}: {speedup:.2f}x < {BUILD_SPEEDUP_TARGET}x"
                )
        if entry["path"] == "trace" and entry["log2_rays"] >= 16:
            if speedup < TRACE_SPEEDUP_TARGET:
                problems.append(
                    f"trace 2^{entry['log2_rays']} rays: {speedup:.2f}x < {TRACE_SPEEDUP_TARGET}x"
                )
        if (
            entry["path"] == "intersect"
            and entry["kind"] == "triangle"
            and entry["log2_pairs"] >= 20
        ):
            if speedup < INTERSECT_SPEEDUP_TARGET:
                problems.append(
                    f"intersect triangle 2^{entry['log2_pairs']} pairs: "
                    f"{speedup:.2f}x < {INTERSECT_SPEEDUP_TARGET}x"
                )
        if entry["path"] == "trace_firstk" and entry["log2_rays"] >= 16:
            if speedup < FIRSTK_SPEEDUP_TARGET:
                problems.append(
                    f"first_k 2^{entry['log2_rays']} range rays: "
                    f"{speedup:.2f}x < {FIRSTK_SPEEDUP_TARGET}x"
                )
        if entry["path"] == "paging" and entry["log2_keys"] >= 20:
            if speedup < PAGING_SPEEDUP_TARGET:
                problems.append(
                    f"paging 2^{entry['log2_range_rows']}-row scan, "
                    f"k={entry['page_size']}: resume {speedup:.2f}x < "
                    f"{PAGING_SPEEDUP_TARGET}x vs prefix rescan"
                )
        if entry["path"] == "restart" and entry["log2_keys"] >= 20:
            if speedup < RESTART_SPEEDUP_TARGET:
                problems.append(
                    f"restart 2^{entry['log2_keys']} keys: cold load "
                    f"{speedup:.2f}x < {RESTART_SPEEDUP_TARGET}x vs rebuild"
                )
    return problems


def format_table(entries: list[dict]) -> str:
    lines = [
        f"{'path':<15}{'config':<26}{'new (s)':>10}{'ref (s)':>10}{'speedup':>10}",
        "-" * 71,
    ]
    for entry in entries:
        if entry["path"] == "build":
            config = f"{entry['builder']} 2^{entry['log2_keys']} keys"
        elif entry["path"] == "build_forest":
            config = f"2^{entry['log2_keys']} keys, {entry['shards']} shards"
        elif entry["path"] == "trace_firstk":
            config = f"2^{entry['log2_rays']} rays k={entry['limit']}"
        elif entry["path"] in ("trace", "trace_anyhit"):
            config = f"2^{entry['log2_rays']} rays / 2^{entry['log2_keys']} keys"
        elif entry["path"] == "intersect":
            config = f"{entry['kind']} 2^{entry['log2_pairs']} pairs"
        elif entry["path"] == "paging":
            config = (
                f"2^{entry['log2_range_rows']} rows k={entry['page_size']}"
            )
        elif entry["path"] == "restart":
            config = (
                f"2^{entry['log2_keys']} keys "
                f"{entry['bytes_on_disk'] / 1e6:.0f} MB"
            )
        else:
            config = f"2^{entry['log2_keys']} keys"
        ref = entry.get("ref_seconds")
        speedup = entry.get("speedup")
        lines.append(
            f"{entry['path']:<15}{config:<26}{entry['new_seconds']:>10.3f}"
            f"{ref if ref is not None else float('nan'):>10.3f}"
            f"{speedup if speedup is not None else float('nan'):>9.2f}x"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small sizes only")
    parser.add_argument(
        "--strict", action="store_true", help="exit non-zero if targets are missed"
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_ARTIFACT, help="trajectory artifact path"
    )
    parser.add_argument(
        "--check-only",
        action="store_true",
        help="run the equivalence assertions at small sizes without timing "
        "thresholds or artifact writes (for CI)",
    )
    parser.add_argument(
        "--build-only",
        action="store_true",
        help="run only the forest-build scenario (forest vs single tree, "
        "splice timed and asserted bit-identical, artifact appended, no "
        "speed target; make bench-build)",
    )
    parser.add_argument(
        "--restart-only",
        action="store_true",
        help="run only the warm-restart scenario (cold snapshot load to "
        "first query vs full rebuild, identity asserted, artifact "
        "appended; the restart target is enforced at 2^20 keys and up; "
        "make bench-restart)",
    )
    parser.add_argument(
        "--scale",
        choices=("tiny", "paper"),
        default="tiny",
        help="key count of the --build-only / --restart-only scenarios: "
        "tiny = 2^20 (the CI gate), paper = 2^26 (the paper-scale column, "
        "several minutes of wall-clock)",
    )
    args = parser.parse_args(argv)

    if args.restart_only:
        log2_keys = 20 if args.scale == "tiny" else 26
        entries = [bench_restart(log2_keys)]
        append_artifact(entries, args.out)
        print(format_table(entries))
        problems = check_targets(entries)
        if problems:
            print("\nTARGETS MISSED:")
            for problem in problems:
                print(f"  - {problem}")
            return 1
        print("\nrestart target met")
        return 0

    if args.build_only:
        log2_keys = 20 if args.scale == "tiny" else 26
        entries = [bench_build_forest(log2_keys, shard_bits=6)]
        append_artifact(entries, args.out)
        print(format_table(entries))
        entry = entries[0]
        print(
            f"\nspliced forest bit-identical to the single tree; splice "
            f"{entry['splice_seconds']:.3f} s (no speed target)\n"
            f"traced build peak / kept: forest {entry['peak_bytes_per_key']:.1f} / "
            f"{entry['kept_bytes_per_key']:.1f} B/key, single tree "
            f"{entry['ref_peak_bytes_per_key']:.1f} / {entry['ref_kept_bytes_per_key']:.1f} B/key"
        )
        return 0

    if args.check_only:
        # Every bench function asserts observable equivalence against its
        # reference on the way; small sizes keep this cheap enough for CI.
        entries = run_smoke(quick=True)
        print(format_table(entries))
        print("\nequivalence checks passed (timings not enforced)")
        return 0

    entries = run_smoke(quick=args.quick)
    append_artifact(entries, args.out)
    print(format_table(entries))
    problems = check_targets(entries)
    if problems:
        print("\nTARGETS MISSED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1 if args.strict else 0
    print("\nall speedup targets met")
    return 0


if __name__ == "__main__":
    sys.exit(main())
