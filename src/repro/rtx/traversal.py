"""BVH traversal with hardware-style performance counters.

The traversal is *wavefront* style: instead of walking the tree one ray at a
time, a frontier of ``(ray, node)`` pairs is advanced level by level with
fully vectorised NumPy operations.  Functionally this is equivalent to the
per-ray stack traversal the RT cores perform; the counters it produces
(node visits, box tests, primitive intersection tests, bytes touched) are the
quantities the paper reads from Nsight Compute and that our GPU cost model
converts into simulated milliseconds.

A launch allocates in proportion to its rays and frontier, never to the
tree: the slab test gathers each frontier pair's box bounds straight from
per-axis column views of the BVH's ``(nodes, 3)`` box arrays (a random
gather costs the same from a strided column as from a contiguous copy), so
refits, compaction and mmap-loaded trees are traced in place.  Rounds reuse
a pair of preallocated child-expansion buffers, and a round with more than
:data:`FRONTIER_BLOCK` frontier pairs or leaf pairs runs its slab and
intersection tests in blocks of that many, which bounds their temporaries.
None of this changes observable behaviour — hit records and every counter
(including ``traversal_rounds`` and ``max_frontier_size``, which count the
*logical* frontier) are bit-identical with the reference loop in
:mod:`repro.rtx._reference` for any block size.

``trace`` supports three reporting modes: the default reports every
intersection of every ray; ``mode="first_k"`` is the limit-pushdown variant
— every lookup carries a remaining-hit budget of ``limit`` shared by all of
its rays, and a ray stops traversing once its lookup's budget is exhausted
(a point lookup fires one ray, so ``limit=1`` is the hardware any-hit
program ending the ray at its first hit); ``mode="ordered_k"`` is the
ordered top-k variant — every lookup keeps the ``limit`` hits sorting
smallest under ``(ray, hit_t, prim)`` (ascending ``(key, row_id)`` for
codec-built range rays), with frontier pairs that cannot beat the lookup's
current k-th candidate culled against their box-entry ``t``.  Both budgeted
modes compact finished rays out of the frontier (the budget/rank mask is
fused into the leaf/inner split so no separate compaction gather runs),
with the counters reflecting only the work actually executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.rtx.bvh import Bvh
from repro.rtx.geometry import PrimitiveBuffer, RayBatch

#: A round with more (ray, node) frontier pairs, or more (ray, primitive)
#: leaf pairs, than this runs their slab or intersection tests in blocks of
#: this many, bounding the per-pair temporaries of huge launches.  A pure
#: execution-schedule constant: hits and counters are bit-identical for any
#: block size.  No launch of the repository's benchmark workloads reaches it.
FRONTIER_BLOCK = 1 << 20


@dataclass(slots=True)
class TraversalCounters:
    """Counters of one traced ray batch.

    Slotted, and built positionally in field order by the grouped-launch
    split (:meth:`_GroupCounterRecorder.finalize`): the serving layer makes
    one per launched request.
    """

    rays: int = 0
    node_visits: int = 0
    #: (ray, leaf) pairs among the node visits — the slice of the traversal
    #: that issues primitive tests; lets the cost model split inner descent
    #: from leaf-phase work.
    leaf_visits: int = 0
    box_tests: int = 0
    prim_tests: int = 0
    prim_hits: int = 0
    #: Hits that survived intersection + any-hit filtering but were discarded
    #: because their lookup's budget was already spent (first_k) or its
    #: ordered pool displaced them (ordered_k).  Zero in all-hits mode.  A
    #: per-ray hardware traversal would have terminated before producing
    #: these, so the ratio
    #: ``prim_hits / (prim_hits + budget_dropped_hits)`` measures how much of
    #: the leaf-phase work the wavefront schedule could not skip.
    budget_dropped_hits: int = 0
    rays_with_hits: int = 0
    rays_without_hits: int = 0
    node_bytes_read: int = 0
    prim_bytes_read: int = 0
    hardware_intersection_tests: int = 0
    software_intersection_calls: int = 0
    max_frontier_size: int = 0
    traversal_rounds: int = 0

    @property
    def node_visits_per_ray(self) -> float:
        return self.node_visits / self.rays if self.rays else 0.0

    @property
    def prim_tests_per_ray(self) -> float:
        return self.prim_tests / self.rays if self.rays else 0.0

    def as_dict(self) -> dict:
        return {
            "rays": self.rays,
            "node_visits": self.node_visits,
            "leaf_visits": self.leaf_visits,
            "box_tests": self.box_tests,
            "prim_tests": self.prim_tests,
            "prim_hits": self.prim_hits,
            "budget_dropped_hits": self.budget_dropped_hits,
            "rays_with_hits": self.rays_with_hits,
            "rays_without_hits": self.rays_without_hits,
            "node_bytes_read": self.node_bytes_read,
            "prim_bytes_read": self.prim_bytes_read,
            "hardware_intersection_tests": self.hardware_intersection_tests,
            "software_intersection_calls": self.software_intersection_calls,
            "max_frontier_size": self.max_frontier_size,
            "traversal_rounds": self.traversal_rounds,
        }


@dataclass(slots=True)
class HitRecords:
    """All (ray, primitive) hits of a traced batch, in structure-of-arrays form.

    ``ray_indices[i]`` is the index of the ray *within the traced batch* and
    ``prim_indices[i]`` the primitive it hit.  ``lookup_ids[i]`` maps the hit
    back to the originating lookup (several rays can serve one lookup in 3D
    Mode range queries).
    """

    ray_indices: np.ndarray
    prim_indices: np.ndarray
    lookup_ids: np.ndarray
    num_rays: int

    @property
    def count(self) -> int:
        return int(self.ray_indices.shape[0])


#: Ids below this bound fit a uint16, whose stable sort NumPy runs as a
#: radix sort.
_RADIX_IDS = 1 << 16


def stable_order(ids: np.ndarray) -> np.ndarray:
    """``np.argsort(ids, kind="stable")`` for non-negative integer ``ids``.

    When every id is below 2^16 (every serve launch at the default
    ``max_batch`` of 4,096 lookups a window) the ids are sorted as a uint16
    copy, which NumPy's stable sort orders by radix in a few linear passes
    instead of an int64 merge sort.  Wider ids keep the int64 sort.  Both
    are stable sorts of the same values, so they return the same
    permutation.
    """
    if ids.size and ids.max() < _RADIX_IDS:
        return np.argsort(ids.astype(np.uint16), kind="stable")
    return np.argsort(ids, kind="stable")


def _group_ranks(sorted_owners: np.ndarray):
    """Split a non-empty, sorted owner array into runs of equal owners.

    Returns ``(group_starts, counts, ranks)``: the index where each run
    starts, each run's length, and every element's rank within its run.
    """
    is_first = np.empty(sorted_owners.shape[0], dtype=bool)
    is_first[0] = True
    np.not_equal(sorted_owners[1:], sorted_owners[:-1], out=is_first[1:])
    group_starts = np.flatnonzero(is_first)
    counts = np.diff(np.append(group_starts, sorted_owners.shape[0]))
    ranks = np.arange(sorted_owners.shape[0], dtype=np.int64) - np.repeat(
        group_starts, counts
    )
    return group_starts, counts, ranks


def _cut_to_budget(owners: np.ndarray, budget: np.ndarray) -> tuple[np.ndarray, bool]:
    """Keep, in stream order, at most ``budget[owner]`` hits per owner.

    ``owners`` assigns every hit of one chunk to its originating lookup.
    Returns the boolean keep-mask plus whether any lookup's budget reached
    zero, and decrements ``budget`` in place by the number of kept hits.
    One stable sort (:func:`stable_order`) ranks each hit within its
    lookup's hits, so the kept hits are exactly the first ``budget[owner]``
    of the stream — for a point lookup's single ray and a budget of one
    this is "first hit per ray", the any-hit program semantics.
    """
    order = stable_order(owners)
    sorted_owners = owners[order]
    group_starts, counts, ranks = _group_ranks(sorted_owners)
    keep_sorted = ranks < budget[sorted_owners]
    keep = np.empty_like(keep_sorted)
    keep[order] = keep_sorted
    unique_owners = sorted_owners[group_starts]
    budget[unique_owners] -= np.minimum(counts, budget[unique_owners])
    return keep, bool((budget[unique_owners] == 0).any())


def _pool_order(
    lookups: np.ndarray, rays: np.ndarray, ts: np.ndarray, prims: np.ndarray
) -> np.ndarray:
    """The permutation sorting candidates by ``(lookup, ray, t, prim)``.

    Equal to ``np.lexsort((prims, ts, rays, lookups))``: a ray tests each
    primitive at most once, so ``(ray, prim)`` is unique within a trace and
    the order is total — any correct sort yields the same permutation.  The
    sort is built from the keys' least significant end: the default
    argsort of ``t``, a stable sort by ray, a re-sort by prim of the rare
    runs of equal ``(ray, t)`` (as :func:`repro.rtx.bvh.sort_codes` repairs
    equal-code runs), then a stable sort by lookup.  ``t`` is compared by
    value, so ``-0.0`` and ``+0.0`` tie exactly as they do in lexsort; a
    hit's ``t`` passed an ordered comparison, so it is never NaN.
    """
    order = np.argsort(ts)
    order = order[stable_order(rays[order])]
    sorted_rays = rays[order]
    sorted_ts = ts[order]
    same = (sorted_rays[1:] == sorted_rays[:-1]) & (sorted_ts[1:] == sorted_ts[:-1])
    if same.any():
        tied = np.flatnonzero(np.r_[same, False] | np.r_[False, same])
        run = np.cumsum(np.r_[True, ~same[tied[1:] - 1]])
        tied_order = order[tied]
        tied_prims = prims[tied_order]
        # (run, prim) is unique, so the packed keys are distinct.
        packed = run * (int(tied_prims.max()) + 1) + tied_prims
        order[tied] = tied_order[np.argsort(packed)]
    return order[stable_order(lookups[order])]


class _OrderedKState:
    """Per-lookup t-ordered top-k candidate pools for ``mode="ordered_k"``.

    Each lookup keeps the ``k`` candidates that sort smallest under the
    lexicographic key ``(ray_index, hit_t, prim_index)``.  The pool arrays
    are maintained globally sorted by ``(lookup, ray, t, prim)``, so the
    final hit records fall out of them directly and the per-lookup bound
    (the k-th best candidate of a full pool) is one gather away.  Merging a
    candidate chunk is one sort of pool plus chunk (:func:`_pool_order`)
    and the same rank-within-group helper as :func:`_cut_to_budget` —
    set-based, so the surviving pool and the total number of displaced
    candidates are independent of how the round's candidates were chunked,
    matching the sequential insertion loop of the golden reference exactly.
    """

    def __init__(self, num_lookups: int, k: int, owners: np.ndarray):
        self.k = int(k)
        self.owners = owners
        self.lookups = np.zeros(0, dtype=np.int64)
        self.rays = np.zeros(0, dtype=np.int64)
        self.ts = np.zeros(0, dtype=np.float64)
        self.prims = np.zeros(0, dtype=np.int64)
        #: per-lookup bound state, valid after :meth:`refresh_bounds`
        self.full = np.zeros(num_lookups, dtype=bool)
        self.bound_ray = np.zeros(num_lookups, dtype=np.int64)
        self.bound_t = np.zeros(num_lookups, dtype=np.float64)

    def merge(
        self, cand_rays: np.ndarray, cand_t: np.ndarray, cand_prims: np.ndarray
    ) -> np.ndarray:
        """Fold one candidate chunk into the pools; returns the rays of the
        displaced entries (candidates that missed plus pool entries they
        evicted) for drop accounting."""
        all_l = np.concatenate([self.lookups, self.owners[cand_rays]])
        all_r = np.concatenate([self.rays, cand_rays])
        all_t = np.concatenate([self.ts, cand_t])
        all_p = np.concatenate([self.prims, cand_prims])
        order = _pool_order(all_l, all_r, all_t, all_p)
        sorted_l = all_l[order]
        keep = _group_ranks(sorted_l)[2] < self.k
        kept = order[keep]
        self.lookups = sorted_l[keep]
        self.rays = all_r[kept]
        self.ts = all_t[kept]
        self.prims = all_p[kept]
        return all_r[order[~keep]]

    def refresh_bounds(self) -> None:
        """Recompute each full pool's k-th best (ray, t) bound."""
        self.full[:] = False
        if self.lookups.size == 0:
            return
        # Pools never exceed k, so a pool is full exactly when it holds an
        # entry of rank k - 1 — its bound.
        bound_idx = np.flatnonzero(_group_ranks(self.lookups)[2] == self.k - 1)
        full_lookups = self.lookups[bound_idx]
        self.full[full_lookups] = True
        self.bound_ray[full_lookups] = self.rays[bound_idx]
        self.bound_t[full_lookups] = self.ts[bound_idx]

    def slab_keep_mask(self, pair_rays: np.ndarray, entry_t: np.ndarray) -> np.ndarray:
        """Keep-mask over frontier pairs against the frozen round-start
        bounds: a pair is hopeless when its ray sorts after the bound's ray,
        or its box-entry t sorts strictly after the bound's t on the bound's
        own ray (every hit inside the box has ``t >= entry``).  Equality
        keeps the pair — a t-equal hit with a smaller prim index could still
        enter the pool."""
        own = self.owners[pair_rays]
        bound_ray = self.bound_ray[own]
        cull = self.full[own] & (
            (pair_rays > bound_ray)
            | ((pair_rays == bound_ray) & (entry_t > self.bound_t[own]))
        )
        return ~cull

    def rank_keep_mask(self, pair_rays: np.ndarray) -> np.ndarray:
        """Keep-mask for the inner-pair compaction: after the round's merges,
        rays sorting after their lookup's bound ray can no longer contribute
        (their t is unknown here; the child's own slab cull handles it next
        round)."""
        own = self.owners[pair_rays]
        return ~(self.full[own] & (pair_rays > self.bound_ray[own]))


def _frontier_box_overlap(
    origins32: np.ndarray,
    directions32: np.ndarray,
    node_tmin32: np.ndarray,
    tmax32: np.ndarray,
    node_mins32: np.ndarray,
    node_maxs32: np.ndarray,
    frontier_rays: np.ndarray,
    frontier_nodes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Slab test of frontier (ray, node) pairs: ``(overlap mask, entry t)``.

    Performs the same float64 arithmetic as
    :func:`repro.rtx.geometry.ray_box_overlap_pairs` — results are
    bit-identical — but specialises each axis on whether *any* ray of the
    frontier is parallel to it.  The paper's workloads trace axis-aligned
    rays (point rays along z, range rays along x), so two of the three axes
    take the all-parallel fast path, which needs only an in-slab test, and
    the remaining axis skips the parallel blends entirely.  Rays and boxes
    arrive as ``(n, 3)`` arrays; every per-pair gather takes one axis column
    view, so nothing of size O(nodes) is copied.

    The per-pair box-entry ``t`` is ``lo`` after all axes (parallel axes
    leave it untouched, exactly like the reference's blend); the ordered
    top-k mode culls against it.
    """
    lo = node_tmin32[frontier_rays].astype(np.float64)
    hi = tmax32[frontier_rays].astype(np.float64)
    ok: np.ndarray | None = None
    with np.errstate(divide="ignore", invalid="ignore"):
        for axis in range(3):
            da32 = directions32[:, axis][frontier_rays]
            # Float32 directions convert to float64 magnitudes of at least
            # ~1.4e-45, so the reference's |d| < 1e-300 test is exactly a
            # zero test on the raw float32 values.
            parallel = da32 == np.float32(0.0)
            n_parallel = np.count_nonzero(parallel)
            if n_parallel == parallel.shape[0]:
                # Whole frontier parallel to this axis (axis-aligned ray
                # batches): only the in-slab test matters, and float32
                # comparisons equal the reference's compare-after-convert.
                oa32 = origins32[:, axis][frontier_rays]
                inside = (oa32 >= node_mins32[:, axis][frontier_nodes]) & (
                    oa32 <= node_maxs32[:, axis][frontier_nodes]
                )
                ok = inside if ok is None else (ok & inside)
                continue
            da = da32.astype(np.float64)
            oa = origins32[:, axis][frontier_rays].astype(np.float64)
            bmin = node_mins32[:, axis][frontier_nodes].astype(np.float64)
            bmax = node_maxs32[:, axis][frontier_nodes].astype(np.float64)
            if n_parallel == 0:
                inv = 1.0 / da
                t0 = (bmin - oa) * inv
                t1 = (bmax - oa) * inv
                np.maximum(lo, np.minimum(t0, t1), out=lo)
                np.minimum(hi, np.maximum(t0, t1), out=hi)
            else:
                inv = np.where(parallel, np.inf, 1.0 / np.where(parallel, 1.0, da))
                t0 = (bmin - oa) * inv
                t1 = (bmax - oa) * inv
                near = np.minimum(t0, t1)
                far = np.maximum(t0, t1)
                lo = np.where(parallel, lo, np.maximum(lo, near))
                hi = np.where(parallel, hi, np.minimum(hi, far))
                inside = (oa >= bmin) & (oa <= bmax)
                miss = parallel & ~inside
                ok = ~miss if ok is None else (ok & ~miss)
    result = lo <= hi
    if ok is not None:
        result &= ok
    return result, lo


class _GroupCounterRecorder:
    """Attributes one trace's counters to per-ray groups (serving demux).

    The wavefront schedule interleaves the rays of a coalesced launch, but a
    ray's survival and per-round (ray, node) pairs depend only on its own
    geometry and its own budget owner, so every counter can be attributed to
    the group that owns the ray.  The recorder accumulates, per group, the
    same quantities ``TraversalCounters`` accumulates globally — including
    ``traversal_rounds`` (rounds where the group still had frontier pairs)
    and ``max_frontier_size`` (the group's own per-round peak) — yielding
    counters bit-identical to tracing each group's rays in a solo launch.
    """

    def __init__(self, groups: np.ndarray, num_groups: int):
        self.groups = groups
        self.num_groups = num_groups
        self.node_visits = np.zeros(num_groups, dtype=np.int64)
        self.leaf_visits = np.zeros(num_groups, dtype=np.int64)
        self.prim_tests = np.zeros(num_groups, dtype=np.int64)
        self.budget_dropped = np.zeros(num_groups, dtype=np.int64)
        self.rounds = np.zeros(num_groups, dtype=np.int64)
        self.max_frontier_size = np.zeros(num_groups, dtype=np.int64)

    def on_round(self, frontier_rays: np.ndarray) -> None:
        counts = np.bincount(self.groups[frontier_rays], minlength=self.num_groups)
        self.node_visits += counts
        self.rounds += counts > 0
        np.maximum(self.max_frontier_size, counts, out=self.max_frontier_size)

    def on_leaves(self, leaf_rays: np.ndarray) -> None:
        if leaf_rays.size:
            self.leaf_visits += np.bincount(
                self.groups[leaf_rays], minlength=self.num_groups
            )

    def on_prim_tests(self, pair_rays: np.ndarray) -> None:
        if pair_rays.size:
            self.prim_tests += np.bincount(
                self.groups[pair_rays], minlength=self.num_groups
            )

    def on_budget_drops(self, dropped_rays: np.ndarray) -> None:
        if dropped_rays.size:
            self.budget_dropped += np.bincount(
                self.groups[dropped_rays], minlength=self.num_groups
            )

    def finalize(
        self,
        ray_indices: np.ndarray,
        ray_has_hit: np.ndarray,
        node_bytes: int,
        per_prim_bytes: int,
        hardware: bool,
    ) -> list[TraversalCounters]:
        """Split the finished trace into one ``TraversalCounters`` per group.

        ``ray_has_hit`` is the per-ray "reported at least one hit" mask the
        trace already computed for its global counters.  The per-group
        columns are stacked into one ``(15, groups)`` table whose rows are
        the ``TraversalCounters`` fields in declaration order, so one
        ``tolist`` of its transpose yields each group's counters as a
        positional argument row.
        """
        n = self.num_groups
        rays = np.bincount(self.groups, minlength=n)
        with_hits = np.bincount(self.groups[ray_has_hit], minlength=n)
        tests = self.prim_tests
        none = np.zeros_like(tests)
        table = np.stack(
            [
                rays,
                self.node_visits,
                self.leaf_visits,
                self.node_visits,  # box_tests: one slab test per visit
                tests,
                np.bincount(self.groups[ray_indices], minlength=n),  # prim_hits
                self.budget_dropped,
                with_hits,
                rays - with_hits,
                self.node_visits * node_bytes,
                tests * per_prim_bytes,
                tests if hardware else none,
                none if hardware else tests,
                self.max_frontier_size,
                self.rounds,
            ]
        )
        return [TraversalCounters(*row) for row in table.T.tolist()]


@dataclass
class TraversalEngine:
    """Traces ray batches against a BVH over a primitive buffer."""

    bvh: Bvh
    primitives: PrimitiveBuffer
    #: Counters of the most recent ``trace`` call, which replaces them.
    counters: TraversalCounters = field(default_factory=TraversalCounters)
    #: Per-group counters of the most recent ``trace(..., ray_groups=...)``
    #: call (None when the last trace did not request grouping).  Each entry
    #: is bit-identical to the counters a solo launch of that group's rays
    #: would produce — the demux contract of the serving layer.  The entries
    #: are built eagerly from one ``(15, groups)`` int64 table (one row per
    #: counter field, one column per group) and own their values, so a
    #: cached per-request result never pins its launch's table.
    group_counters: list[TraversalCounters] | None = field(default=None, repr=False)

    def trace(
        self,
        rays: RayBatch,
        any_hit=None,
        mode: str = "all",
        limit: int | None = None,
        ray_groups: np.ndarray | None = None,
    ) -> HitRecords:
        """Trace all rays and return their (ray, primitive) intersections.

        ``any_hit`` optionally mimics the OptiX any-hit program: it receives
        ``(ray_indices, prim_indices, lookup_ids)`` and returns a boolean mask
        selecting the hits to keep (e.g. software filtering for AABB
        primitives).

        ``mode`` selects the reporting semantics:

        * ``"all"`` (default) — report every intersection of every ray; the
          ``any_hit`` filter is applied once to the accumulated hit list.
        * ``"first_k"`` — early-exit traversal: every *lookup* carries a
          remaining-hit budget of ``limit``, shared by all of its rays
          (``rays.lookup_ids``).  Hits are recorded in traversal-stream
          order until the budget is exhausted, then every ray of the lookup
          terminates.  The reported hits per lookup equal the first
          ``limit`` surviving hits the default mode would report for it (a
          stable top-k cut of the all-hits stream).  Limit-pushdown range
          lookups use it, and so do point lookups on duplicate-free
          columns: one ray per lookup with ``limit=1`` ends each ray at its
          first surviving hit, the way the any-hit program ends it on RT
          hardware.
        * ``"ordered_k"`` — ordered top-k traversal: every lookup keeps the
          ``limit`` surviving hits that sort smallest under the
          lexicographic key ``(ray_index, hit_t, prim_index)``, reported in
          that order (not traversal-stream order).  For codec-built range
          rays this is exactly ascending ``(key, row_id)``, i.e. a true
          ``ORDER BY key LIMIT k``.  Each candidate's ``hit_t`` comes from
          the intersection test that found it
          (``intersect_pairs(..., with_t=True)``), the evaluation
          ``hit_t_pairs`` repeats for the golden reference.  Nodes whose
          box-entry ``t`` (and rays whose index) sort after a lookup's
          current k-th best candidate are culled from the frontier, so
          unbalanced trees prune like a per-ray ordered traversal would.

        In the two budgeted modes finished rays are compacted out of the
        frontier between rounds, so the counters reflect only the traversal
        work actually executed, and the ``any_hit`` filter is applied
        eagerly per leaf chunk — it must be elementwise (decide each hit on
        its own), exactly like a real any-hit program.  ``limit`` is
        required by, and only meaningful with, the budgeted modes.

        ``ray_groups`` optionally assigns every ray to a demux group (an
        int array of group ids, one per ray).  After the trace,
        ``self.group_counters`` holds one :class:`TraversalCounters` per
        group, each bit-identical to what a solo trace of only that group's
        rays would have produced — provided all rays of a lookup belong to
        one group (they share the lookup's budget).  Grouping does not
        change the traversal or the global counters in any way.
        """
        if mode not in ("all", "first_k", "ordered_k"):
            raise ValueError(
                f"unknown trace mode {mode!r}; use 'all', 'first_k' or 'ordered_k'"
            )
        if mode in ("first_k", "ordered_k"):
            if limit is None:
                raise ValueError(f"mode={mode!r} requires a hit limit")
            limit = int(limit)
            if limit < 1:
                raise ValueError(f"limit must be at least 1, got {limit}")
        elif limit is not None:
            raise ValueError(
                f"limit is only meaningful with mode 'first_k' or 'ordered_k', "
                f"not {mode!r}"
            )
        ordered = mode == "ordered_k"
        early_exit = mode == "first_k"
        self.group_counters = None
        recorder: _GroupCounterRecorder | None = None
        if ray_groups is not None:
            groups = np.asarray(ray_groups, dtype=np.int64).reshape(-1)
            if groups.shape[0] != len(rays):
                raise ValueError(
                    f"ray_groups must assign one group per ray: got "
                    f"{groups.shape[0]} groups for {len(rays)} rays"
                )
            if groups.size and int(groups.min()) < 0:
                raise ValueError("ray_groups must be non-negative group ids")
            num_groups = int(groups.max()) + 1 if groups.size else 0
            recorder = _GroupCounterRecorder(groups, num_groups)
        counters = TraversalCounters()
        counters.rays = len(rays)
        bvh = self.bvh
        node_bytes = bvh.node_bytes()
        # Bytes charged per primitive intersection test (the primitive data
        # the accel embeds).
        per_prim_bytes = max(
            self.primitives.primitive_bytes() // max(len(self.primitives), 1), 1
        )

        n_rays = len(rays)
        hit_rays: list[np.ndarray] = []
        hit_prims: list[np.ndarray] = []
        # Early-exit bookkeeping: every hit consumes one unit of its
        # lookup's budget, and a ray whose lookup is exhausted drops out of
        # the frontier.
        owners = rays.lookup_ids
        budget: np.ndarray | None = None
        pool: _OrderedKState | None = None
        if early_exit and n_rays:
            budget = np.full(int(owners.max()) + 1, limit, dtype=np.int64)
        elif ordered and n_rays:
            pool = _OrderedKState(int(owners.max()) + 1, limit, owners)

        if n_rays > 0 and bvh.node_count > 0:
            # The RTX hardware culls BVH nodes against the ray's *far* limit
            # (tmax) but applies the *near* limit (tmin) only when testing
            # primitives — the paper's Figure 6 / Table 3 measurements (rays
            # "from zero" far slower than offset rays over identical
            # segments) are only explainable this way.  So nodes in front of
            # the origin but before tmin are still visited; only their
            # primitive hits are rejected later.
            node_tmin = np.minimum(rays.tmin, np.float32(0.0))

            origins = rays.origins
            directions = rays.directions
            prim_lo = rays.tmin
            t_hi = rays.tmax
            mins, maxs = bvh.node_mins, bvh.node_maxs
            left = bvh.left

            block = FRONTIER_BLOCK
            frontier_rays = np.arange(n_rays, dtype=np.int64)
            frontier_nodes = np.zeros(n_rays, dtype=np.int64)
            # Reused child-expansion buffers (grown geometrically); the
            # frontier for the next round is a view into the active one.
            child_rays = np.empty(0, dtype=np.int64)
            child_nodes = np.empty(0, dtype=np.int64)

            while frontier_rays.size:
                fsize = int(frontier_rays.size)
                counters.traversal_rounds += 1
                if fsize > counters.max_frontier_size:
                    counters.max_frontier_size = fsize
                counters.node_visits += fsize
                counters.box_tests += fsize
                counters.node_bytes_read += fsize * node_bytes
                if recorder is not None:
                    recorder.on_round(frontier_rays)

                if fsize <= block:
                    overlap, entry = _frontier_box_overlap(
                        origins, directions, node_tmin, t_hi,
                        mins, maxs, frontier_rays, frontier_nodes,
                    )
                else:
                    overlap = np.empty(fsize, dtype=bool)
                    entry = np.empty(fsize, dtype=np.float64)
                    for lo_idx in range(0, fsize, block):
                        hi_idx = lo_idx + block
                        overlap[lo_idx:hi_idx], entry[lo_idx:hi_idx] = (
                            _frontier_box_overlap(
                                origins, directions, node_tmin, t_hi,
                                mins, maxs,
                                frontier_rays[lo_idx:hi_idx],
                                frontier_nodes[lo_idx:hi_idx],
                            )
                        )
                frontier_rays = frontier_rays[overlap]
                frontier_nodes = frontier_nodes[overlap]
                if frontier_rays.size == 0:
                    break
                if pool is not None:
                    # Ordered cull against the bounds frozen at round start
                    # (the previous round's refresh): pairs that cannot beat
                    # their lookup's k-th candidate drop out before the
                    # leaf/inner split, so neither their primitive tests nor
                    # their children happen.
                    keep = pool.slab_keep_mask(frontier_rays, entry[overlap])
                    frontier_rays = frontier_rays[keep]
                    frontier_nodes = frontier_nodes[keep]
                    if frontier_rays.size == 0:
                        break

                is_leaf = left[frontier_nodes] < 0
                leaf_rays = frontier_rays[is_leaf]
                leaf_nodes = frontier_nodes[is_leaf]
                counters.leaf_visits += int(leaf_rays.size)
                if recorder is not None:
                    recorder.on_leaves(leaf_rays)
                terminated_this_round = False
                if leaf_rays.size:
                    pair_rays, pair_prims = self._expand_leaf_pairs(leaf_rays, leaf_nodes)
                    npairs = int(pair_prims.size)
                    counters.prim_tests += npairs
                    counters.prim_bytes_read += npairs * per_prim_bytes
                    if recorder is not None:
                        recorder.on_prim_tests(pair_rays)
                    if self.primitives.hardware_intersection:
                        counters.hardware_intersection_tests += npairs
                    else:
                        counters.software_intersection_calls += npairs
                    for lo_idx in range(0, npairs, block):
                        sub_rays = pair_rays[lo_idx : lo_idx + block]
                        sub_prims = pair_prims[lo_idx : lo_idx + block]
                        # Ordered mode also takes each hit's t from the
                        # test that found it.  ``np.take`` gathers the
                        # (pairs, 3) ray rows several times faster than
                        # fancy indexing, with the same values.
                        tested = self.primitives.intersect_pairs(
                            np.take(origins, sub_rays, axis=0),
                            np.take(directions, sub_rays, axis=0),
                            prim_lo[sub_rays],
                            t_hi[sub_rays],
                            sub_prims,
                            with_t=ordered,
                        )
                        mask, cand_t = tested if ordered else (tested, None)
                        sub_hit_rays = sub_rays[mask]
                        sub_hit_prims = sub_prims[mask]
                        if early_exit or ordered:
                            # Run the any-hit program on each intersection as
                            # it is found; only surviving hits consume budget
                            # (or compete for a pool slot).
                            if any_hit is not None and sub_hit_rays.size:
                                keep = np.asarray(
                                    any_hit(
                                        sub_hit_rays,
                                        sub_hit_prims,
                                        rays.lookup_ids[sub_hit_rays],
                                    ),
                                    dtype=bool,
                                )
                                sub_hit_rays = sub_hit_rays[keep]
                                sub_hit_prims = sub_hit_prims[keep]
                                if ordered:
                                    cand_t = cand_t[keep]
                        if pool is not None:
                            # Ordered mode: candidates are merged into their
                            # lookup's top-k pool instead of the hit stream;
                            # displaced entries count as budget drops.
                            if sub_hit_rays.size:
                                dropped = pool.merge(
                                    sub_hit_rays, cand_t, sub_hit_prims
                                )
                                counters.budget_dropped_hits += int(dropped.size)
                                if recorder is not None:
                                    recorder.on_budget_drops(dropped)
                            continue
                        if early_exit and sub_hit_rays.size:
                            own = owners[sub_hit_rays]
                            keep, exhausted = _cut_to_budget(own, budget)
                            counters.budget_dropped_hits += int(
                                own.shape[0] - np.count_nonzero(keep)
                            )
                            if recorder is not None:
                                recorder.on_budget_drops(sub_hit_rays[~keep])
                            sub_hit_rays = sub_hit_rays[keep]
                            sub_hit_prims = sub_hit_prims[keep]
                            if exhausted:
                                terminated_this_round = True
                        hit_rays.append(sub_hit_rays)
                        hit_prims.append(sub_hit_prims)

                inner_mask = ~is_leaf
                if early_exit and terminated_this_round:
                    # Terminated rays drop out of the frontier between rounds,
                    # exactly like hardware ending a ray whose budget ran dry;
                    # the next round's counters only see survivors.  The alive
                    # mask is fused into the leaf/inner split so the children
                    # of dead rays are never materialised and no separate
                    # post-expansion compaction gather runs.  (Earlier
                    # terminations were compacted in their own round, so this
                    # only triggers when a ray died this round.)
                    inner_mask &= budget[owners[frontier_rays]] > 0
                if pool is not None:
                    # Re-derive the bounds from the pools the round's merges
                    # just updated; they compact hopeless rays out of the
                    # inner frontier now and freeze as the next round's
                    # slab-cull bounds.
                    pool.refresh_bounds()
                    inner_mask &= pool.rank_keep_mask(frontier_rays)
                inner_rays = frontier_rays[inner_mask]
                inner_nodes = frontier_nodes[inner_mask]
                n_inner = int(inner_rays.size)
                if n_inner:
                    if child_rays.shape[0] < 2 * n_inner:
                        child_rays = np.empty(2 * n_inner, dtype=np.int64)
                        child_nodes = np.empty(2 * n_inner, dtype=np.int64)
                    next_rays = child_rays[: 2 * n_inner]
                    next_nodes = child_nodes[: 2 * n_inner]
                    next_rays[:n_inner] = inner_rays
                    next_rays[n_inner:] = inner_rays
                    next_nodes[:n_inner] = left[inner_nodes]
                    np.add(next_nodes[:n_inner], 1, out=next_nodes[n_inner:])
                    frontier_rays = next_rays
                    frontier_nodes = next_nodes
                else:
                    frontier_rays = np.zeros(0, dtype=np.int64)
                    frontier_nodes = np.zeros(0, dtype=np.int64)

        if pool is not None:
            # The pools are maintained sorted by (lookup, ray, t, prim), so
            # they already are the ordered hit stream.
            ray_indices = pool.rays
            prim_indices = pool.prims
        elif hit_rays:
            ray_indices = np.concatenate(hit_rays)
            prim_indices = np.concatenate(hit_prims)
        else:
            ray_indices = np.zeros(0, dtype=np.int64)
            prim_indices = np.zeros(0, dtype=np.int64)

        lookup_ids = rays.lookup_ids[ray_indices] if ray_indices.size else ray_indices
        if mode == "all" and any_hit is not None and ray_indices.size:
            keep = np.asarray(any_hit(ray_indices, prim_indices, lookup_ids), dtype=bool)
            ray_indices = ray_indices[keep]
            prim_indices = prim_indices[keep]
            lookup_ids = lookup_ids[keep]

        counters.prim_hits = int(ray_indices.size)
        # A bincount mask, not ``np.unique``: NumPy >= 2.3 runs unique
        # through a hash table, ~20x slower at a few thousand hits.
        ray_has_hit = np.bincount(ray_indices, minlength=n_rays) > 0
        rays_hit = int(np.count_nonzero(ray_has_hit))
        counters.rays_with_hits = rays_hit
        counters.rays_without_hits = n_rays - rays_hit

        if recorder is not None:
            self.group_counters = recorder.finalize(
                ray_indices,
                ray_has_hit,
                node_bytes,
                per_prim_bytes,
                self.primitives.hardware_intersection,
            )
        self.counters = counters
        return HitRecords(
            ray_indices=ray_indices,
            prim_indices=prim_indices,
            lookup_ids=lookup_ids,
            num_rays=n_rays,
        )

    def _expand_leaf_pairs(self, leaf_rays: np.ndarray, leaf_nodes: np.ndarray):
        """Expand (ray, leaf) pairs into element-wise (ray, primitive) pairs."""
        bvh = self.bvh
        counts = bvh.prim_count[leaf_nodes]
        firsts = bvh.first_prim[leaf_nodes]
        total = int(counts.sum())
        if total == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        pair_rays = np.repeat(leaf_rays, counts)
        # Position of each expanded pair within its leaf's primitive range.
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        within = np.arange(total, dtype=np.int64) - offsets
        slot = np.repeat(firsts, counts) + within
        pair_prims = bvh.prim_indices[slot]
        return pair_rays, pair_prims
