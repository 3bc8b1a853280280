"""The OptiX-shaped front-end: accel build, compaction, pipeline launch.

The names follow the OptiX 7 host API so that :class:`repro.core.rx_index.RXIndex`
reads like the CUDA/OptiX code described in the paper:

* :func:`accel_build`   — ``optixAccelBuild`` (build operation)
* :func:`accel_compact` — ``optixAccelCompact``
* :func:`accel_update`  — ``optixAccelBuild`` (update operation / refit)
* :class:`Pipeline` and :meth:`Pipeline.launch` — ``optixPipeline`` + ``optixLaunch``

A launch takes the rays the ray-generation step made (the paper spawns one
thread per lookup and builds its rays there), traces them against the
accel, and feeds every intersection to the launch's any-hit program.
:func:`repro.rtx.memory.accel_memory_estimate` models the accel's device
memory.

The ``accel_*`` functions call :func:`build_bvh`, :func:`build_forest`,
:func:`compact_accel` and :func:`delta_update_forest` through this
module's globals, so a tracer (``rxbench/spans.py``) can wrap each stage
by patching its name here.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.rtx.bvh import Bvh, BvhBuildOptions, build_bvh
from repro.rtx.forest import BvhForest, DeltaUpdateStats, build_forest, delta_update_forest
from repro.rtx.geometry import PrimitiveBuffer, RayBatch
from repro.rtx.refit import RefitResult, refit_accel
from repro.rtx.traversal import HitRecords, TraversalCounters, TraversalEngine


@dataclass
class GeometryAccel:
    """A built geometry acceleration structure (GAS): the functional BVH
    and the primitive buffer it indexes."""

    bvh: Bvh
    buffer: PrimitiveBuffer
    #: set for sharded builds: the forest bookkeeping over ``bvh`` (the same
    #: tree a single-tree build emits, cut into Morton-prefix shards),
    #: enabling delta-shard updates via :func:`accel_delta_update` and
    #: per-shard saves
    forest: BvhForest | None = None

    @property
    def compacted(self) -> bool:
        return self.bvh.compacted


def accel_build(buffer: PrimitiveBuffer, options: BvhBuildOptions | None = None) -> GeometryAccel:
    """Build a geometry acceleration structure over ``buffer``.

    Mirrors ``optixAccelBuild`` with the build operation.  ``options``
    (default :class:`BvhBuildOptions`) carries the builder knobs and the
    update flag a later refit needs (``allow_update``).
    """
    options = options or BvhBuildOptions()
    forest = None
    if options.shard_bits:
        forest = build_forest(buffer, options)
        bvh = forest.bvh
    else:
        bvh = build_bvh(buffer, options)
    return GeometryAccel(bvh=bvh, buffer=buffer, forest=forest)


def compact_accel(bvh: Bvh) -> Bvh:
    """The compacted copy of ``bvh``: the same tree, flagged compacted.

    Compaction copies the accel into a tightly packed buffer, roughly
    halving its modelled footprint for triangle BVHs (Section 3.5 / Figure
    7c, :func:`repro.rtx.memory.accel_memory_estimate`).  Raises
    ``ValueError`` for a tree built with ``allow_update``: OptiX accepts
    the call but compaction has no effect there (Section 3.6), which is
    surfaced so experiments cannot silently mis-measure.  Also raises for
    a tree that is compacted already.
    """
    if bvh.options.allow_update:
        raise ValueError(
            "compaction has no effect on accels built with ALLOW_UPDATE; "
            "build without the update flag to compact"
        )
    if bvh.compacted:
        raise ValueError("the accel is already compacted")
    compacted = copy.copy(bvh)
    compacted.compacted = True
    return compacted


def accel_compact(accel: GeometryAccel) -> None:
    """Compact ``accel`` in place (``optixAccelCompact``)."""
    accel.bvh = compact_accel(accel.bvh)


def accel_update(accel: GeometryAccel, buffer: PrimitiveBuffer) -> RefitResult:
    """Refit ``accel`` to the moved primitives of ``buffer``
    (``optixAccelBuild`` update op).

    Updates require the accel to have been built with
    ``BvhBuildOptions.allow_update``.
    """
    result = refit_accel(accel.bvh, buffer)
    accel.buffer = buffer
    return result


def accel_delta_update(
    accel: GeometryAccel, buffer: PrimitiveBuffer, rows: np.ndarray | None = None, moves=None
) -> DeltaUpdateStats:
    """Delta-shard update: touch only the shards the new input dirtied.

    Requires the accel to have been built with ``shard_bits > 0``.  Unlike a
    refit, the updated accel is bit-identical to a from-scratch build over
    ``buffer`` (no quality degradation): the dirty subtrees are *rebuilt*,
    or, when the ``moves`` pairing shows rows that only traded primitives,
    *relabelled*.  ``rows``, when given, holds every row below both lengths
    where ``buffer`` may differ from the accel's buffer; only those rows
    are compared (:func:`delta_update_forest`).
    """
    if accel.forest is None:
        raise ValueError(
            "delta updates require a sharded accel (build with shard_bits >= 1)"
        )
    updated, stats = delta_update_forest(accel.forest, accel.buffer, buffer, rows, moves)
    if not stats.noop:
        # The rebuilt or relabelled tree is recompacted on the way in,
        # mirroring the rebuild path's compaction step.
        updated.bvh.compacted = accel.compacted
        accel.bvh = updated.bvh
    accel.forest = updated
    accel.buffer = buffer
    return stats


@dataclass
class LaunchResult:
    """Everything a pipeline launch produced."""

    hits: HitRecords
    counters: TraversalCounters
    num_lookups: int
    num_rays: int
    #: per-group counters when the launch was traced with ``ray_groups``
    #: (the serving layer's coalesced launches); None otherwise.  Entry ``g``
    #: is bit-identical to the counters of a solo launch of group ``g``.
    group_counters: list[TraversalCounters] | None = None

    def hits_per_lookup(self) -> np.ndarray:
        """Number of reported hits per originating lookup."""
        counts = np.zeros(self.num_lookups, dtype=np.int64)
        if self.hits.count:
            np.add.at(counts, self.hits.lookup_ids, 1)
        return counts


@dataclass
class Pipeline:
    """A ray-tracing pipeline bound to one accel.

    Bind a new pipeline whenever the accel is rebuilt, refit or compacted:
    the traversal engine is bound to the accel's tree at construction.
    """

    accel: GeometryAccel
    #: optional :class:`repro.serve.faults.FaultInjector` seam: when set,
    #: every launch first consults the "launch" site (raising an injected
    #: launch failure) and the "launch_latency" site (stalling the launch by
    #: the injected delay).  The serving layer's epoch manager attaches this
    #: when a service runs under fault injection; plain lookups leave it None.
    fault_injector: object | None = None

    def __post_init__(self) -> None:
        self._engine = TraversalEngine(self.accel.bvh, self.accel.buffer)

    @property
    def engine(self) -> TraversalEngine:
        return self._engine

    def launch(
        self,
        rays: RayBatch,
        num_lookups: int | None = None,
        mode: str = "all",
        limit: int | None = None,
        ray_groups: np.ndarray | None = None,
        any_hit: Callable | None = None,
    ) -> LaunchResult:
        """Launch the pipeline for a batch of rays.

        ``mode`` selects the trace semantics (see
        :meth:`repro.rtx.traversal.TraversalEngine.trace`): ``"all"`` reports
        every intersection, ``"first_k"`` stops each lookup after ``limit``
        surviving hits (``limit=1`` on a point lookup's single ray is the
        any-hit program ending the ray), ``"ordered_k"`` keeps each lookup's
        ``limit`` t-smallest hits in key order (``limit`` is required for,
        and only valid with, the two budgeted modes).  ``ray_groups`` (one group id
        per ray) additionally splits the launch's counters per group — see
        :meth:`repro.rtx.traversal.TraversalEngine.trace`.  ``any_hit``
        filters this launch's intersections (cursor resumes install a
        per-launch exclusive filter this way).
        """
        if self.fault_injector is not None:
            self.fault_injector.check("launch")
            stall = self.fault_injector.latency("launch_latency")
            if stall > 0.0:
                time.sleep(stall)
        if num_lookups is None:
            num_lookups = int(rays.lookup_ids.max()) + 1 if len(rays) else 0
        hits = self._engine.trace(
            rays,
            any_hit=any_hit,
            mode=mode,
            limit=limit,
            ray_groups=ray_groups,
        )
        return LaunchResult(
            hits=hits,
            counters=self._engine.counters,
            num_lookups=num_lookups,
            num_rays=len(rays),
            group_counters=self._engine.group_counters,
        )
