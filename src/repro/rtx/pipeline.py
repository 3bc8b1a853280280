"""The OptiX-shaped front-end: device context, accel build, pipeline launch.

The names follow the OptiX 7 host API so that :class:`repro.core.rx_index.RXIndex`
reads like the CUDA/OptiX code described in the paper:

* :func:`accel_build`   — ``optixAccelBuild`` (build operation)
* :func:`accel_compact` — ``optixAccelCompact``
* :func:`accel_update`  — ``optixAccelBuild`` (update operation / refit)
* :class:`Pipeline` and :meth:`Pipeline.launch` — ``optixPipeline`` + ``optixLaunch``

A launch takes the rays the ray-generation step made (the paper spawns one
thread per lookup and builds its rays there), traces them against the
accel, and feeds every intersection to the launch's any-hit program.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.rtx.bvh import Bvh, BvhBuildOptions, build_bvh
from repro.rtx.compaction import CompactionResult, compact_accel
from repro.rtx.forest import BvhForest, DeltaUpdateStats, build_forest, delta_update_forest
from repro.rtx.geometry import PrimitiveBuffer, RayBatch
from repro.rtx.memory import DeviceMemoryTracker, accel_memory_estimate
from repro.rtx.refit import RefitResult, refit_accel
from repro.rtx.traversal import HitRecords, TraversalCounters, TraversalEngine


@dataclass
class DeviceContext:
    """Holds per-device state: the memory tracker.

    The OptiX analogue is ``OptixDeviceContext``; ours additionally exposes
    the memory tracker that the paper's Table 6 numbers correspond to.
    """

    memory: DeviceMemoryTracker = field(default_factory=DeviceMemoryTracker)


@dataclass
class GeometryAccel:
    """A built geometry acceleration structure (GAS).

    Bundles the functional BVH, the primitive buffer it indexes and the
    memory model numbers.
    """

    bvh: Bvh
    buffer: PrimitiveBuffer
    memory_handle: int
    memory_info: dict[str, int]
    compacted: bool = False
    #: set for sharded builds: the forest bookkeeping over ``bvh`` (the same
    #: tree a single-tree build emits, cut into Morton-prefix shards),
    #: enabling delta-shard updates via :func:`accel_delta_update` and
    #: per-shard saves
    forest: BvhForest | None = None

    @property
    def size_bytes(self) -> int:
        """Current modelled device footprint of the accel."""
        key = "compacted" if self.compacted else "uncompacted"
        return self.memory_info[key]


def accel_build(
    context: DeviceContext,
    buffer: PrimitiveBuffer,
    options: BvhBuildOptions | None = None,
) -> GeometryAccel:
    """Build a geometry acceleration structure over ``buffer``.

    Mirrors ``optixAccelBuild`` with the build operation: temporary memory is
    allocated for the duration of the build (and accounted in the tracker's
    peak), the resulting accel stays resident.  ``options`` (default
    :class:`BvhBuildOptions`) carries the builder knobs and the update flag
    a later refit needs (``allow_update``).
    """
    options = options or BvhBuildOptions()
    memory_info = accel_memory_estimate(buffer.kind, len(buffer))

    temp_handle = context.memory.alloc(
        "accel_build_temp", memory_info["build_temp"], temporary=True
    )
    accel_handle = context.memory.alloc("accel", memory_info["uncompacted"])

    forest = None
    if options.shard_bits:
        forest = build_forest(buffer, options)
        bvh = forest.bvh
    else:
        bvh = build_bvh(buffer, options)

    context.memory.free(temp_handle)
    return GeometryAccel(
        bvh=bvh,
        buffer=buffer,
        memory_handle=accel_handle,
        memory_info=memory_info,
        forest=forest,
    )


def accel_compact(context: DeviceContext, accel: GeometryAccel) -> CompactionResult:
    """Compact ``accel`` in place (``optixAccelCompact``).

    The compacted accel replaces the uncompacted one in the memory tracker;
    the temporary co-existence of both copies is reflected in the peak.
    """
    result = compact_accel(accel.bvh)
    if result.bytes_copied == 0:
        return result
    new_handle = context.memory.alloc("accel_compacted", accel.memory_info["compacted"])
    context.memory.free(accel.memory_handle)
    accel.memory_handle = new_handle
    accel.bvh = result.bvh
    accel.compacted = True
    return result


def accel_update(
    context: DeviceContext, accel: GeometryAccel, buffer: PrimitiveBuffer
) -> RefitResult:
    """Refit ``accel`` to the moved primitives of ``buffer``
    (``optixAccelBuild`` update op).

    Updates require the accel to have been built with
    ``BvhBuildOptions.allow_update`` and, like OptiX, need temporary memory
    even though the node structure is reused.
    """
    temp_handle = context.memory.alloc(
        "accel_update_temp",
        int(accel.memory_info["build_temp"] * 0.5),
        temporary=True,
    )
    try:
        result = refit_accel(accel.bvh, buffer)
    finally:
        context.memory.free(temp_handle)
    accel.buffer = buffer
    return result


def accel_delta_update(
    context: DeviceContext, accel: GeometryAccel, buffer: PrimitiveBuffer
) -> DeltaUpdateStats:
    """Delta-shard update: rebuild only the shards the new input dirtied.

    Requires the accel to have been built with ``shard_bits > 0``.  Unlike a
    refit, the dirty subtrees are *rebuilt*, so the updated accel is
    bit-identical to a from-scratch build over ``buffer`` (no
    quality degradation), at a sorting/building cost proportional to the
    dirty shards.  Temporary memory scales with the dirty fraction instead
    of the full build scratch.
    """
    if accel.forest is None:
        raise ValueError(
            "delta updates require a sharded accel (build with shard_bits >= 1)"
        )
    updated, stats = delta_update_forest(accel.forest, accel.buffer, buffer)
    dirty_fraction = stats.dirty_keys / max(stats.total_keys, 1)
    temp_handle = context.memory.alloc(
        "accel_delta_temp",
        int(accel.memory_info["build_temp"] * dirty_fraction),
        temporary=True,
    )
    try:
        if len(buffer) != accel.bvh.num_primitives:
            # The key count changed: swap the allocation like a rebuild does.
            memory_info = accel_memory_estimate(buffer.kind, len(buffer))
            key = "compacted" if accel.compacted else "uncompacted"
            new_handle = context.memory.alloc("accel", memory_info[key])
            context.memory.free(accel.memory_handle)
            accel.memory_handle = new_handle
            accel.memory_info = memory_info
        if not stats.noop:
            bvh = updated.bvh
            # Rebuilt subtrees are recompacted on the way in, mirroring the
            # rebuild path's compaction step.
            bvh.compacted = accel.compacted
            accel.bvh = bvh
        accel.forest = updated
        accel.buffer = buffer
    finally:
        context.memory.free(temp_handle)
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

    context: DeviceContext
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
