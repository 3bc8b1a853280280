"""RXIndex: the raytracing-backed secondary index (the paper's RX).

Build path (Section 2.1): every key of the indexed column is converted into a
primitive anchored at coordinates derived from the key, the primitive's
position in the buffer is its rowID, and ``accel_build`` turns the buffer
into a BVH (optionally compacted).

Lookup path (Section 2.2): each lookup becomes one or more rays; the
traversal reports every primitive the ray intersects, whose buffer offsets
are the matching rowIDs; an any-hit style aggregation sums the associated
values from the projected column.

The class implements the common :class:`repro.baselines.base.GpuIndex`
interface so the benchmark harness can pit it against the traditional GPU
indexes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.base import (
    BuildResult,
    GpuIndex,
    LookupRun,
    MemoryFootprint,
)
from repro.core.config import (
    PointRayMode,
    PrimitiveType,
    RangeRayMode,
    RXConfig,
    UpdatePolicy,
)
from repro.core.cursor import next_cursor_token, parse_cursor, resume_after
from repro.core.keycodec import as_lookup_keys, as_range_bounds, make_codec
from repro.core.results import (
    aggregate_values,
    collect_row_ids,
    first_row_per_lookup,
    hits_per_lookup,
)
from repro.gpusim.counters import WorkProfile
from repro.persist import MANIFEST_NAME, SnapshotCorrupt, load_snapshot, save_snapshot
from repro.persist.segments import is_count
from repro.rtx.build_input import BuildFlags, build_input_for_points
from repro.rtx.bvh import BvhBuildOptions, box_columns, bvh_from_arrays, bvh_state_arrays
from repro.rtx.forest import (
    ShardPartitionError,
    forest_from_saved,
    forest_state_segments,
)
from repro.rtx.memory import accel_memory_estimate
from repro.rtx.pipeline import (
    BuildMetrics,
    DeviceContext,
    GeometryAccel,
    Pipeline,
    accel_build,
    accel_compact,
    accel_delta_update,
    accel_update,
    flagged_options,
)

#: Instructions the programmable pipeline stages execute per lookup / per hit.
#: The fixed-function BVH traversal runs on the RT cores and does not count
#: as SM instructions — this is why RX executes roughly an order of magnitude
#: fewer instructions per lookup than the software tree (Table 7).
_INSTR_PER_LOOKUP = 12.0
_INSTR_PER_RAY = 4.0
_INSTR_PER_HIT = 6.0

#: Bytes per primitive fetched for a hardware intersection test (the triangle
#: data is stored inside the accel in a compressed layout).
_PRIM_TEST_BYTES = {"triangle": 36, "sphere": 16, "aabb": 24}

#: Bytes per primitive streamed by the build/update passes (the raw input
#: buffer layout: 9/3/6 float32 per triangle/sphere/AABB).
_BUILD_PRIM_BYTES = {"triangle": 36, "sphere": 12, "aabb": 24}

#: Fraction of the hit-path traversal work a missing ray still performs
#: (calibrated to the paper's measured -63% memory traffic at hit rate 0).
MISS_TRAVERSAL_FACTOR = 0.35


def check_limit(limit) -> int | None:
    """Validate a range lookup's hit limit: ``None`` (all hits) or an int >= 1."""
    if limit is None:
        return None
    if isinstance(limit, str):
        raise ValueError(f"limit must be an int or None, got {limit!r}")
    limit = int(limit)
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    return limit


def trace_mode_for(limit: int | None) -> str:
    """Trace mode of a lookup with per-lookup hit budget ``limit``: early-exit
    ``"first_k"``, or ``"all"`` when there is no budget."""
    return "all" if limit is None else "first_k"


@dataclass
class UpdateOutcome:
    """Result of applying an update batch to an existing RX index."""

    policy: UpdatePolicy
    profiles: list[WorkProfile]
    surface_area_growth: float = 1.0
    #: per-policy structural details (delta updates report their dirty-shard
    #: accounting here so experiments can check the O(dirty) scaling)
    stats: dict = field(default_factory=dict)


def _shard_state(snap, name: str) -> tuple[dict, dict]:
    """``(arrays, meta)`` of the forest shard segment ``name``.

    Its meta must hold an int ``bucket`` (not a bool) that the name
    ``shard-NNNNN`` spells and a bool ``delegated``, and its arrays a
    ``rows`` array; anything else raises :class:`SnapshotCorrupt` naming
    the segment.
    """
    arrays, meta = snap.arrays(name), snap.meta(name)

    def shown(key):
        return repr(meta[key]) if key in meta else "(missing)"

    problems = []
    bucket = meta.get("bucket")
    if type(bucket) is not int:
        problems.append(f"bucket {shown('bucket')} is not an int")
    elif name != f"shard-{bucket:05d}":
        problems.append(f"bucket {bucket} does not match the name {name}")
    if not isinstance(meta.get("delegated"), bool):
        problems.append(f"delegated {shown('delegated')} is not a bool")
    if "rows" not in arrays:
        problems.append("it holds no rows array")
    if problems:
        raise SnapshotCorrupt(
            f"persisted forest shard segment is malformed: {'; '.join(problems)}",
            segment=name,
        )
    return arrays, meta


def _check_root_box(bvh, buffer) -> None:
    """Require a single tree's root box to be the union of ``buffer``'s
    primitive boxes, which every tree built or refitted over them has.

    The buffer comes from the stored keys under the manifest's config, so
    a config edited away from the tree (another ``decomposition``, say)
    moves the boxes and fails here instead of answering wrong.  A failure
    raises :class:`SnapshotCorrupt` naming ``bvh``.
    """
    for name in ("node_mins", "node_maxs"):
        boxes = getattr(bvh, name)
        shape_ok = boxes.ndim == 2 and boxes.shape[1:] == (3,) and len(boxes) >= 1
        if boxes.dtype != np.float32 or not shape_ok:
            raise SnapshotCorrupt(
                f"tree array {name} is {boxes.dtype} {boxes.shape}, not float32 (k, 3), k >= 1",
                segment="bvh",
            )
    mins, maxs = box_columns(buffer)
    union = (mins.min(axis=1), maxs.max(axis=1))
    root = (bvh.node_mins[0], bvh.node_maxs[0])
    if not all(np.array_equal(a, b) for a, b in zip(root, union)):
        raise SnapshotCorrupt(
            f"tree root box {[a.tolist() for a in root]} is not the union "
            f"{[a.tolist() for a in union]} of the boxes the {len(buffer)} stored keys "
            f"encode to under the manifest's config",
            segment="bvh",
        )


class RXIndex(GpuIndex):
    """Hardware-raytracing index over a 64-bit integer column."""

    name = "RX"
    supports_range_lookups = True
    supports_duplicates = True
    max_key_bits = 64

    def __init__(
        self,
        config: RXConfig | None = None,
        context: DeviceContext | None = None,
        max_frontier: int | None = None,
    ):
        super().__init__()
        self.config = config or RXConfig.paper_default()
        self.config.validate()
        self.codec = make_codec(self.config.key_mode, self.config.decomposition)
        self.context = context or DeviceContext()
        #: bound on the traversal working set per launch (see
        #: :class:`repro.rtx.traversal.TraversalEngine`); None = unbounded.
        self.max_frontier = max_frontier
        self._accel = None
        self._pipeline: Pipeline | None = None
        self._primitive_handle: int | None = None
        #: wall-clock of the last accel build or delta update (seconds)
        self._last_build_seconds: float | None = None
        #: Monotonically increasing accel-state counter: -1 before the first
        #: build, bumped by every build() and update() that swaps in a new
        #: accel state.  The serving layer's epoch snapshots key on it.
        self.epoch: int = -1
        #: True when the indexed column holds no duplicate keys; decides the
        #: point-lookup budget (ending each ray at its first hit is only
        #: result-preserving when every query has at most one match).
        #: Computed lazily — None means "not checked for the current column".
        self._keys_unique: bool | None = None
        #: telemetry of the epoch store interactions, mirrored into
        #: ``stats()["persist"]`` next to the ``"build"`` block.
        self._persist_stats: dict = self._empty_persist_stats()

    # ------------------------------------------------------------------ #
    # build
    # ------------------------------------------------------------------ #

    def _build_flags(self) -> BuildFlags:
        flags = BuildFlags.NONE
        if self.config.compaction:
            flags |= BuildFlags.ALLOW_COMPACTION
        if self.config.allow_updates:
            flags |= BuildFlags.ALLOW_UPDATE
        return flags

    def _bvh_options(self) -> BvhBuildOptions:
        return BvhBuildOptions(
            builder=self.config.bvh_builder,
            max_leaf_size=self.config.max_leaf_size,
            morton_bits=self.config.morton_bits,
            shard_bits=self.config.shard_bits,
        )

    def _make_build_input(self, keys: np.ndarray):
        points, x_half_extent = self.codec.encode_points(keys)
        if self.config.primitive is not PrimitiveType.TRIANGLE:
            points = np.ascontiguousarray(points)  # spheres and boxes keep (n, 3) rows
        return build_input_for_points(
            self.config.primitive.value,
            points,
            half_extent=0.5,
            x_half_extent=x_half_extent,
            sphere_radius=self.config.sphere_radius,
        )

    def _own_keys(self, keys) -> np.ndarray:
        """A read-only copy of the caller's key column, range-checked once:
        pages and cursors read the column, so a write to the caller's array
        must change no answer."""
        keys = np.array(keys, dtype=np.uint64)
        self.codec.validate_keys(keys)
        keys.flags.writeable = False
        return keys

    def build(self, keys: np.ndarray, values: np.ndarray | None = None) -> BuildResult:
        return self._build(self._own_keys(keys), values)

    def _build(self, keys, values, keys_unique: bool | None = None) -> BuildResult:
        """Build over an owned key column whose duplicate flag may be known."""
        self._store_column(keys, values, key_bits=64, keys_unique=keys_unique)

        if self._accel is not None:
            # Rebuilding replaces the previous accel; release its allocation
            # so the memory tracker reflects the swap.
            self.context.memory.free(self._accel.memory_handle)
            self._accel = None

        build_input = self._make_build_input(self.keys)
        # The primitive buffer only needs to be resident during the build:
        # afterwards the accel embeds the geometry.
        self._primitive_handle = self.context.memory.alloc(
            "rx_primitive_buffer", build_input.primitive_bytes, temporary=True
        )
        build_t0 = time.perf_counter()
        self._accel = accel_build(
            self.context,
            build_input,
            flags=self._build_flags(),
            build_options=self._bvh_options(),
        )
        self._last_build_seconds = time.perf_counter() - build_t0
        compaction_stats = {}
        if self.config.compaction:
            result = accel_compact(self.context, self._accel)
            compaction_stats = {
                "compaction_saved_bytes": result.saved_bytes,
                "compaction_reduction": result.reduction_fraction,
            }
        self.context.memory.free(self._primitive_handle)
        self._primitive_handle = None

        self._pipeline = Pipeline(self.context, self._accel, max_frontier=self.max_frontier)
        self.epoch += 1
        bvh = self._accel.bvh
        memory = self.memory_footprint()
        self._build_result = BuildResult(
            num_keys=self.num_keys,
            key_bits=64,
            memory=memory,
            stats={
                "primitive": self.config.primitive.value,
                "key_mode": self.config.key_mode.value,
                "builder": self.config.bvh_builder,
                "bvh_nodes": bvh.node_count,
                "bvh_depth": bvh.depth(),
                "bvh_leaves": bvh.leaf_count,
                "compacted": self._accel.compacted,
                **compaction_stats,
                **(
                    {
                        "shards": self._accel.forest.non_empty_shards,
                        "delegated_shards": self._accel.forest.delegated_shards,
                    }
                    if self._accel.forest is not None
                    else {}
                ),
            },
        )
        return self._build_result

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #

    def _require_built(self) -> Pipeline:
        if self._pipeline is None:
            raise RuntimeError("RXIndex.build() must be called before lookups")
        return self._pipeline

    @property
    def pipeline(self) -> Pipeline:
        """The pipeline bound to the current accel state (built index only).

        Each build/update binds a *new* pipeline object, so holding on to
        this reference pins one accel epoch — the serving layer's epoch
        snapshots rely on exactly that.
        """
        return self._require_built()

    def _run_to_lookup(self, launch, num_lookups: int, kind: str) -> LookupRun:
        hits = launch.hits
        counters = launch.counters
        result_rows = first_row_per_lookup(hits, num_lookups)
        per_lookup = hits_per_lookup(hits, num_lookups)
        aggregate = aggregate_values(hits, self.values)
        rays = max(launch.num_rays, 1)
        return LookupRun(
            kind=kind,
            num_lookups=num_lookups,
            result_rows=result_rows,
            hits_per_lookup=per_lookup,
            aggregate=aggregate,
            stats={
                "rays_per_lookup": launch.num_rays / max(num_lookups, 1),
                "node_visits_per_ray": counters.node_visits / rays,
                "leaf_visits_per_ray": counters.leaf_visits / rays,
                "box_tests_per_ray": counters.box_tests / rays,
                "prim_tests_per_ray": counters.prim_tests / rays,
                "node_bytes_per_ray": counters.node_bytes_read / rays,
                "prim_bytes_per_ray": counters.prim_bytes_read / rays,
                "rays_without_hits": counters.rays_without_hits,
                "traversal_rounds": counters.traversal_rounds,
                "total_node_visits": counters.node_visits,
                "total_prim_tests": counters.prim_tests,
                "budget_dropped_hits": counters.budget_dropped_hits,
            },
        )

    def _store_column(self, keys, values, key_bits: int, keys_unique: bool | None = None) -> None:
        super()._store_column(keys, values, key_bits)
        # None: the uniqueness of the new column is unknown.
        self._keys_unique = keys_unique

    def point_limit(self) -> int | None:
        """Hit budget of a point lookup on the current column.

        ``1`` on a duplicate-free column — each lookup's single ray ends at
        its first hit, the hardware any-hit termination the paper's
        point-lookup numbers rely on — else ``None`` (report every match).
        The duplicate check costs one key sort, so it runs lazily on the
        first point lookup after a build or load, and after an update that
        does not keep the flag (:meth:`_keys_unique_after`).
        """
        if self._keys_unique is None:
            # Sort + adjacent compare: NumPy >= 2.3 runs ``np.unique`` through
            # a hash table, ~60x slower than sorting on 2^20 shuffled keys.
            ordered = np.sort(self.keys)
            self._keys_unique = not bool(np.any(ordered[1:] == ordered[:-1]))
        return 1 if self._keys_unique else None

    def _launch_lookups(self, pipeline, rays, num_lookups, limit, kind) -> LookupRun:
        """Trace ``rays`` with a per-lookup hit budget of ``limit`` (``None``
        reports every hit)."""
        mode = trace_mode_for(limit)
        launch = pipeline.launch(rays, num_lookups=num_lookups, mode=mode, limit=limit)
        run = self._run_to_lookup(launch, num_lookups, kind=kind)
        run.stats["trace_mode"] = mode
        return run

    def point_lookup(self, queries: np.ndarray) -> LookupRun:
        pipeline = self._require_built()
        queries = as_lookup_keys(queries, "queries")
        rays = self.codec.point_ray_batch(queries, self.config.point_ray_mode)
        return self._launch_lookups(
            pipeline, rays, queries.shape[0], self.point_limit(), kind="point"
        )

    def range_lookup(
        self, lowers: np.ndarray, uppers: np.ndarray, limit=None, order=None, cursor=None
    ):
        """Answer inclusive range lookups, optionally with limit pushdown.

        With a ``limit`` of ``k`` the traversal runs in
        ``first_k`` mode: every lookup's rays share a budget of ``k`` hits
        and stop traversing once it is spent, so the returned rows are
        exactly the first ``k`` the all-hits trace would report (a stable
        top-k cut) at a fraction of the traversal work.

        ``order="key"`` switches to the ordered paged form (one range per
        call): the traversal runs in ``ordered_k`` mode so the page holds
        exactly the ``limit`` smallest ``(key, rowID)`` matches, and the
        call returns ``(run, next_cursor)`` where ``run.row_ids`` is the
        page in key order and ``next_cursor`` is an opaque ``"key|row_id"``
        token (``None`` once the range is exhausted).  Passing the token
        back as ``cursor`` resumes just past that row: the ray is rebuilt
        from the cursor key (O(page) work instead of re-scanning the
        prefix) and an exclusive any-hit filter drops the rows of a
        duplicate-key run the previous page already returned *before* they
        can consume budget.
        """
        if order is not None:
            if order != "key":
                raise ValueError(f"order must be None or 'key', got {order!r}")
            return self._ordered_range_page(lowers, uppers, limit, cursor)
        if cursor is not None:
            raise ValueError("cursor resume requires order='key'")
        pipeline = self._require_built()
        lowers, uppers = as_range_bounds(lowers, uppers)
        limit = check_limit(limit)
        rays = self.codec.range_ray_batch(
            lowers,
            uppers,
            self.config.range_ray_mode,
            max_rays_per_range=self.config.max_rays_per_range,
        )
        run = self._launch_lookups(pipeline, rays, lowers.shape[0], limit, kind="range")
        if limit is not None:
            run.stats["range_limit"] = limit
        return run

    def _ordered_range_page(self, lowers, uppers, limit, cursor):
        """One page of an ordered range scan: ``(run, next_cursor)``."""
        pipeline = self._require_built()
        lowers, uppers = as_range_bounds(lowers, uppers)
        if lowers.shape[0] != 1:
            raise ValueError(
                "order='key' pages one range at a time; batch paged lookups "
                "through the serving layer"
            )
        limit = check_limit(limit)
        if limit is None:
            raise ValueError("order='key' requires a page size (limit)")
        cur = parse_cursor(cursor, max_key=self.codec.max_key())
        resume_lowers, any_hit = resume_after(self.keys, lowers, uppers, [cur])
        rays = self.codec.range_ray_batch(
            resume_lowers,
            uppers,
            self.config.range_ray_mode,
            max_rays_per_range=self.config.max_rays_per_range,
        )
        launch = pipeline.launch(
            rays, num_lookups=1, mode="ordered_k", limit=limit, any_hit=any_hit
        )
        run = self._run_to_lookup(launch, 1, kind="range")
        page_rows = launch.hits.prim_indices
        run.row_ids = page_rows.astype(np.uint64)
        run.stats["trace_mode"] = "ordered_k"
        run.stats["range_limit"] = limit
        run.stats["resumed"] = cur is not None
        return run, next_cursor_token(self.keys, page_rows, limit)

    def collect_point_matches(self, queries: np.ndarray) -> list[np.ndarray]:
        """Materialise all matching rowIDs per query (example/demo helper)."""
        pipeline = self._require_built()
        queries = as_lookup_keys(queries, "queries")
        rays = self.codec.point_ray_batch(queries, self.config.point_ray_mode)
        launch = pipeline.launch(rays, num_lookups=queries.shape[0])
        return collect_row_ids(launch.hits, queries.shape[0])

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #

    def update(self, new_keys: np.ndarray, new_values: np.ndarray | None = None) -> UpdateOutcome:
        """Replace the key column and bring the index up to date.

        ``UpdatePolicy.REBUILD`` constructs a fresh accel; ``REFIT`` keeps
        the tree topology and only adjusts the bounding volumes (requires the
        index to have been built with updates enabled).  The number of keys
        must stay the same under REFIT, matching the OptiX restriction.
        Like :meth:`build`, it stores a read-only copy of ``new_keys``, and
        swapped keys keep :meth:`point_limit`'s duplicate flag.
        """
        new_keys = self._own_keys(new_keys)
        if self._accel is None:
            raise RuntimeError("RXIndex.build() must be called before update()")
        if new_values is None:
            # Updates permute the key buffer; the projected value column stays
            # associated with the (unchanged) rowIDs.  When the update adds or
            # removes rows the stored column no longer lines up — the caller
            # must say what the new rows project to.
            if new_keys.shape[0] != self.num_keys:
                raise ValueError(
                    "update() changed the key count from "
                    f"{self.num_keys} to {new_keys.shape[0]}; pass new_values "
                    "explicitly (the stored value column has the old length)"
                )
            new_values = self.values

        keys_unique = self._keys_unique_after(new_keys)
        if self.config.update_policy is UpdatePolicy.REBUILD:
            self._build(new_keys, new_values, keys_unique)
            return UpdateOutcome(
                policy=UpdatePolicy.REBUILD,
                profiles=self.build_profiles(),
            )

        if self.config.update_policy is UpdatePolicy.DELTA_SHARD:
            self._store_column(new_keys, new_values, key_bits=64, keys_unique=keys_unique)
            build_input = self._make_build_input(self.keys)
            build_t0 = time.perf_counter()
            delta = accel_delta_update(self.context, self._accel, build_input)
            self._last_build_seconds = time.perf_counter() - build_t0
            # The spliced tree object was swapped; rebind the pipeline.
            self._pipeline = Pipeline(
                self.context, self._accel, max_frontier=self.max_frontier
            )
            self.epoch += 1
            return UpdateOutcome(
                policy=UpdatePolicy.DELTA_SHARD,
                profiles=[self._delta_update_profile(delta)],
                stats={
                    "dirty_shards": delta.dirty_shards,
                    "non_empty_shards": delta.non_empty_shards,
                    "total_shards": delta.total_shards,
                    "rebuilt_trees": delta.rebuilt_trees,
                    "dirty_keys": delta.dirty_keys,
                    "total_keys": delta.total_keys,
                    "noop": delta.noop,
                    "rescaled": delta.rescaled,
                },
            )

        if new_keys.shape[0] != self.num_keys:
            raise ValueError("refit updates cannot add or remove keys")
        self._store_column(new_keys, new_values, key_bits=64, keys_unique=keys_unique)
        build_input = self._make_build_input(self.keys)
        refit = accel_update(self.context, self._accel, build_input)
        self._pipeline = Pipeline(self.context, self._accel, max_frontier=self.max_frontier)
        self.epoch += 1
        profile = WorkProfile(
            name="RX refit",
            threads=self.num_keys,
            instructions=self.num_keys * 18.0,
            # The refit streams the primitive buffer and rewrites every node
            # bottom-up, touching temporary update memory along the way.
            bytes_accessed=2.5 * (refit.bytes_read + refit.bytes_written),
            working_set_bytes=self._accel.size_bytes,
            kernel_launches=1,
            # Refits stream the whole structure through DRAM: there is no
            # reuse for the cache to exploit.
            dram_bytes_min=2.5 * (refit.bytes_read + refit.bytes_written),
        )
        return UpdateOutcome(
            policy=UpdatePolicy.REFIT,
            profiles=[profile],
            surface_area_growth=refit.surface_area_growth,
        )

    def _keys_unique_after(self, new_keys: np.ndarray) -> bool | None:
        """The duplicate-key flag, kept when the changed rows hold the same
        multiset of keys before and after (one compare against the owned
        column, one sort of the changed keys); else ``None`` (re-derive)."""
        old = self.keys
        if self._keys_unique is None or new_keys.shape != old.shape:
            return None
        changed = np.flatnonzero(new_keys != old)
        if np.array_equal(np.sort(old[changed]), np.sort(new_keys[changed])):
            return self._keys_unique
        return None

    def _delta_update_profile(self, delta) -> WorkProfile:
        """Device work of a delta-shard update.

        The dirty shards redo the build passes (AABBs, Morton sort, hierarchy
        emission) over *their* keys only; every update additionally pays one
        streaming diff over the primitive buffers (dirty detection) and one
        streaming rewrite of the node table (the splice), both linear with
        small constants.  A no-op update degenerates to just the diff pass.
        """
        n = self.num_keys
        estimate = accel_memory_estimate(self.config.primitive.value, n)
        prim_bytes = _BUILD_PRIM_BYTES[self.config.primitive.value]
        dirty = int(delta.dirty_keys)
        dirty_frac = dirty / max(delta.total_keys, 1)
        diff_bytes = n * prim_bytes * 2.0  # read old + new buffers once
        splice_bytes = 0.0 if delta.noop else estimate["uncompacted"] * 1.0
        rebuild_bytes = (
            dirty * prim_bytes * 2.0
            + dirty * 12.0 * 2.0 * 4.0
            + estimate["uncompacted"] * 3.0 * dirty_frac
        )
        bytes_accessed = diff_bytes + splice_bytes + rebuild_bytes
        return WorkProfile(
            name="RX delta-shard update",
            threads=max(n, 1),
            instructions=n * 4.0 + dirty * 320.0,
            bytes_accessed=bytes_accessed,
            working_set_bytes=estimate["uncompacted"]
            + estimate["peak_during_build"] * dirty_frac,
            serial_depth=4.0,
            kernel_launches=2 + int(delta.rebuilt_trees > 0) * 4,
            dram_bytes_min=bytes_accessed * 0.8,
            metadata={
                "dirty_shards": delta.dirty_shards,
                "dirty_keys": dirty,
                "rebuilt_trees": delta.rebuilt_trees,
            },
        )

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    @staticmethod
    def _empty_persist_stats() -> dict:
        return {
            "saves": 0,
            "loads": 0,
            "last_save_seconds": None,
            "last_load_seconds": None,
            "checksum_verify_seconds": None,
            "bytes_on_disk": 0,
            "segments_total": 0,
            "segments_rewritten": 0,
            "segments_reused": 0,
            "last_epoch": None,
            #: manifest format of the last save or load
            "format_version": None,
        }

    def save(self, path, fault_injector=None) -> dict:
        """Persist the built index as one crash-safe epoch snapshot.

        Every accel component becomes an immutable, checksummed segment
        file under ``path``: the key/value columns, plus either the single
        BVH's node arrays or one segment per forest shard.  The save
        commits by atomically renaming a new manifest — a crash at any
        earlier point leaves the previous committed epoch untouched.
        Segments whose payload did not change since the last committed
        manifest are referenced instead of rewritten, so a save after a
        DELTA_SHARD update only writes the dirty shards (plus columns).
        """
        accel = self.accel
        segments: dict = {
            "columns": (
                {
                    "keys": np.ascontiguousarray(self.keys),
                    "values": np.ascontiguousarray(self.values),
                },
                None,
            )
        }
        if accel.forest is None:
            segments["bvh"] = (
                {
                    name: np.ascontiguousarray(array)
                    for name, array in bvh_state_arrays(accel.bvh).items()
                },
                {"refit_generation": int(accel.bvh.refit_generation)},
            )
        else:
            for bucket, arrays, meta in forest_state_segments(accel.forest):
                segments[f"shard-{bucket:05d}"] = (arrays, meta)
        index_meta = {
            "config": self.config.as_dict(),
            "num_keys": int(self.num_keys),
            "num_primitives": int(accel.bvh.num_primitives),
            "kind": "bvh" if accel.forest is None else "forest",
            "compacted": bool(accel.compacted),
            "refit_generation": int(accel.bvh.refit_generation),
        }
        result = save_snapshot(
            path,
            epoch=max(self.epoch, 0),
            segments=segments,
            index_meta=index_meta,
            fault_injector=fault_injector,
        )
        self._persist_stats.update(
            saves=self._persist_stats["saves"] + 1,
            last_save_seconds=result.save_seconds,
            bytes_on_disk=result.bytes_on_disk,
            segments_total=result.segments_total,
            segments_rewritten=result.segments_rewritten,
            segments_reused=result.segments_reused,
            last_epoch=result.epoch,
            format_version=result.format_version,
        )
        return result.as_dict()

    @classmethod
    def load(
        cls,
        path,
        mmap: bool = True,
        context: DeviceContext | None = None,
        max_frontier: int | None = None,
        fault_injector=None,
    ) -> "RXIndex":
        """Open the last committed snapshot at ``path`` as a fresh index.

        The configuration is taken from the snapshot, every segment is
        checksum-verified before use, and with ``mmap=True`` the column and
        node arrays stay zero-copy views into the segment files — the
        cold-start path the restart benchmark measures.  Lookups against
        the loaded index are bit-identical to the index that was saved.
        A manifest whose index block does not describe its segments raises
        :class:`SnapshotCorrupt` (see :meth:`_install_snapshot`).
        """
        snap = load_snapshot(path, mmap=mmap, fault_injector=fault_injector)
        index = cls._from_snapshot(snap, context, max_frontier)
        index._record_load(snap)
        return index

    def restore_from(self, path, mmap: bool = True, fault_injector=None) -> dict:
        """Adopt the last committed snapshot at ``path`` into *this* index.

        The warm-restart form of :meth:`load`: the index object (and
        whatever serving state observes it) stays, the accel state is
        swapped for the snapshot's, and the epoch counter advances past
        both the snapshot's tag and the current epoch so epoch-keyed
        consumers (caches, pinned cursor pages) see a state change.

        The snapshot is installed into a staged index on this index's
        device context, exactly as :meth:`load` builds one, and adopted
        only once that install has succeeded: a snapshot that fails raises
        with this index's answers, counters, epoch and device-memory
        accounting unchanged.
        """
        snap = load_snapshot(path, mmap=mmap, fault_injector=fault_injector)
        staged = self._from_snapshot(snap, self.context, self.max_frontier)
        if self._accel is not None:
            self.context.memory.free(self._accel.memory_handle)
        epoch = max(snap.epoch, self.epoch + 1)
        persist_stats = self._persist_stats
        # __init__ sets every attribute, so the staged index replaces each.
        vars(self).update(vars(staged))
        self.epoch = epoch
        self._persist_stats = persist_stats
        self._record_load(snap)
        return {
            "epoch": self.epoch,
            "snapshot_epoch": snap.epoch,
            "manifest_version": snap.manifest_version,
            "load_seconds": snap.load_seconds,
            "bytes_on_disk": snap.bytes_on_disk,
            "segments_total": snap.segments_total,
        }

    @classmethod
    def _from_snapshot(cls, snap, context, max_frontier) -> "RXIndex":
        """A fresh index holding a verified snapshot's accel state."""
        config = snap.index_meta.get("config")
        try:
            if not isinstance(config, dict):
                raise ValueError(f"{config!r} is not a JSON object")
            config = RXConfig.from_dict(config)
        except ValueError as exc:
            raise SnapshotCorrupt(
                f"snapshot manifest holds no valid index config: {exc}",
                segment=MANIFEST_NAME,
            ) from exc
        index = cls(config=config, context=context, max_frontier=max_frontier)
        index._install_snapshot(snap)
        index.epoch = snap.epoch
        return index

    def _install_snapshot(self, snap) -> None:
        """Rebuild the accel state of this fresh index from a verified snapshot.

        The manifest's index block must describe what the segments hold:
        ``kind`` is the one ``config.shard_bits`` implies, ``num_keys`` and
        ``num_primitives`` are the key column's length, ``refit_generation``
        is a count and ``compacted`` a bool, and the segments the kind
        needs are present.  Each forest shard segment must be one
        :func:`_shard_state` accepts, and a single tree's root box must be
        the union of the boxes the stored keys encode to under the
        manifest's config (:func:`_check_root_box`), which binds the config
        to the tree.  A failure raises :class:`SnapshotCorrupt` naming
        ``MANIFEST.json`` or the missing or invalid segment.  Every check
        runs before the first device-memory allocation.
        """
        meta = snap.index_meta
        kind = "forest" if self.config.shard_bits else "bvh"
        for name in ("columns", "bvh") if kind == "bvh" else ("columns",):
            if name not in snap.segments:
                raise SnapshotCorrupt(
                    f"snapshot manifest of a {kind} index lists no {name} segment",
                    segment=name,
                )
        columns = snap.arrays("columns")
        try:
            self._store_column(columns["keys"], columns["values"], key_bits=64)
        except (KeyError, ValueError) as exc:
            raise SnapshotCorrupt(
                f"snapshot columns segment holds no valid key and value columns: {exc!r}",
                segment="columns",
            ) from exc

        def shown(key):
            return repr(meta[key]) if key in meta else "(missing)"

        problems = []
        if meta.get("kind") != kind:
            problems.append(
                f"kind {shown('kind')} is not {kind!r}, which "
                f"shard_bits={self.config.shard_bits} implies"
            )
        for key in ("num_keys", "num_primitives"):
            if not is_count(meta.get(key)) or meta[key] != self.num_keys:
                problems.append(
                    f"{key} {shown(key)} is not the {self.num_keys} keys the columns hold"
                )
        if not is_count(meta.get("refit_generation")):
            problems.append(
                f"refit_generation {shown('refit_generation')} is not a non-negative int"
            )
        if not isinstance(meta.get("compacted"), bool):
            problems.append(f"compacted {shown('compacted')} is not a bool")
        if problems:
            raise SnapshotCorrupt(
                f"snapshot manifest index block: {'; '.join(problems)}",
                segment=MANIFEST_NAME,
            )

        build_input = self._make_build_input(self.keys)
        buffer = build_input.primitive_buffer()
        flags = self._build_flags()
        options = flagged_options(self._bvh_options(), flags)
        compacted = meta["compacted"]
        if kind == "forest":
            shards = [
                _shard_state(snap, name) for name in snap.segments if name.startswith("shard-")
            ]
            try:
                forest = forest_from_saved(buffer, options, shards)
            except ShardPartitionError as exc:
                raise SnapshotCorrupt(
                    f"persisted forest shards are invalid: {exc}",
                    segment=f"shard-{exc.bucket:05d}",
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
            _check_root_box(bvh, buffer)

        # Mirror the build path's device-memory accounting: the accel is
        # allocated uncompacted, then (when the snapshot was compacted) the
        # compacted allocation replaces it.
        memory_info = accel_memory_estimate(buffer.kind, len(buffer))
        accel_handle = self.context.memory.alloc("accel", memory_info["uncompacted"])
        accel = GeometryAccel(
            bvh=bvh,
            build_input=build_input,
            flags=flags,
            memory_handle=accel_handle,
            memory_info=memory_info,
            build_metrics=BuildMetrics(num_primitives=len(buffer)),
            forest=forest,
        )
        if compacted:
            new_handle = self.context.memory.alloc(
                "accel_compacted", memory_info["compacted"]
            )
            self.context.memory.free(accel.memory_handle)
            accel.memory_handle = new_handle
            accel.compacted = True
        self._accel = accel
        self._pipeline = Pipeline(self.context, accel, max_frontier=self.max_frontier)

    def _record_load(self, snap) -> None:
        self._persist_stats.update(
            loads=self._persist_stats["loads"] + 1,
            last_load_seconds=snap.load_seconds,
            checksum_verify_seconds=snap.checksum_verify_seconds,
            bytes_on_disk=snap.bytes_on_disk,
            segments_total=snap.segments_total,
            last_epoch=snap.epoch,
            format_version=snap.format_version,
        )

    # ------------------------------------------------------------------ #
    # costing
    # ------------------------------------------------------------------ #

    @property
    def accel(self):
        if self._accel is None:
            raise RuntimeError("RXIndex.build() must be called first")
        return self._accel

    def stats(self) -> dict:
        """One-dict summary of the index's live state.

        Bundles the column, epoch, shard and memory bookkeeping with the
        pipeline's cumulative trace counters and the host bytes the
        primitive buffer holds (``primitive_resident_bytes``: 12 B/key of
        anchors for triangles, 16 B/key in Extended Mode; 12 B/key of
        centres for spheres and 24 B/key of corners for AABBs, plus the
        float64 intersection pack their first query builds) — the summary
        the serving layer's demo/driver prints.  Requires a built index.
        """
        accel = self.accel
        memory = self.memory_footprint()
        buffer = accel.build_input.primitive_buffer()
        forest = accel.forest
        return {
            "num_keys": self.num_keys,
            "epoch": self.epoch,
            "key_mode": self.config.key_mode.value,
            "primitive": self.config.primitive.value,
            "builder": self.config.bvh_builder,
            "update_policy": self.config.update_policy.value,
            "bvh_nodes": accel.bvh.node_count,
            "bvh_depth": accel.bvh.depth(),
            "compacted": accel.compacted,
            "shard_bits": self.config.shard_bits,
            "shard_count": forest.non_empty_shards if forest is not None else 1,
            "memory_final_bytes": memory.final_bytes,
            "memory_build_peak_bytes": memory.build_peak_bytes,
            "device_bytes_in_use": self.context.memory.current_bytes,
            "device_bytes_peak": self.context.memory.peak_bytes,
            "primitive_resident_bytes": buffer.resident_bytes(),
            "build": self._build_stats_block(forest),
            "persist": dict(self._persist_stats),
            "trace_counters": self._pipeline.engine.counters.as_dict()
            if self._pipeline is not None
            else {},
        }

    def _build_stats_block(self, forest) -> dict:
        """The ``stats()["build"]`` block, derived from the live accel: its
        non-empty shards (``shard_count``) and delegated sub-trees (a single
        tree reports 1 and 0), plus the wall-clock of the last build or
        delta update (``None`` after a snapshot load)."""
        return {
            "shards": forest.non_empty_shards if forest is not None else 1,
            "delegated_shards": forest.delegated_shards if forest is not None else 0,
            "wall_seconds": self._last_build_seconds,
        }

    def memory_footprint(self, target_keys: int | None = None) -> MemoryFootprint:
        n = self.num_keys if target_keys is None else target_keys
        estimate = accel_memory_estimate(self.config.primitive.value, n)
        final = estimate["compacted"] if self.config.compaction else estimate["uncompacted"]
        # The triangle/sphere/AABB input buffer is derived from the key
        # column the caller already owns, so only the accel's own scratch
        # space counts as build overhead (Table 6).
        peak = estimate["peak_during_build"]
        return MemoryFootprint(final_bytes=final, build_peak_bytes=peak)

    def build_profiles(
        self, target_keys: int | None = None, presorted: bool = False
    ) -> list[WorkProfile]:
        n = self.num_keys if target_keys is None else target_keys
        estimate = accel_memory_estimate(self.config.primitive.value, n)
        prim_bytes = _BUILD_PRIM_BYTES[self.config.primitive.value]
        # The BVH build makes several passes: primitive AABB computation,
        # Morton coding + sort, hierarchy emission, bound fitting, and
        # (optionally) compaction.  This is what makes RX the most expensive
        # index to construct (Figure 10c) even though it scales linearly.
        # Spheres need an extra software pass to derive their bounds, AABBs
        # skip the vertex-to-bounds conversion entirely (Figure 7b).
        pass_factor = {"triangle": 1.0, "sphere": 1.4, "aabb": 0.85}[self.config.primitive.value]
        passes_bytes = (
            n * prim_bytes * 2.0                      # read primitives, write AABBs
            + n * 12.0 * 2.0 * 4.0                    # Morton key/value sort passes
            + estimate["uncompacted"] * 3.0 * pass_factor  # hierarchy emission + fitting
            + (estimate["compacted"] if self.config.compaction else 0)
        )
        profiles = [
            WorkProfile(
                name="RX accel build",
                threads=n,
                instructions=n * 320.0,
                bytes_accessed=passes_bytes,
                working_set_bytes=estimate["peak_during_build"],
                serial_depth=4.0,
                kernel_launches=6,
                dram_bytes_min=passes_bytes * 0.8,
            )
        ]
        return profiles

    def _node_visit_scale(self, target_keys: int | None) -> float:
        """Extra BVH levels per ray when extrapolating to ``target_keys``."""
        if not target_keys or target_keys <= self.num_keys:
            return 0.0
        return math.log2(target_keys / self.num_keys)

    def lookup_profile(
        self,
        run: LookupRun,
        target_keys: int | None = None,
        target_lookups: int | None = None,
        locality: float = 0.0,
        value_bytes: int | None = None,
    ) -> WorkProfile:
        value_bytes = value_bytes if value_bytes is not None else self.config.value_bytes
        m = run.num_lookups if target_lookups is None else target_lookups
        lookup_scale = self._scale_lookups(run.num_lookups, target_lookups)

        rays_per_lookup = run.stats.get("rays_per_lookup", 1.0)
        node_visits = run.stats.get("node_visits_per_ray", 1.0)
        prim_tests = run.stats.get("prim_tests_per_ray", 1.0)
        # Early-exit traversal (first_k): the wavefront engine only
        # retires a terminated ray between rounds, so on balanced trees —
        # where every leaf sits on the last level — its measured counters
        # still include leaf-phase work that per-ray RT hardware would have
        # skipped once the budget ran dry.  ``budget_dropped_hits`` counts
        # exactly those surplus hits; discount the leaf visits and primitive
        # tests by the surviving fraction so a pushed-down LIMIT shows up in
        # the modelled cost even on balanced dense trees.
        dropped = run.stats.get("budget_dropped_hits", 0)
        if dropped > 0:
            kept = max(run.total_hits, 1)
            survive = kept / (kept + dropped)
            leaf_visits = run.stats.get("leaf_visits_per_ray", 0.0)
            node_visits -= leaf_visits * (1.0 - survive)
            prim_tests *= survive
        extra_levels = self._node_visit_scale(target_keys)
        node_visits += extra_levels
        # Rays that miss every primitive abort their traversal early: the
        # quantised hardware BVH excludes them high up in the tree, which the
        # paper measures as a -63% drop in memory traffic at a hit rate of
        # zero.  Discount the traversal work of the measured miss fraction
        # accordingly.
        rays_measured = max(run.num_lookups * rays_per_lookup, 1.0)
        miss_fraction = min(run.stats.get("rays_without_hits", 0.0) / rays_measured, 1.0)
        traversal_discount = 1.0 - miss_fraction * (1.0 - MISS_TRAVERSAL_FACTOR)
        node_visits *= traversal_discount
        prim_tests *= traversal_discount
        node_bytes_per_visit = self.accel.bvh.node_bytes()
        prim_bytes = _PRIM_TEST_BYTES[self.config.primitive.value]

        hits = run.total_hits * lookup_scale
        rays = m * rays_per_lookup

        bytes_accessed = (
            rays * (node_visits * node_bytes_per_visit + prim_tests * prim_bytes)
            + m * 8.0
            + hits * value_bytes
        )
        rt_tests = rays * (node_visits + prim_tests)
        instructions = (
            m * _INSTR_PER_LOOKUP + rays * _INSTR_PER_RAY + hits * _INSTR_PER_HIT
        )
        # AABB (and sphere) primitives call a software intersection program,
        # shifting work from the RT cores back onto the SMs and fetching the
        # candidate data through the regular (less efficient) load path
        # (Figure 7a).
        if self.config.primitive is not PrimitiveType.TRIANGLE:
            instructions += rays * prim_tests * 25.0
            bytes_accessed += rays * prim_tests * prim_bytes * 1.5
            rt_tests = rays * node_visits

        accel_bytes = accel_memory_estimate(
            self.config.primitive.value,
            self.num_keys if target_keys is None else target_keys,
        )["compacted" if self.config.compaction else "uncompacted"]
        n_values = (self.num_keys if target_keys is None else target_keys) * value_bytes

        return WorkProfile(
            name="RX lookup",
            threads=int(m),
            instructions=instructions,
            bytes_accessed=bytes_accessed,
            working_set_bytes=accel_bytes + n_values,
            serial_depth=2.0,
            rt_tests=rt_tests,
            hot_fraction=0.55,
            kernel_launches=1,
            locality=locality,
            dram_bytes_min=m * 12.0,
            metadata={
                "rays_per_lookup": rays_per_lookup,
                "node_visits_per_ray": node_visits,
                "prim_tests_per_ray": prim_tests,
            },
        )
