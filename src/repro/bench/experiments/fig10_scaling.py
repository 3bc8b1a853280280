"""Figure 10 — Scaling behaviour of all indexing methods.

Three panels:

* (a) throughput while the number of point lookups grows from 2^13 to 2^27
  (2^26 indexed keys) — all methods saturate around 2^21 lookups; HT leads,
  RX stays competitive with the order-based indexes,
* (b) throughput while the number of indexed keys grows from 2^15 to 2^26
  (2^27 lookups) — RX is the fastest method for small key sets (everything is
  L2-resident and RX executes the fewest instructions) and falls behind HT
  and B+ once the structures spill out of the cache,
* (c) build time for 2^25 and 2^26 keys, for unsorted and pre-sorted inserts —
  the BVH construction makes RX the most expensive index to build.

``run_fig10d`` is a companion panel without a counterpart in the paper: the
*measured host wall-clock* of the RX accel build, single tree versus the
Morton-prefix sharded forest.  It reports real seconds (not simulated
milliseconds) because the forest's cut of the tree into shards is a
host-side cost of the reproduction, which the GPU cost model does not
cover.
"""

from __future__ import annotations

import os
import time

from repro.bench.harness import (
    ExperimentResult,
    ExperimentSeries,
    resolve_scale,
    simulate_build,
    simulate_lookups,
    throughput_lookups_per_second,
)
from repro.bench.experiments.common import (
    log2_label,
    make_standard_indexes,
    standard_point_workload,
)
from repro.gpusim.device import RTX_4090

LOOKUP_COUNTS = [2**n for n in range(13, 28, 2)]
KEY_COUNTS = [2**n for n in range(15, 27)]
BUILD_KEY_COUNTS = [2**25, 2**26]

#: Sharding of the measured forest builds in ``run_fig10d`` (64 shards).
FOREST_SHARD_BITS = 6


def run(scale: str = "small", device=RTX_4090) -> ExperimentResult:
    """Figure 10a: throughput while varying the number of lookups."""
    scale = resolve_scale(scale)
    workload = standard_point_workload(scale, seed=71)
    indexes = make_standard_indexes()
    for index in indexes.values():
        index.build(workload.keys, workload.values)

    series = []
    for name, index in indexes.items():
        ys = []
        for num_lookups in LOOKUP_COUNTS:
            local = scale.with_targets(target_lookups=num_lookups)
            cost = simulate_lookups(index, workload, local, device=device)
            ys.append(throughput_lookups_per_second(cost.time_ms, num_lookups))
        series.append(
            ExperimentSeries(
                label=name,
                x=[log2_label(m) for m in LOOKUP_COUNTS],
                y=ys,
                unit="lookups/s",
            )
        )
    return ExperimentResult(
        experiment_id="fig10a",
        title="Throughput while varying the number of point lookups (2^26 keys)",
        x_label="number of lookups",
        series=series,
        notes="Throughput saturates once enough warps are resident per SM (Table 5).",
        scale=scale.name,
        device=device.name,
    )


def run_fig10b(scale: str = "small", device=RTX_4090) -> ExperimentResult:
    """Figure 10b: throughput while varying the number of indexed keys."""
    scale = resolve_scale(scale)
    workload = standard_point_workload(scale, seed=72)
    indexes = make_standard_indexes()
    for index in indexes.values():
        index.build(workload.keys, workload.values)

    series = []
    for name, index in indexes.items():
        ys = []
        for num_keys in KEY_COUNTS:
            local = scale.with_targets(target_keys=num_keys)
            cost = simulate_lookups(index, workload, local, device=device)
            ys.append(throughput_lookups_per_second(cost.time_ms, scale.target_lookups))
        series.append(
            ExperimentSeries(
                label=name,
                x=[log2_label(n) for n in KEY_COUNTS],
                y=ys,
                unit="lookups/s",
            )
        )
    return ExperimentResult(
        experiment_id="fig10b",
        title="Throughput while varying the number of indexed keys (2^27 lookups)",
        x_label="number of indexed keys",
        series=series,
        notes="RX leads for L2-resident key sets; HT and B+ take over once the structures spill.",
        scale=scale.name,
        device=device.name,
    )


def run_fig10c(scale: str = "small", device=RTX_4090) -> ExperimentResult:
    """Figure 10c: build time for sorted and unsorted key sets."""
    scale = resolve_scale(scale)
    workload = standard_point_workload(scale, seed=73)
    indexes = make_standard_indexes()
    for index in indexes.values():
        index.build(workload.keys, workload.values)

    series = []
    for presorted in (False, True):
        suffix = "sorted inserts" if presorted else "unsorted inserts"
        for name, index in indexes.items():
            ys = []
            for num_keys in BUILD_KEY_COUNTS:
                local = scale.with_targets(target_keys=num_keys)
                build_ms, _ = simulate_build(index, local, device=device, presorted=presorted)
                ys.append(build_ms)
            series.append(
                ExperimentSeries(
                    label=f"{name} ({suffix})",
                    x=[log2_label(n) for n in BUILD_KEY_COUNTS],
                    y=ys,
                    unit="ms",
                )
            )
    return ExperimentResult(
        experiment_id="fig10c",
        title="Build time for 2^25 and 2^26 keys",
        x_label="number of indexed keys",
        series=series,
        notes="The BVH construction makes RX the most expensive index to build.",
        scale=scale.name,
        device=device.name,
    )


def run_fig10d(scale: str = "small", device=RTX_4090) -> ExperimentResult:
    """Measured RX build wall-clock: single tree vs sharded forest.

    Builds real accels at multiples of the simulation size and times them on
    the host: the single-tree path and the forest (the same build, plus the
    cut into shards).  The forest trees are verified bit-identical to the
    single-tree builds.
    """
    import numpy as np

    from repro.rtx.bvh import BvhBuildOptions, build_bvh, bvh_arrays_diff
    from repro.rtx.forest import build_forest
    from repro.rtx.geometry import TriangleBuffer, make_triangle_vertices

    scale = resolve_scale(scale)
    key_counts = [scale.sim_keys * 4, scale.sim_keys * 16]
    single_seconds: list[float] = []
    forest_seconds: list[float] = []
    for num_keys in key_counts:
        rng = np.random.default_rng(num_keys)
        points = rng.uniform(0, 1e6, size=(num_keys, 3))
        buffer = TriangleBuffer(make_triangle_vertices(points))
        start = time.perf_counter()
        single = build_bvh(buffer, BvhBuildOptions())
        single_seconds.append(time.perf_counter() - start)
        start = time.perf_counter()
        forest = build_forest(buffer, BvhBuildOptions(shard_bits=FOREST_SHARD_BITS))
        forest_seconds.append(time.perf_counter() - start)
        diff = bvh_arrays_diff(forest.bvh, single)
        if diff is not None:
            raise RuntimeError(
                f"sharded build diverged from the single tree on "
                f"{diff!r} ({num_keys} keys)"
            )

    series = [
        ExperimentSeries(
            label=label,
            x=[log2_label(n) for n in key_counts],
            y=seconds,
            unit="s (measured)",
        )
        for label, seconds in (
            ("single tree", single_seconds),
            ("sharded forest", forest_seconds),
        )
    ]
    return ExperimentResult(
        experiment_id="fig10d",
        title="Measured RX accel build wall-clock: single tree vs sharded forest",
        x_label="number of indexed keys",
        series=series,
        notes=(
            f"Host wall-clock of the reproduction's build path ({os.cpu_count()} "
            "CPUs visible).  The forest trees are bit-identical to the "
            "single-tree builds; sharding adds only the cut into shards."
        ),
        scale=scale.name,
        device=device.name,
    )
