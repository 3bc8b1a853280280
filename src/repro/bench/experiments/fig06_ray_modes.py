"""Figure 6 — Should point lookups use parallel or perpendicular rays?

For each key mode the paper compares point lookups expressed as parallel rays
that start at the scene origin against perpendicular rays fired straight at
the key's primitive.  Perpendicular rays win consistently because a parallel
ray geometrically overlaps the bounding volumes of *every* key below the
searched one and must rely on the intersection interval to reject them.
"""

from __future__ import annotations

from repro.bench.harness import (
    ExperimentResult,
    ExperimentSeries,
    resolve_scale,
    simulate_lookups,
)
from repro.bench.experiments.common import log2_label
from repro.core import KeyMode, PointRayMode, RangeRayMode, RXConfig, RXIndex
from repro.gpusim.device import RTX_4090
from repro.rtx.float32 import NAIVE_MODE_KEY_LIMIT
from repro.workloads import dense_shuffled_keys, point_lookups
from repro.workloads.table import SecondaryIndexWorkload

#: Build sizes of Figure 6.
BUILD_SIZES = [2**21, 2**22, 2**23, 2**24]

_RAY_MODES = {
    "parallel from zero": PointRayMode.PARALLEL_FROM_ZERO,
    "perpendicular": PointRayMode.PERPENDICULAR,
}


def _config(mode: str, ray_mode: PointRayMode) -> RXConfig:
    key_mode = {"naive": KeyMode.NAIVE, "ext": KeyMode.EXTENDED, "3d": KeyMode.THREE_D}[mode]
    range_mode = (
        RangeRayMode.PARALLEL_FROM_ZERO
        if key_mode is KeyMode.EXTENDED
        else RangeRayMode.PARALLEL_FROM_OFFSET
    )
    # Point lookups ride the early-exit traversal: the workload's keys are
    # duplicate-free, so each lookup traces first_k with a budget of one hit
    # — terminating each ray at its first hit is exactly the hardware
    # any-hit behaviour the paper measures for from-zero rays (a column with
    # duplicates falls back to reporting every match).
    return RXConfig(
        key_mode=key_mode, point_ray_mode=ray_mode, range_ray_mode=range_mode
    )


def run(scale: str = "small", device=RTX_4090) -> ExperimentResult:
    scale = resolve_scale(scale)
    keys = dense_shuffled_keys(scale.sim_keys, seed=23)
    queries = point_lookups(keys, scale.sim_lookups, seed=24)
    workload = SecondaryIndexWorkload.from_keys(keys, point_queries=queries)

    series = []
    for mode in ("naive", "ext", "3d"):
        for ray_label, ray_mode in _RAY_MODES.items():
            index = RXIndex(_config(mode, ray_mode))
            index.build(workload.keys, workload.values)
            ys = []
            for num_keys in BUILD_SIZES:
                if mode == "naive" and num_keys > NAIVE_MODE_KEY_LIMIT:
                    ys.append(None)
                    continue
                cost = simulate_lookups(
                    index, workload, scale.with_targets(target_keys=num_keys), device=device
                )
                ys.append(cost.time_ms)
            series.append(
                ExperimentSeries(
                    label=f"{mode} / {ray_label}",
                    x=[log2_label(n) for n in BUILD_SIZES],
                    y=ys,
                    unit="ms",
                )
            )
    return ExperimentResult(
        experiment_id="fig6",
        title="Lookup time for parallel and perpendicular point rays",
        x_label="indexed keys",
        series=series,
        notes="Perpendicular rays avoid traversing the bounding volumes of all preceding keys.",
        scale=scale.name,
        device=device.name,
    )
