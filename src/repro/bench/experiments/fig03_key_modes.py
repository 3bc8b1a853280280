"""Figure 3 — How can we express keys? (Naive vs Extended vs 3D Mode).

Figure 3a sweeps the number of indexed keys (a dense key set) and reports the
cumulative point-lookup time per key-conversion mode; Naive Mode cannot go
beyond 2^23 keys (marked N/A), and Extended Mode degrades sharply once the
key-range ratio approaches 2^26.  Figure 3b repeats the sweep for Extended
and 3D Mode with key strides of 1, 2 and 4, which shifts the degradation
onset to correspondingly smaller key counts.

The functional simulation uses a strided subsample of the target key range so
the *value range* (the quantity that matters for the pathology) matches the
paper's x axis exactly while the primitive count stays tractable.
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
from repro.workloads import point_lookups, strided_keys
from repro.workloads.table import SecondaryIndexWorkload

#: Build sizes of Figure 3 (number of indexed keys).  The paper sweeps up to
#: 2^26; we add one more doubling because the Extended-Mode degradation onset
#: of our software LBVH sits at a slightly larger key-range ratio than the
#: proprietary OptiX builder's (see EXPERIMENTS.md).
BUILD_SIZES = [2**21, 2**22, 2**23, 2**24, 2**25, 2**26, 2**27]

_MODE_CONFIGS = {
    "naive": lambda: RXConfig(key_mode=KeyMode.NAIVE),
    "ext": lambda: RXConfig(
        key_mode=KeyMode.EXTENDED,
        point_ray_mode=PointRayMode.PERPENDICULAR,
        range_ray_mode=RangeRayMode.PARALLEL_FROM_ZERO,
    ),
    "3d": lambda: RXConfig(key_mode=KeyMode.THREE_D),
}


def _lookup_time_for(
    mode: str, num_keys: int, stride: int, scale, device
) -> float | None:
    """Simulated cumulative lookup time for one (mode, build size, stride) cell."""
    total_span = num_keys * stride
    if mode == "naive" and total_span > NAIVE_MODE_KEY_LIMIT:
        return None
    sim_keys = min(scale.sim_keys, num_keys)
    sim_stride = max(total_span // sim_keys, 1)
    keys = strided_keys(sim_keys, stride=sim_stride, seed=17)
    queries = point_lookups(keys, scale.sim_lookups, seed=18)
    workload = SecondaryIndexWorkload.from_keys(keys, point_queries=queries)

    index = RXIndex(_MODE_CONFIGS[mode]())
    index.build(workload.keys, workload.values)
    local_scale = scale.with_targets(target_keys=num_keys)
    cost = simulate_lookups(index, workload, local_scale, device=device)
    return cost.time_ms


def run(scale: str = "small", device=RTX_4090, strides: tuple[int, ...] = (1,)) -> ExperimentResult:
    """Figure 3a (``strides=(1,)``) or Figure 3b (``strides=(1, 2, 4)``)."""
    scale = resolve_scale(scale)
    series = []
    modes = ("naive", "ext", "3d") if strides == (1,) else ("ext", "3d")
    for mode in modes:
        for stride in strides:
            label = mode if len(strides) == 1 else f"{mode} stride {stride}"
            ys = []
            for num_keys in BUILD_SIZES:
                ys.append(_lookup_time_for(mode, num_keys, stride, scale, device))
            series.append(
                ExperimentSeries(
                    label=label,
                    x=[log2_label(n) for n in BUILD_SIZES],
                    y=ys,
                    unit="ms",
                )
            )
    figure = "fig3a" if strides == (1,) else "fig3b"
    return ExperimentResult(
        experiment_id=figure,
        title="Effects of key representations on lookup time",
        x_label="indexed keys",
        series=series,
        notes=(
            "N/A entries: Naive Mode only supports 2^23 distinct keys. "
            "Extended Mode degrades once the key-range ratio approaches 2^26."
        ),
        scale=scale.name,
        device=device.name,
    )
