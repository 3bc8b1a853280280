"""Figure 13 — Splitting the lookups into smaller batches.

The 2^27 lookups are submitted as 2^0 .. 2^20 consecutive batches.  Up to
~2^12 batches the cumulative time stays flat; beyond that the batches become
too small to saturate the GPU and the per-launch overhead accumulates.
Sorting small batches stops paying off because the radix sort has a fixed
lower bound per invocation.
"""

from __future__ import annotations

from repro.bench.harness import (
    ExperimentResult,
    ExperimentSeries,
    resolve_scale,
    simulate_lookups,
)
from repro.bench.experiments.common import log2_label, make_standard_indexes, standard_point_workload
from repro.gpusim.device import RTX_4090

NUM_BATCHES = [2**0, 2**4, 2**8, 2**12, 2**16, 2**20]


def run(scale: str = "small", device=RTX_4090) -> ExperimentResult:
    scale = resolve_scale(scale)
    workload = standard_point_workload(scale, seed=121)
    # The point workload is duplicate-free, so RX point lookups trace as
    # early-exit first_k with a budget of one hit (exactly one reported hit
    # per ray, the hardware any-hit termination).
    indexes = make_standard_indexes()
    for index in indexes.values():
        index.build(workload.keys, workload.values)

    series = []
    for sorted_lookups in (False, True):
        suffix = "sorted" if sorted_lookups else "unsorted"
        for name, index in indexes.items():
            ys = []
            for batches in NUM_BATCHES:
                cost = simulate_lookups(
                    index,
                    workload,
                    scale,
                    device=device,
                    sorted_lookups=sorted_lookups,
                    num_batches=batches,
                )
                ys.append(cost.time_ms)
            series.append(
                ExperimentSeries(
                    label=f"{name} ({suffix})",
                    x=[log2_label(b) for b in NUM_BATCHES],
                    y=ys,
                    unit="ms",
                )
            )
    return ExperimentResult(
        experiment_id="fig13",
        title="Impact of splitting the lookups into batches",
        x_label="number of batches",
        series=series,
        notes="Small batches under-utilise the GPU and pay one kernel launch each.",
        scale=scale.name,
        device=device.name,
    )
