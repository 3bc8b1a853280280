"""One module per table/figure of the paper's evaluation.

========================  =====================================================
module                    paper result
========================  =====================================================
``fig03_key_modes``       Fig 3a/b — key representations and key stride
``fig06_ray_modes``       Fig 6 — parallel vs perpendicular point rays
``table03_range_origin``  Table 3 — offset vs from-zero range rays
``fig07_primitives``      Fig 7a/b/c — triangle vs sphere vs AABB primitives
``fig08_decomposition``   Fig 8/9 — key decompositions (point + range lookups)
``table04_updates``       Table 4 — refit vs rebuild updates
``fig10_scaling``         Fig 10a/b/c/d — lookup/build scaling of all indexes
``table05_warps``         Table 5 — warp occupancy and bandwidth utilisation
``table06_memory``        Table 6 — memory footprints
``fig11_multiplicity``    Fig 11 — duplicate keys
``fig12_sorting``         Fig 12 — sorted inserts / sorted lookups
``fig13_batching``        Fig 13 — lookup batch sizes
``fig14_hitrate``         Fig 14 — hit rate sweep, unsorted and sorted lookups
``fig15_keysize``         Fig 15a/b — 32-bit vs 64-bit keys
``fig16_skew``            Fig 16 — Zipf-skewed lookups, unsorted and sorted
``table07_skew_profile``  Table 7 — profiling under skew
``fig17_range``           Fig 17 — range lookups + NNLS cost split; LIMIT-k
``fig18_hardware``        Fig 18 / Table 8 — GPU generations
``ablation_builders``     extra — software-BVH builder / leaf size ablation
``serve_throughput``      extra — serving layer: micro-batched vs solo launches
``chaos_serve``           extra — serving goodput under injected faults
``paging_scan``           extra — keyset-cursor resume vs prefix rescan
``restart``               extra — cold snapshot load vs full rebuild
========================  =====================================================
"""

from functools import partial

from repro.bench.experiments import (
    ablation_builders,
    chaos_serve,
    fig03_key_modes,
    fig06_ray_modes,
    fig07_primitives,
    fig08_decomposition,
    fig10_scaling,
    fig11_multiplicity,
    fig12_sorting,
    fig13_batching,
    fig14_hitrate,
    fig15_keysize,
    fig16_skew,
    fig17_range,
    fig18_hardware,
    paging_scan,
    restart,
    serve_throughput,
    table03_range_origin,
    table04_updates,
    table05_warps,
    table06_memory,
    table07_skew_profile,
)

#: One entry per paper panel, each called as ``entry(scale=..., device=...)``.
ALL_EXPERIMENTS = {
    "fig03": fig03_key_modes.run,
    "fig03b": partial(fig03_key_modes.run, strides=(1, 2, 4)),
    "fig06": fig06_ray_modes.run,
    "table03": table03_range_origin.run,
    "fig07": fig07_primitives.run,
    "fig07b": partial(fig07_primitives.run, panel="build"),
    "fig07c": partial(fig07_primitives.run, panel="memory"),
    "fig08": fig08_decomposition.run,
    "fig09": fig08_decomposition.run_fig9,
    "table04": table04_updates.run,
    "fig10": fig10_scaling.run,
    "fig10b": fig10_scaling.run_fig10b,
    "fig10c": fig10_scaling.run_fig10c,
    "fig10d": fig10_scaling.run_fig10d,
    "table05": table05_warps.run,
    "table06": table06_memory.run,
    "fig11": fig11_multiplicity.run,
    "fig12": fig12_sorting.run,
    "fig13": fig13_batching.run,
    "fig14": fig14_hitrate.run,
    "fig14-sorted": partial(fig14_hitrate.run, sorted_lookups=True),
    "fig15": fig15_keysize.run,
    "fig15b": partial(fig15_keysize.run, panel="memory"),
    "fig16": fig16_skew.run,
    "fig16-sorted": partial(fig16_skew.run, sorted_lookups=True),
    "table07": table07_skew_profile.run,
    "fig17": fig17_range.run,
    "fig17-limit": fig17_range.run_limited,
    "fig18": fig18_hardware.run,
    "ablation": ablation_builders.run,
    "serve": serve_throughput.run,
    "chaos": chaos_serve.run,
    "paging": paging_scan.run,
    "restart": restart.run,
}

__all__ = ["ALL_EXPERIMENTS"]
