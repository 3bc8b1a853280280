"""Simulated NVIDIA OptiX / RT-core substrate.

This subpackage re-implements, in pure Python + NumPy, the parts of the
OptiX 7 raytracing stack that the RTIndeX paper relies on:

* float32 coordinate handling (:mod:`repro.rtx.float32`),
* geometric primitives and intersection tests (:mod:`repro.rtx.geometry`),
* the primitive buffer a build consumes for key anchor points
  (:mod:`repro.rtx.build_input`),
* bounding volume hierarchies with SAH and LBVH builders (:mod:`repro.rtx.bvh`,
  :mod:`repro.rtx.morton`) and the Morton-prefix sharded forest build with
  delta-shard updates (:mod:`repro.rtx.forest`),
* refitting (:mod:`repro.rtx.refit`),
* the traversal engine with hardware-style counters (:mod:`repro.rtx.traversal`),
* the accel build, compaction and update calls and a programmable pipeline
  mirroring ``optixLaunch`` (:mod:`repro.rtx.pipeline`),
* the accel device-memory model behind Table 6 and Figure 7c
  (:mod:`repro.rtx.memory`).

The functional behaviour (which primitives a ray hits, within which
``[tmin, tmax]`` interval) is exact; the performance behaviour is exposed as
counters that the :mod:`repro.gpusim` cost model converts into simulated
milliseconds.
"""

from repro.rtx.bvh import Bvh, BvhBuildOptions, build_bvh
from repro.rtx.forest import BvhForest, build_forest, delta_update_forest
from repro.rtx.geometry import (
    AabbBuffer,
    AnchoredTriangleBuffer,
    RayBatch,
    SphereBuffer,
    TriangleBuffer,
)
from repro.rtx.pipeline import (
    GeometryAccel,
    LaunchResult,
    Pipeline,
    accel_build,
    accel_compact,
    accel_delta_update,
    accel_update,
    compact_accel,
)
from repro.rtx.refit import refit_accel
from repro.rtx.traversal import TraversalCounters, TraversalEngine

__all__ = [
    "AabbBuffer",
    "AnchoredTriangleBuffer",
    "Bvh",
    "BvhBuildOptions",
    "BvhForest",
    "GeometryAccel",
    "LaunchResult",
    "Pipeline",
    "RayBatch",
    "SphereBuffer",
    "TraversalCounters",
    "TraversalEngine",
    "TriangleBuffer",
    "accel_build",
    "accel_compact",
    "accel_delta_update",
    "accel_update",
    "build_bvh",
    "build_forest",
    "delta_update_forest",
    "compact_accel",
    "refit_accel",
]
