"""RTIndeX (RX) reproduction: GPU-raytracing database indexing, in Python.

The package re-implements the full system described in *RTIndeX: Exploiting
Hardware-Accelerated GPU Raytracing for Database Indexing* (VLDB 2023) on top
of a software raytracing substrate, together with the paper's three GPU
baselines, workload generators, an analytic GPU cost model, and a benchmark
harness that regenerates every table and figure of the evaluation.

Quickstart::

    import numpy as np
    from repro import RXIndex

    keys = np.random.permutation(np.arange(1_000, dtype=np.uint64))
    index = RXIndex()
    index.build(keys)
    run = index.point_lookup(np.array([42, 7, 999_999], dtype=np.uint64))
    print(run.result_rows)        # rowIDs (or the miss sentinel)
"""

from repro.baselines import (
    GpuBPlusTree,
    GpuIndex,
    MISS_SENTINEL,
    SortedArrayIndex,
    WarpCoreHashTable,
)
from repro.core import (
    KeyDecomposition,
    KeyMode,
    PointRayMode,
    PrimitiveType,
    RangeRayMode,
    RXConfig,
    RXIndex,
    UpdatePolicy,
)
from repro.gpusim import CostModel, DeviceSpec, RTX_4090, WorkProfile
from repro.serve import IndexService

__version__ = "1.0.0"

__all__ = [
    "CostModel",
    "DeviceSpec",
    "GpuBPlusTree",
    "GpuIndex",
    "IndexService",
    "KeyDecomposition",
    "KeyMode",
    "MISS_SENTINEL",
    "PointRayMode",
    "PrimitiveType",
    "RangeRayMode",
    "RTX_4090",
    "RXConfig",
    "RXIndex",
    "SortedArrayIndex",
    "UpdatePolicy",
    "WarpCoreHashTable",
    "WorkProfile",
    "__version__",
]
