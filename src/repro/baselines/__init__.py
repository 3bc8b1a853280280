"""Traditional GPU-resident index structures used as baselines.

The paper compares RX against three GPU indexes (Section 4.1):

* :class:`repro.baselines.hashtable.WarpCoreHashTable` (**HT**) — a
  WarpCore-style open-addressing hash table with cooperative probing,
* :class:`repro.baselines.btree.GpuBPlusTree` (**B+**) — a bulk-loaded GPU
  B+-Tree with 16-wide nodes and linked leaves,
* :class:`repro.baselines.sorted_array.SortedArrayIndex` (**SA**) — a sorted
  array probed with binary search.

All of them, and RX itself, implement the common
:class:`repro.baselines.base.GpuIndex` interface so the benchmark harness can
treat them uniformly.
"""

from repro.baselines.base import (
    BuildResult,
    GpuIndex,
    LookupRun,
    MemoryFootprint,
    MISS_SENTINEL,
)
from repro.baselines.btree import GpuBPlusTree
from repro.baselines.hashtable import WarpCoreHashTable
from repro.baselines.sorted_array import SortedArrayIndex

__all__ = [
    "BuildResult",
    "GpuBPlusTree",
    "GpuIndex",
    "LookupRun",
    "MISS_SENTINEL",
    "MemoryFootprint",
    "SortedArrayIndex",
    "WarpCoreHashTable",
]
