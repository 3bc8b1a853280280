"""Workload generators: key columns, lookup batches, update batches.

These reproduce the data and query distributions of the paper's evaluation
setup (Section 3.1 and the per-experiment variations of Section 4): dense
shuffled key sets, strided and sparse key sets, controlled key multiplicity,
point lookups with a configurable hit rate, range lookups with a fixed number
of qualifying entries, Zipf-skewed lookups, sorted/unsorted variants, and the
two update workloads of Table 4.
"""

from repro.workloads.keys import (
    dense_shuffled_keys,
    keys_with_multiplicity,
    sparse_uniform_keys,
    strided_keys,
)
from repro.workloads.lookups import (
    point_lookups,
    point_lookups_with_hit_rate,
    range_lookups,
    zipf_point_lookups,
)
from repro.workloads.streams import (
    QueryStream,
    StreamRequest,
    zipf_point_stream,
)
from repro.workloads.table import SecondaryIndexWorkload
from repro.workloads.updates import (
    clustered_key_swaps,
    swap_adjacent_keys,
    swap_adjacent_positions,
)
from repro.workloads.zipf import zipf_sample

__all__ = [
    "QueryStream",
    "SecondaryIndexWorkload",
    "StreamRequest",
    "clustered_key_swaps",
    "dense_shuffled_keys",
    "keys_with_multiplicity",
    "point_lookups",
    "point_lookups_with_hit_rate",
    "range_lookups",
    "sparse_uniform_keys",
    "strided_keys",
    "swap_adjacent_keys",
    "swap_adjacent_positions",
    "zipf_point_lookups",
    "zipf_point_stream",
    "zipf_sample",
]
