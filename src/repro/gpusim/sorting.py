"""CUB ``DeviceRadixSort`` — functional result plus cost model.

The paper uses CUB's key-value radix sort in three places: the B+-Tree and
sorted-array builds, and the optional sorting of lookup batches
(Sections 4.1, 4.4, 4.5).  Functionally we only need a stable key-value sort
(NumPy ``argsort``); the cost model charges the passes an out-of-place LSD
radix sort performs: each pass streams keys and values in and out of DRAM
once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpusim.counters import WorkProfile

#: Radix bits resolved per pass (CUB uses 6–8 depending on key size; 8 keeps
#: the arithmetic simple and matches the 4-pass behaviour for 32-bit keys).
RADIX_BITS_PER_PASS = 8

#: Below this many items the sort run time no longer shrinks: kernel launch
#: and histogram overheads dominate (the paper observes the run time of
#: DeviceRadixSort stabilising at a lower bound for batches below 2^20).
MIN_EFFECTIVE_ITEMS = 2**20


@dataclass
class RadixSortResult:
    """Sorted keys/values plus the work profile of the sort."""

    keys: np.ndarray
    values: np.ndarray
    profile: WorkProfile


class DeviceRadixSort:
    """Functional + modelled replacement for CUB's DeviceRadixSort."""

    def __init__(self, key_bytes: int = 4, value_bytes: int = 4):
        if key_bytes not in (4, 8):
            raise ValueError("key_bytes must be 4 or 8")
        if value_bytes not in (0, 4, 8):
            raise ValueError("value_bytes must be 0, 4 or 8")
        self.key_bytes = key_bytes
        self.value_bytes = value_bytes

    @property
    def passes(self) -> int:
        return (self.key_bytes * 8 + RADIX_BITS_PER_PASS - 1) // RADIX_BITS_PER_PASS

    def sort_pairs(self, keys: np.ndarray, values: np.ndarray | None = None) -> RadixSortResult:
        """Sort ``keys`` ascending, permuting ``values`` alongside."""
        keys = np.asarray(keys)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        if values is None:
            sorted_values = order.astype(np.uint64)
        else:
            values = np.asarray(values)
            if values.shape[0] != keys.shape[0]:
                raise ValueError("keys and values must have the same length")
            sorted_values = values[order]
        profile = self.work_profile(keys.shape[0])
        return RadixSortResult(keys=sorted_keys, values=sorted_values, profile=profile)

    def work_profile(self, num_items: int, num_invocations: int = 1) -> WorkProfile:
        """Work profile of sorting ``num_items`` pairs, ``num_invocations`` times.

        Small batches are clamped to ``MIN_EFFECTIVE_ITEMS`` per invocation to
        model the sort's fixed lower bound.
        """
        effective = max(int(num_items), 1)
        charged = max(effective, MIN_EFFECTIVE_ITEMS if num_invocations > 1 or effective < MIN_EFFECTIVE_ITEMS else effective)
        item_bytes = self.key_bytes + self.value_bytes
        # Each pass reads and writes every key/value pair once (out of place).
        bytes_per_invocation = 2.0 * self.passes * charged * item_bytes
        instructions_per_invocation = 12.0 * self.passes * charged
        return WorkProfile(
            name="radix_sort",
            threads=effective,
            instructions=instructions_per_invocation * num_invocations,
            bytes_accessed=bytes_per_invocation * num_invocations,
            working_set_bytes=2.0 * effective * item_bytes,
            serial_depth=0.0,
            kernel_launches=2 * self.passes * num_invocations,
            # Radix sort streams sequentially: perfect coalescing, no reuse.
            locality=0.0,
            dram_bytes_min=bytes_per_invocation * num_invocations * 0.9,
        )
