"""Tests for the DeviceRadixSort functional + cost model."""

import numpy as np
import pytest

from repro.gpusim.sorting import DeviceRadixSort, MIN_EFFECTIVE_ITEMS


class TestFunctionalSort:
    def test_sorts_keys_and_permutes_values(self):
        sorter = DeviceRadixSort()
        keys = np.array([5, 3, 9, 1], dtype=np.uint64)
        values = np.array([50, 30, 90, 10], dtype=np.uint64)
        result = sorter.sort_pairs(keys, values)
        assert result.keys.tolist() == [1, 3, 5, 9]
        assert result.values.tolist() == [10, 30, 50, 90]

    def test_sort_without_values_returns_permutation(self):
        sorter = DeviceRadixSort()
        keys = np.array([5, 3, 9, 1], dtype=np.uint64)
        result = sorter.sort_pairs(keys)
        assert np.array_equal(keys[result.values.astype(np.int64)], result.keys)

    def test_sort_is_stable_for_duplicates(self):
        sorter = DeviceRadixSort()
        keys = np.array([2, 1, 2, 1], dtype=np.uint64)
        values = np.array([0, 1, 2, 3], dtype=np.uint64)
        result = sorter.sort_pairs(keys, values)
        assert result.values.tolist() == [1, 3, 0, 2]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            DeviceRadixSort().sort_pairs(np.arange(3), np.arange(4))

    def test_invalid_widths_rejected(self):
        with pytest.raises(ValueError):
            DeviceRadixSort(key_bytes=3)
        with pytest.raises(ValueError):
            DeviceRadixSort(value_bytes=2)


class TestSortCostModel:
    def test_pass_count_by_key_width(self):
        assert DeviceRadixSort(key_bytes=4).passes == 4
        assert DeviceRadixSort(key_bytes=8).passes == 8

    def test_profile_scales_with_items(self):
        small = DeviceRadixSort().work_profile(2**21)
        large = DeviceRadixSort().work_profile(2**23)
        assert large.bytes_accessed > small.bytes_accessed

    def test_profile_has_fixed_lower_bound(self):
        # Section 4.5: the sort run time stabilises for batches below 2^20.
        tiny = DeviceRadixSort().work_profile(2**10, num_invocations=2)
        assert tiny.bytes_accessed >= MIN_EFFECTIVE_ITEMS

    def test_64bit_keys_cost_more(self):
        narrow = DeviceRadixSort(key_bytes=4).work_profile(2**22)
        wide = DeviceRadixSort(key_bytes=8).work_profile(2**22)
        assert wide.bytes_accessed > narrow.bytes_accessed

    def test_invocations_multiply_launches(self):
        once = DeviceRadixSort().work_profile(2**21, num_invocations=1)
        many = DeviceRadixSort().work_profile(2**21, num_invocations=8)
        assert many.kernel_launches == 8 * once.kernel_launches
