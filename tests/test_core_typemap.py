"""Tests for order-preserving type mappings."""

import numpy as np
import pytest

from repro.core.typemap import composite_to_uint64, float64_to_uint64, string_to_uint64


class TestFloatMapping:
    def test_order_preserved(self):
        values = np.array([-np.inf, -1e10, -2.5, 0.0, 1e-10, 3.0, np.inf])
        mapped = float64_to_uint64(values)
        assert np.all(np.diff(mapped.astype(object)) > 0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            float64_to_uint64(np.array([np.nan]))


class TestStringMapping:
    def test_lexicographic_order(self):
        strings = ["apple", "apples", "banana", "cherry"]
        mapped = string_to_uint64(strings)
        assert np.all(np.diff(mapped.astype(object)) > 0)

    def test_shared_prefix_collides(self):
        # Only the first eight characters are indexed; the rest must be
        # compared in software, as the paper notes.
        mapped = string_to_uint64(["averylongkeyA", "averylongkeyB"])
        assert mapped[0] == mapped[1]

    def test_num_chars_validation(self):
        with pytest.raises(ValueError):
            string_to_uint64(["x"], num_chars=9)

    def test_short_strings_padded(self):
        mapped = string_to_uint64(["a", "b"])
        assert mapped[0] < mapped[1]


class TestCompositeMapping:
    def test_lexicographic_packing(self):
        year = np.array([2023, 2023, 2024])
        month = np.array([1, 12, 1])
        packed = composite_to_uint64([year, month], [16, 8])
        assert packed[0] < packed[1] < packed[2]

    def test_width_overflow_rejected(self):
        with pytest.raises(ValueError):
            composite_to_uint64([np.array([1])], [65])

    def test_component_exceeding_width_rejected(self):
        with pytest.raises(ValueError):
            composite_to_uint64([np.array([256])], [8])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            composite_to_uint64([np.array([1]), np.array([1, 2])], [8, 8])
        with pytest.raises(ValueError):
            composite_to_uint64([np.array([1])], [8, 8])
