"""Tests for the workload generators."""

import numpy as np
import pytest

from repro.workloads import (
    SecondaryIndexWorkload,
    dense_shuffled_keys,
    keys_with_multiplicity,
    point_lookups,
    point_lookups_with_hit_rate,
    range_lookups,
    sparse_uniform_keys,
    strided_keys,
    swap_adjacent_keys,
    swap_adjacent_positions,
    zipf_point_lookups,
    zipf_sample,
)
from repro.workloads.lookups import miss_keys
from repro.workloads.zipf import zipf_probabilities


class TestKeyGenerators:
    def test_dense_keys_are_a_permutation(self):
        keys = dense_shuffled_keys(100)
        assert sorted(keys.tolist()) == list(range(100))

    def test_dense_keys_are_shuffled(self):
        keys = dense_shuffled_keys(1000, seed=0)
        assert not np.array_equal(keys, np.arange(1000))

    def test_dense_keys_deterministic_per_seed(self):
        assert np.array_equal(dense_shuffled_keys(64, seed=3), dense_shuffled_keys(64, seed=3))

    def test_dense_keys_start_offset(self):
        keys = dense_shuffled_keys(10, start=100)
        assert keys.min() == 100 and keys.max() == 109

    def test_strided_keys_value_range(self):
        keys = strided_keys(100, stride=4)
        assert keys.max() == 4 * 99
        assert set(keys.tolist()) == set(range(0, 400, 4))

    def test_strided_keys_invalid_stride(self):
        with pytest.raises(ValueError):
            strided_keys(10, stride=0)

    def test_sparse_keys_unique_and_within_domain(self):
        keys = sparse_uniform_keys(500, key_bits=20)
        assert np.unique(keys).shape[0] == 500
        assert keys.max() < 2**20

    def test_sparse_keys_domain_too_small(self):
        with pytest.raises(ValueError):
            sparse_uniform_keys(100, key_bits=5)

    def test_multiplicity_generator(self):
        keys = keys_with_multiplicity(50, multiplicity=4)
        values, counts = np.unique(keys, return_counts=True)
        assert values.shape[0] == 50
        assert (counts == 4).all()

    def test_multiplicity_validation(self):
        with pytest.raises(ValueError):
            keys_with_multiplicity(10, multiplicity=0)

    def test_empty_key_count_rejected(self):
        with pytest.raises(ValueError):
            dense_shuffled_keys(0)


class TestLookupGenerators:
    def test_point_lookups_drawn_from_keys(self):
        keys = dense_shuffled_keys(128)
        queries = point_lookups(keys, 64)
        assert np.isin(queries, keys).all()

    def test_hit_rate_controlled(self):
        keys = dense_shuffled_keys(512)
        queries = point_lookups_with_hit_rate(keys, 400, hit_rate=0.25, key_bits=32)
        hits = np.isin(queries, keys).mean()
        assert hits == pytest.approx(0.25, abs=0.02)

    def test_hit_rate_bounds_validated(self):
        with pytest.raises(ValueError):
            point_lookups_with_hit_rate(dense_shuffled_keys(16), 8, hit_rate=1.5)

    def test_miss_keys_vectorised_membership(self):
        """The batched searchsorted membership test must behave exactly like
        the per-draw set lookup it replaced, including at domain edges."""
        rng = np.random.default_rng(77)
        keys = rng.integers(0, 2**10, size=900).astype(np.uint64)
        for key_bits in (10, 32):
            misses = miss_keys(keys, 500, key_bits=key_bits, seed=3)
            assert misses.shape == (500,)
            assert not np.isin(misses, keys).any()
            assert misses.max() <= np.uint64((1 << key_bits) - 1)

    def test_miss_keys_from_empty_key_column(self):
        misses = miss_keys(np.array([], dtype=np.uint64), 5, key_bits=10, seed=3)
        assert misses.shape == (5,)

    def test_miss_keys_are_absent(self):
        keys = dense_shuffled_keys(256)
        misses = miss_keys(keys, 64, key_bits=32)
        assert not np.isin(misses, keys).any()

    def test_outside_domain_misses_above_max_key(self):
        keys = dense_shuffled_keys(64)
        misses = miss_keys(keys, 16, outside_domain=True)
        assert misses.min() > keys.max()

    def test_zipf_lookups_prefer_few_keys(self):
        keys = dense_shuffled_keys(1024)
        skewed = zipf_point_lookups(keys, 2048, coefficient=1.8, seed=1)
        uniform = zipf_point_lookups(keys, 2048, coefficient=0.0, seed=1)
        assert np.unique(skewed).shape[0] < np.unique(uniform).shape[0]

    def test_range_lookups_span(self):
        keys = dense_shuffled_keys(512)
        lowers, uppers = range_lookups(keys, 32, span=16)
        assert np.all(uppers - lowers == 15)

    def test_range_lookups_invalid_span(self):
        with pytest.raises(ValueError):
            range_lookups(dense_shuffled_keys(16), 4, span=0)


class TestZipf:
    def test_probabilities_sum_to_one(self):
        probs = zipf_probabilities(100, 1.3)
        assert probs.sum() == pytest.approx(1.0)

    def test_probabilities_decreasing(self):
        probs = zipf_probabilities(50, 1.0)
        assert np.all(np.diff(probs) <= 0)

    def test_zero_coefficient_is_uniform(self):
        samples = zipf_sample(100, 10_000, 0.0, np.random.default_rng(0))
        counts = np.bincount(samples, minlength=100)
        assert counts.min() > 50

    def test_high_coefficient_concentrates_mass(self):
        samples = zipf_sample(1000, 10_000, 2.0, np.random.default_rng(0))
        top_share = (samples < 10).mean()
        assert top_share > 0.8

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            zipf_probabilities(0, 1.0)
        with pytest.raises(ValueError):
            zipf_probabilities(10, -1.0)


class TestUpdateWorkloads:
    def test_swap_positions_preserves_multiset(self):
        keys = dense_shuffled_keys(128)
        updated = swap_adjacent_positions(keys, 32)
        assert sorted(updated.tolist()) == sorted(keys.tolist())
        assert not np.array_equal(updated, keys)

    def test_swap_keys_preserves_multiset(self):
        keys = dense_shuffled_keys(128)
        updated = swap_adjacent_keys(keys, 32)
        assert sorted(updated.tolist()) == sorted(keys.tolist())
        assert not np.array_equal(updated, keys)

    def test_swap_keys_changes_values_by_one_on_dense_sets(self):
        keys = dense_shuffled_keys(256)
        updated = swap_adjacent_keys(keys, 64)
        delta = np.abs(updated.astype(np.int64) - keys.astype(np.int64))
        assert delta[delta > 0].max() == 1

    def test_too_many_swaps_rejected(self):
        with pytest.raises(ValueError):
            swap_adjacent_positions(dense_shuffled_keys(10), 6)
        with pytest.raises(ValueError):
            swap_adjacent_keys(dense_shuffled_keys(10), 6)


class TestSecondaryIndexWorkload:
    def test_reference_answers_consistent(self, small_workload):
        assert small_workload.reference_point_hits().shape[0] == small_workload.num_point_lookups
        assert small_workload.reference_point_aggregate() > 0
        assert small_workload.reference_range_aggregate() > 0

    def test_reference_rows_point_to_matching_keys(self, small_workload):
        rows = small_workload.reference_point_rows()
        hits = small_workload.reference_point_hits() > 0
        matched = rows[hits].astype(np.int64)
        assert np.array_equal(
            small_workload.keys[matched], small_workload.point_queries[hits]
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SecondaryIndexWorkload(keys=np.arange(4, dtype=np.uint64), values=np.arange(3, dtype=np.uint64))

    def test_from_keys_attaches_values(self):
        workload = SecondaryIndexWorkload.from_keys(dense_shuffled_keys(32), label="unit")
        assert workload.values.shape == workload.keys.shape
        assert workload.metadata["label"] == "unit"

    def test_empty_query_reference(self):
        workload = SecondaryIndexWorkload.from_keys(dense_shuffled_keys(8))
        assert workload.reference_point_aggregate() == 0
        assert workload.reference_range_aggregate() == 0
