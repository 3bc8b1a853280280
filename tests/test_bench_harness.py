"""Tests for the benchmark harness and the text reporting."""

import numpy as np
import pytest

from repro.baselines import SortedArrayIndex, WarpCoreHashTable
from repro.bench import (
    SCALES,
    ExperimentResult,
    ExperimentSeries,
    Scale,
    format_table,
    series_to_rows,
    simulate_build,
    simulate_lookups,
    zipf_locality,
)
from repro.bench.harness import resolve_scale, throughput_lookups_per_second
from repro.core import RXIndex
from repro.gpusim.device import RTX_2080TI, RTX_4090
from repro.workloads import dense_shuffled_keys, point_lookups
from repro.workloads.table import SecondaryIndexWorkload


@pytest.fixture
def tiny_setup():
    scale = SCALES["tiny"]
    keys = dense_shuffled_keys(scale.sim_keys, seed=21)
    queries = point_lookups(keys, scale.sim_lookups, seed=22)
    workload = SecondaryIndexWorkload.from_keys(keys, point_queries=queries)
    index = RXIndex()
    index.build(workload.keys, workload.values)
    return scale, workload, index


class TestScale:
    def test_presets_exist(self):
        assert {"tiny", "small", "medium"} <= set(SCALES)

    def test_resolve_by_name_and_object(self):
        assert resolve_scale("tiny") is SCALES["tiny"]
        custom = Scale("custom", 128, 64)
        assert resolve_scale(custom) is custom

    def test_unknown_scale_rejected(self):
        with pytest.raises(KeyError):
            resolve_scale("huge")

    def test_with_targets_overrides(self):
        scale = SCALES["tiny"].with_targets(target_keys=1000)
        assert scale.target_keys == 1000
        assert scale.target_lookups == SCALES["tiny"].target_lookups


class TestSimulateLookups:
    def test_returns_cost_and_verified_run(self, tiny_setup):
        scale, workload, index = tiny_setup
        cost = simulate_lookups(index, workload, scale)
        assert cost.time_ms > 0
        assert cost.run.aggregate == workload.reference_point_aggregate()

    def test_verification_catches_wrong_results(self, tiny_setup):
        scale, workload, index = tiny_setup
        broken = SecondaryIndexWorkload(
            keys=workload.keys,
            values=workload.values + np.uint64(1),
            point_queries=workload.point_queries,
        )
        with pytest.raises(AssertionError):
            simulate_lookups(index, broken, scale)

    def test_sorted_lookups_add_sort_cost_and_speed_up(self, tiny_setup):
        scale, workload, index = tiny_setup
        unsorted = simulate_lookups(index, workload, scale)
        sorted_cost = simulate_lookups(index, workload, scale, sorted_lookups=True)
        assert sorted_cost.sort_time_ms > 0
        assert sorted_cost.lookup_time_ms < unsorted.lookup_time_ms

    def test_many_batches_cost_more(self, tiny_setup):
        scale, workload, index = tiny_setup
        single = simulate_lookups(index, workload, scale, num_batches=1)
        many = simulate_lookups(index, workload, scale, num_batches=2**16)
        assert many.time_ms > single.time_ms

    def test_older_device_is_slower(self, tiny_setup):
        scale, workload, index = tiny_setup
        new = simulate_lookups(index, workload, scale, device=RTX_4090)
        old = simulate_lookups(index, workload, scale, device=RTX_2080TI)
        assert old.time_ms > new.time_ms

    def test_range_kind(self):
        scale = SCALES["tiny"]
        keys = dense_shuffled_keys(scale.sim_keys, seed=23)
        from repro.workloads import range_lookups

        lowers, uppers = range_lookups(keys, 32, span=4, seed=24)
        workload = SecondaryIndexWorkload.from_keys(keys, range_lowers=lowers, range_uppers=uppers)
        index = SortedArrayIndex()
        index.build(workload.keys, workload.values)
        cost = simulate_lookups(index, workload, scale, kind="range")
        assert cost.time_ms > 0

    def test_unknown_kind_rejected(self, tiny_setup):
        scale, workload, index = tiny_setup
        with pytest.raises(ValueError):
            simulate_lookups(index, workload, scale, kind="join")


class TestSimulateBuild:
    def test_build_time_positive(self, tiny_setup):
        scale, _, index = tiny_setup
        total, costs = simulate_build(index, scale)
        assert total > 0 and costs

    def test_presorted_build_cheaper_for_sort_based_index(self):
        scale = SCALES["tiny"]
        keys = dense_shuffled_keys(scale.sim_keys, seed=25)
        index = SortedArrayIndex()
        index.build(keys)
        unsorted_ms, _ = simulate_build(index, scale, presorted=False)
        sorted_ms, _ = simulate_build(index, scale, presorted=True)
        assert sorted_ms < unsorted_ms

    def test_total_time_sums_phases(self):
        # A sorted-array build runs a sort and a materialise kernel back to back.
        scale = SCALES["tiny"]
        index = SortedArrayIndex()
        index.build(dense_shuffled_keys(scale.sim_keys, seed=27))
        total, costs = simulate_build(index, scale)
        assert len(costs) == 2
        assert total == pytest.approx(sum(cost.time_ms for cost in costs), rel=1e-12)

    def test_hash_table_build(self):
        scale = SCALES["tiny"]
        keys = dense_shuffled_keys(scale.sim_keys, seed=26)
        index = WarpCoreHashTable()
        index.build(keys)
        total, _ = simulate_build(index, scale)
        assert total > 0


class TestHelpers:
    def test_throughput_conversion(self):
        assert throughput_lookups_per_second(100.0, 1_000_000) == pytest.approx(1e7)
        assert throughput_lookups_per_second(0.0, 10) == 0.0

    def test_zipf_locality_monotone(self):
        values = [zipf_locality(z) for z in (0.0, 0.5, 1.0, 1.5, 2.0)]
        assert values[0] == 0.0
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] <= 0.99


class TestReporting:
    def test_series_to_rows_handles_missing_points(self):
        series = [
            ExperimentSeries(label="a", x=[1, 2], y=[10.0, 20.0]),
            ExperimentSeries(label="b", x=[2], y=[5.0]),
        ]
        header, rows = series_to_rows("x", series)
        assert header[0] == "x"
        assert rows[0][2] == "N/A"

    def test_format_table_aligns_columns(self):
        table = format_table(["x", "y"], [["1", "2"], ["10", "20"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_experiment_result_to_text(self):
        result = ExperimentResult(
            experiment_id="figX",
            title="demo",
            x_label="n",
            series=[ExperimentSeries(label="a", x=[1], y=[2.0])],
            notes="note",
        )
        text = result.to_text()
        assert "figX" in text and "note" in text

    def test_series_by_label(self):
        result = ExperimentResult(
            experiment_id="figX",
            title="demo",
            x_label="n",
            series=[ExperimentSeries(label="a", x=[1], y=[2.0])],
        )
        assert result.series_by_label("a").y == [2.0]
        with pytest.raises(KeyError):
            result.series_by_label("missing")
