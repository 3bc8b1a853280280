"""Tests for the roofline cost model."""

import pytest

from repro.gpusim.costmodel import CostModel
from repro.gpusim.counters import WorkProfile
from repro.gpusim.device import RTX_2080TI, RTX_4090


def _profile(**overrides) -> WorkProfile:
    base = dict(
        name="test",
        threads=2**22,
        instructions=1e9,
        bytes_accessed=10e9,
        working_set_bytes=2e9,
        serial_depth=4.0,
        rt_tests=0.0,
        kernel_launches=1,
    )
    base.update(overrides)
    return WorkProfile(**base)


class TestKernelCost:
    def setup_method(self):
        self.model = CostModel(RTX_4090)

    def test_time_positive(self):
        assert self.model.time_ms(_profile()) > 0

    def test_bottleneck_identified(self):
        memory_bound = self.model.kernel_cost(_profile(bytes_accessed=100e9, instructions=1e6))
        compute_bound = self.model.kernel_cost(
            _profile(bytes_accessed=1e6, working_set_bytes=1e6, instructions=1e12, serial_depth=0)
        )
        assert memory_bound.bottleneck == "memory"
        assert compute_bound.bottleneck == "compute"

    def test_rt_bound_profile(self):
        cost = self.model.kernel_cost(
            _profile(bytes_accessed=1e6, working_set_bytes=1e6, instructions=1e6, rt_tests=1e11, serial_depth=0)
        )
        assert cost.bottleneck == "rt"

    def test_latency_bound_profile(self):
        cost = self.model.kernel_cost(
            _profile(bytes_accessed=1e6, working_set_bytes=1e6, instructions=1e6, serial_depth=30)
        )
        assert cost.bottleneck == "latency"

    def test_more_bytes_cost_more(self):
        cheap = self.model.time_ms(_profile(bytes_accessed=5e9, working_set_bytes=5e9))
        costly = self.model.time_ms(_profile(bytes_accessed=50e9, working_set_bytes=50e9))
        assert costly > cheap

    def test_locality_reduces_memory_time(self):
        cold = self.model.time_ms(_profile(working_set_bytes=10e9, locality=0.0))
        hot = self.model.time_ms(_profile(working_set_bytes=10e9, locality=0.95))
        assert hot < cold

    def test_launch_overhead_added(self):
        one = self.model.kernel_cost(_profile(kernel_launches=1))
        many = self.model.kernel_cost(_profile(kernel_launches=10_000))
        assert many.launch_overhead_ms > one.launch_overhead_ms
        assert many.time_ms > one.time_ms

    def test_small_batches_run_less_efficiently(self):
        # Same total work split over few threads is slower per byte.
        big = self.model.time_ms(_profile(threads=2**27))
        small = self.model.time_ms(_profile(threads=2**10))
        assert small > big * 0.9

    def test_older_gpu_is_slower(self):
        new = CostModel(RTX_4090).time_ms(_profile())
        old = CostModel(RTX_2080TI).time_ms(_profile())
        assert old > new

    def test_total_time_sums_phases(self):
        profiles = [_profile(), _profile()]
        assert self.model.total_time_ms(profiles) == pytest.approx(
            2 * self.model.time_ms(_profile()), rel=1e-6
        )

    def test_cost_as_dict(self):
        cost = self.model.kernel_cost(_profile())
        as_dict = cost.as_dict()
        assert set(as_dict) >= {"time_ms", "bottleneck", "dram_bytes", "l2_hit_rate"}


class TestWorkProfileHelpers:
    def test_scaled_multiplies_extensive_quantities(self):
        profile = _profile()
        half = profile.scaled(0.5)
        assert half.threads == profile.threads // 2
        assert half.instructions == pytest.approx(profile.instructions / 2)
        assert half.working_set_bytes == profile.working_set_bytes  # intensive
