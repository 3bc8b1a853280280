"""Roofline-style cost model: work profiles -> simulated milliseconds.

For every kernel-like phase the model evaluates four potential bottlenecks
and charges the slowest one, mirroring how the paper reasons about its
profiling results:

* **compute** — scalar instructions over the SMs' instruction throughput
  (scaled by occupancy),
* **memory** — DRAM traffic (after the L2 filtered it) over the achievable
  bandwidth for the batch size,
* **RT cores** — ray/box and ray/primitive tests over the RT-core throughput
  of the device generation,
* **latency** — dependent-load chains that neither bandwidth nor compute can
  hide (binary search is the canonical victim).

Launch overheads are added per kernel launch, which is what makes very small
batches unattractive (Figure 13).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpusim.cache import CacheModel
from repro.gpusim.counters import WorkProfile
from repro.gpusim.device import RTX_4090, DeviceSpec
from repro.gpusim.kernel import OccupancyModel


@dataclass
class KernelCost:
    """Breakdown of the simulated cost of one phase."""

    profile_name: str
    time_ms: float
    compute_ms: float
    memory_ms: float
    rt_ms: float
    latency_ms: float
    launch_overhead_ms: float
    dram_bytes: float
    l2_hit_rate: float
    active_warps_per_sm: float
    bandwidth_utilization: float
    bottleneck: str

@dataclass
class CostModel:
    """Converts :class:`WorkProfile` objects into simulated times."""

    device: DeviceSpec = field(default_factory=lambda: RTX_4090)

    def __post_init__(self) -> None:
        self.cache = CacheModel(self.device)
        self.occupancy = OccupancyModel(self.device)

    def kernel_cost(self, profile: WorkProfile) -> KernelCost:
        """Simulate one phase and return its cost breakdown."""
        device = self.device
        threads = max(int(profile.threads), 0)

        occ = self.occupancy.occupancy(threads)
        active_warps = self.occupancy.active_warps_per_sm(threads)
        bw_fraction = self.occupancy.bandwidth_fraction(threads)

        l2_hit = self.cache.hit_rate(profile.working_set_bytes, profile.locality)
        dram_bytes = self.cache.dram_bytes(
            profile.bytes_accessed,
            profile.working_set_bytes,
            profile.locality,
            profile.dram_bytes_min,
            profile.hot_fraction,
        )

        effective_bw = device.dram_bandwidth_bytes_per_s * bw_fraction
        memory_ms = dram_bytes / effective_bw * 1e3 if dram_bytes > 0 else 0.0

        # Low occupancy also throttles the achievable instruction rate.
        compute_rate = device.instructions_per_second * max(occ, 0.05)
        compute_ms = (
            profile.instructions / compute_rate * 1e3 if profile.instructions > 0 else 0.0
        )

        rt_rate = device.rt_tests_per_second * max(occ, 0.05)
        rt_ms = profile.rt_tests / rt_rate * 1e3 if profile.rt_tests > 0 else 0.0

        latency_ms = self.occupancy.latency_bound_ms(threads, profile.serial_depth)
        # Sorted or skewed lookups keep dependent loads in cache, which hides
        # most of their latency (Section 4.4).
        latency_ms *= 1.0 - 0.85 * min(max(profile.locality, 0.0), 1.0)

        launch_ms = self.occupancy.launch_overhead_ms(profile.kernel_launches)

        parts = {
            "compute": compute_ms,
            "memory": memory_ms,
            "rt": rt_ms,
            "latency": latency_ms,
        }
        bottleneck = max(parts, key=parts.get)
        time_ms = max(parts.values()) + launch_ms

        return KernelCost(
            profile_name=profile.name,
            time_ms=time_ms,
            compute_ms=compute_ms,
            memory_ms=memory_ms,
            rt_ms=rt_ms,
            latency_ms=latency_ms,
            launch_overhead_ms=launch_ms,
            dram_bytes=dram_bytes,
            l2_hit_rate=l2_hit,
            active_warps_per_sm=active_warps,
            bandwidth_utilization=bw_fraction if memory_ms >= max(parts.values()) else
            bw_fraction * (memory_ms / max(max(parts.values()), 1e-12)),
            bottleneck=bottleneck,
        )
