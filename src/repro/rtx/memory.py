"""Device memory accounting.

Tracks allocations the way the paper reports them (Table 6): the *final*
footprint of an index and the *additional overhead during construction*
(temporary buffers, uncompacted acceleration structures, out-of-place sort
buffers).  The tracker is deliberately simple — a named bump allocator with
peak tracking — because only sizes matter, never addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Allocation:
    """A single named device allocation."""

    name: str
    size_bytes: int
    temporary: bool = False


@dataclass
class DeviceMemoryTracker:
    """Tracks live allocations, current usage, and the high-water mark."""

    allocations: dict[int, Allocation] = field(default_factory=dict)
    current_bytes: int = 0
    peak_bytes: int = 0
    _next_handle: int = 0

    def alloc(self, name: str, size_bytes: int, temporary: bool = False) -> int:
        """Allocate ``size_bytes`` and return an opaque handle."""
        if size_bytes < 0:
            raise ValueError("allocation size must be non-negative")
        handle = self._next_handle
        self._next_handle += 1
        self.allocations[handle] = Allocation(name, int(size_bytes), temporary)
        self.current_bytes += int(size_bytes)
        self.peak_bytes = max(self.peak_bytes, self.current_bytes)
        return handle

    def free(self, handle: int) -> None:
        """Release a previous allocation."""
        alloc = self.allocations.pop(handle, None)
        if alloc is None:
            raise KeyError(f"unknown allocation handle {handle}")
        self.current_bytes -= alloc.size_bytes

    @property
    def overhead_bytes(self) -> int:
        """Peak usage beyond what is currently resident (build overhead)."""
        return max(self.peak_bytes - self.current_bytes, 0)

    def reset_peak(self) -> None:
        self.peak_bytes = self.current_bytes

    def snapshot(self) -> dict[str, int]:
        """Current usage grouped by allocation name."""
        usage: dict[str, int] = {}
        for alloc in self.allocations.values():
            usage[alloc.name] = usage.get(alloc.name, 0) + alloc.size_bytes
        return usage


#: Modelled per-primitive byte costs of the acceleration structure, before and
#: after compaction, for each primitive type.  The constants are calibrated so
#: the *relationships* of Figure 7c and Table 6 hold: triangles have the
#: largest uncompacted footprint, compaction saves roughly half for triangles
#: and AABBs, and sphere BVHs end up the largest after compaction.
ACCEL_BYTES_PER_PRIMITIVE = {
    "triangle": {"uncompacted": 82.0, "compacted": 41.0},
    "sphere": {"uncompacted": 64.0, "compacted": 48.0},
    "aabb": {"uncompacted": 68.0, "compacted": 34.0},
}

#: Temporary build memory, as a fraction of the uncompacted accel size
#: (scratch space used by the builder, mirroring Table 6's build overhead).
ACCEL_BUILD_TEMP_FRACTION = 0.3


def accel_memory_estimate(primitive_kind: str, num_primitives: int) -> dict[str, int]:
    """Return modelled accel sizes in bytes for ``num_primitives`` primitives.

    Keys of the returned dict: ``uncompacted``, ``compacted``, ``build_temp``,
    ``peak_during_build``.
    """
    if primitive_kind not in ACCEL_BYTES_PER_PRIMITIVE:
        raise ValueError(f"unknown primitive kind {primitive_kind!r}")
    model = ACCEL_BYTES_PER_PRIMITIVE[primitive_kind]
    uncompacted = int(model["uncompacted"] * num_primitives)
    compacted = int(model["compacted"] * num_primitives)
    build_temp = int(ACCEL_BUILD_TEMP_FRACTION * uncompacted)
    return {
        "uncompacted": uncompacted,
        "compacted": compacted,
        "build_temp": build_temp,
        "peak_during_build": uncompacted + build_temp,
    }
