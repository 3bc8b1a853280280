"""The acceleration structure's modelled device memory.

The paper reports an index's device memory as its *final* footprint plus
the *additional overhead during construction* (Table 6, Figure 7c).
:func:`accel_memory_estimate` models both for RX's accel; only sizes
matter, never addresses.
"""

from __future__ import annotations


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
