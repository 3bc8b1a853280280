"""OptiX-style acceleration-structure build inputs.

``optixAccelBuild`` consumes a *build input* describing the primitives (a
vertex buffer for triangles, centre/radius buffers for spheres, or an AABB
buffer for custom primitives) plus build flags.  This module provides the
same shape of API so that :mod:`repro.core.rx_index` reads like the OptiX
code in the paper; key triangles are passed as their anchor points, from
which the vertex buffer follows.
"""

from __future__ import annotations

import enum
from dataclasses import InitVar, dataclass

import numpy as np

from repro.rtx.geometry import (
    AabbBuffer,
    AnchoredTriangleBuffer,
    PrimitiveBuffer,
    SphereBuffer,
    make_aabbs_from_points,
    make_sphere_centers,
)


class BuildFlags(enum.Flag):
    """Subset of ``OptixBuildFlags`` relevant to the paper.

    * ``ALLOW_COMPACTION`` — the accel may later be compacted
      (``optixAccelCompact``), roughly halving its memory footprint.
    * ``ALLOW_UPDATE`` — the accel may later be refitted in place
      (``optixAccelBuild`` with ``OPTIX_BUILD_OPERATION_UPDATE``); setting it
      disables the effect of compaction, as documented by NVIDIA and noted in
      Section 3.6 of the paper.
    """

    NONE = 0
    ALLOW_COMPACTION = enum.auto()
    ALLOW_UPDATE = enum.auto()


@dataclass
class BuildInput:
    """Base class: a primitive buffer plus accounting helpers."""

    def primitive_buffer(self) -> PrimitiveBuffer:
        raise NotImplementedError

    @property
    def num_primitives(self) -> int:
        return len(self.primitive_buffer())

    @property
    def primitive_bytes(self) -> int:
        return self.primitive_buffer().primitive_bytes()


@dataclass
class AnchoredTriangleBuildInput(BuildInput):
    """Triangle build input: one key triangle per anchor point.

    The triangles are those :func:`repro.rtx.geometry.make_triangle_vertices`
    emits for ``points``, held as the anchors themselves
    (:class:`repro.rtx.geometry.AnchoredTriangleBuffer`).  The position of
    each triangle is its primitive index, which the paper equates with the
    rowID of the indexed table entry.  It is still priced as the paper's
    nine-float32 vertex buffer, which OptiX only needs during
    ``optixAccelBuild``; this input never materialises one.
    """

    # Init-only: the buffer holds (3, n) columns, a codec's adopted or any
    # other layout copied, so no (n, 3) array outlives the build.
    points: InitVar[np.ndarray]
    half_extent: InitVar[float] = 0.5
    x_half_extent: InitVar[np.ndarray | None] = None

    def __post_init__(self, points, half_extent, x_half_extent) -> None:
        self._buffer = AnchoredTriangleBuffer(points, half_extent, x_half_extent)

    def primitive_buffer(self) -> AnchoredTriangleBuffer:
        return self._buffer


@dataclass
class SphereBuildInput(BuildInput):
    """Sphere build input: ``(n, 3)`` centres plus one shared radius."""

    centers: np.ndarray
    radius: float = 0.25

    def __post_init__(self) -> None:
        self._buffer = SphereBuffer(self.centers, self.radius)

    def primitive_buffer(self) -> SphereBuffer:
        return self._buffer


@dataclass
class AabbBuildInput(BuildInput):
    """Custom-primitive build input: per-primitive axis-aligned boxes."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self) -> None:
        self._buffer = AabbBuffer(self.mins, self.maxs)

    def primitive_buffer(self) -> AabbBuffer:
        return self._buffer


def build_input_for_points(
    primitive: str,
    points: np.ndarray,
    half_extent: float = 0.5,
    x_half_extent: np.ndarray | None = None,
    sphere_radius: float = 0.25,
) -> BuildInput:
    """Create the appropriate build input for key anchor ``points``.

    ``primitive`` is one of ``"triangle"``, ``"sphere"``, ``"aabb"``.
    ``x_half_extent`` is Extended Mode's per-key one-ULP x extent.
    """
    if primitive == "triangle":
        return AnchoredTriangleBuildInput(points, half_extent, x_half_extent)
    if primitive == "sphere":
        return SphereBuildInput(make_sphere_centers(points), radius=sphere_radius)
    if primitive == "aabb":
        # The inclusive slab test reports a box to every ray that starts or
        # ends on its boundary, so a box must lie strictly inside its key's
        # gaps.  Extended Mode's gaps are one ULP from the key, where no
        # positive float32 extent fits: its boxes are flat in x, [c, c].
        x_box = None if x_half_extent is None else 0.0
        mins, maxs = make_aabbs_from_points(points, half_extent / 2.0, x_box)
        return AabbBuildInput(mins, maxs)
    raise ValueError(f"unknown primitive type: {primitive!r}")
