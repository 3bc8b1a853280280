"""The primitive buffer an accel build consumes for key anchor points.

``optixAccelBuild`` consumes a *build input* describing the primitives (a
vertex buffer for triangles, centre/radius buffers for spheres, or an AABB
buffer for custom primitives).  Here that input is the primitive buffer
itself: :func:`build_input_for_points` turns key anchor points into one, and
:func:`repro.rtx.pipeline.accel_build` takes it.  Key triangles are passed as
their anchor points, from which the vertex buffer follows.
"""

from __future__ import annotations

import numpy as np

from repro.rtx.geometry import (
    AabbBuffer,
    AnchoredTriangleBuffer,
    PrimitiveBuffer,
    SphereBuffer,
    make_aabbs_from_points,
    make_sphere_centers,
)


def build_input_for_points(
    primitive: str,
    points: np.ndarray,
    half_extent: float = 0.5,
    x_half_extent: np.ndarray | None = None,
    sphere_radius: float = 0.25,
) -> PrimitiveBuffer:
    """The primitive buffer holding one primitive per key anchor in ``points``.

    ``primitive`` is one of ``"triangle"``, ``"sphere"``, ``"aabb"``.
    ``x_half_extent`` is Extended Mode's per-key one-ULP x extent.  Each
    primitive's position is its rowID.  Triangles come back as an
    :class:`~repro.rtx.geometry.AnchoredTriangleBuffer`: priced as the
    paper's nine-float32 vertex buffer, which OptiX only needs during
    ``optixAccelBuild``, but held as the anchors themselves.
    """
    if primitive == "triangle":
        return AnchoredTriangleBuffer(points, half_extent, x_half_extent)
    if primitive == "sphere":
        return SphereBuffer(make_sphere_centers(points), radius=sphere_radius)
    if primitive == "aabb":
        # The inclusive slab test reports a box to every ray that starts or
        # ends on its boundary, so a box must lie strictly inside its key's
        # gaps.  Extended Mode's gaps are one ULP from the key, where no
        # positive float32 extent fits: its boxes are flat in x, [c, c].
        x_box = None if x_half_extent is None else 0.0
        mins, maxs = make_aabbs_from_points(points, half_extent / 2.0, x_box)
        return AabbBuffer(mins, maxs)
    raise ValueError(f"unknown primitive type: {primitive!r}")
