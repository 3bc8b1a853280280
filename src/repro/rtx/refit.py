"""Acceleration-structure refitting (``optixAccelBuild`` update analogue).

OptiX can *update* an existing BVH in place when the primitives move: the
tree topology is kept and only the bounding volumes are adjusted bottom-up.
This is much cheaper than a rebuild but — as Section 3.6 of the paper
measures — can degrade lookup performance dramatically when primitives move
far from their original position, because the adjusted bounding volumes grow
and overlap.  Our refit reproduces that organically: the new bounds are
computed from the new primitive positions under the *old* tree topology, so a
"swap adjacent buffer positions" workload inflates the boxes exactly as on
real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rtx.bvh import Bvh, box_columns, fit_bounds_bottom_up
from repro.rtx.geometry import PrimitiveBuffer
from repro.rtx.morton import require_finite


@dataclass
class RefitResult:
    """Outcome of a refit pass."""

    bvh: Bvh
    nodes_updated: int
    bytes_read: int
    bytes_written: int
    surface_area_before: float
    surface_area_after: float

    @property
    def surface_area_growth(self) -> float:
        """Total node surface area after / before — a BVH quality indicator."""
        if self.surface_area_before <= 0:
            return 1.0
        return self.surface_area_after / self.surface_area_before


def refit_accel(bvh: Bvh, primitives: PrimitiveBuffer) -> RefitResult:
    """Refit ``bvh`` in place to the (moved) primitives.

    The primitive count must be unchanged — OptiX updates can neither add nor
    remove primitives — and the accel must have been built with the update
    flag.
    """
    if not bvh.options.allow_update:
        raise ValueError(
            "the accel was not built with ALLOW_UPDATE; rebuild instead of refitting"
        )
    if len(primitives) != bvh.num_primitives:
        raise ValueError(
            "updates cannot add or remove primitives: "
            f"expected {bvh.num_primitives}, got {len(primitives)}"
        )

    area_before = float(bvh.surface_areas().sum())
    prim_mins, prim_maxs = box_columns(primitives)
    # Level-synchronous bottom-up pass over float32 per-axis columns: the
    # same arithmetic as a per-node reverse sweep, without the per-node
    # interpreter loop.  The level grouping is cached on the Bvh since
    # refits never change the topology.  The root box is finite exactly
    # when every primitive is; a failed refit leaves the tree untouched.
    node_mins, node_maxs = fit_bounds_bottom_up(
        bvh.left, bvh.first_prim, bvh.prim_count,
        bvh.prim_indices, prim_mins, prim_maxs, bvh.level_ranges(),
    )
    require_finite(np.concatenate([node_mins[0], node_maxs[0]]), prim_mins, prim_maxs)

    bvh.node_mins = node_mins
    bvh.node_maxs = node_maxs
    bvh.refit_generation += 1

    area_after = float(bvh.surface_areas().sum())
    node_bytes = bvh.node_bytes()
    return RefitResult(
        bvh=bvh,
        nodes_updated=bvh.node_count,
        bytes_read=bvh.num_primitives * max(
            primitives.primitive_bytes() // max(len(primitives), 1), 1
        ) + bvh.node_count * node_bytes,
        bytes_written=bvh.node_count * node_bytes,
        surface_area_before=area_before,
        surface_area_after=area_after,
    )
