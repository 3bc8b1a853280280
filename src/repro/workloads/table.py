"""The secondary-index usage scenario of Section 3.1 as a reusable object.

The paper's evaluation always follows the same pattern: a GPU-resident key
array (the indexed column), a value array of the same length (the projected
column), a batch of lookups, and a final aggregate (the sum of all retrieved
values).  :class:`SecondaryIndexWorkload` bundles those pieces and provides a
NumPy reference answer so every index implementation can be verified against
the same ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.base import MISS_SENTINEL, expand_slices


@dataclass
class SecondaryIndexWorkload:
    """Key column + value column + lookup batch + reference answers."""

    keys: np.ndarray
    values: np.ndarray
    point_queries: np.ndarray | None = None
    range_lowers: np.ndarray | None = None
    range_uppers: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.keys = np.asarray(self.keys, dtype=np.uint64)
        self.values = np.asarray(self.values, dtype=np.uint64)
        if self.keys.shape != self.values.shape:
            raise ValueError("keys and values must have the same shape")

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_keys(
        keys: np.ndarray,
        point_queries: np.ndarray | None = None,
        range_lowers: np.ndarray | None = None,
        range_uppers: np.ndarray | None = None,
        value_seed: int = 7,
        **metadata,
    ) -> "SecondaryIndexWorkload":
        """Attach a random value column to ``keys`` and wrap everything up."""
        rng = np.random.default_rng(value_seed)
        values = rng.integers(0, 1 << 20, size=np.asarray(keys).shape[0], dtype=np.uint64)
        return SecondaryIndexWorkload(
            keys=keys,
            values=values,
            point_queries=point_queries,
            range_lowers=range_lowers,
            range_uppers=range_uppers,
            metadata=dict(metadata),
        )

    @property
    def num_keys(self) -> int:
        return int(self.keys.shape[0])

    @property
    def num_point_lookups(self) -> int:
        return 0 if self.point_queries is None else int(self.point_queries.shape[0])

    # ------------------------------------------------------------------ #
    # reference answers (plain NumPy, independent of every index)
    # ------------------------------------------------------------------ #

    def reference_point_aggregate(self) -> int:
        """Sum of the values of every key matching any point query."""
        if self.point_queries is None:
            return 0
        order = np.argsort(self.keys, kind="stable")
        sorted_keys = self.keys[order]
        sorted_values = self.values[order]
        start = np.searchsorted(sorted_keys, self.point_queries, side="left")
        stop = np.searchsorted(sorted_keys, self.point_queries, side="right")
        flat = expand_slices(start, stop - start)
        if flat.size == 0:
            return 0
        return int(sorted_values[flat].sum(dtype=np.uint64))

    def reference_point_hits(self) -> np.ndarray:
        """Number of matching rows per point query."""
        if self.point_queries is None:
            return np.zeros(0, dtype=np.int64)
        sorted_keys = np.sort(self.keys)
        start = np.searchsorted(sorted_keys, self.point_queries, side="left")
        stop = np.searchsorted(sorted_keys, self.point_queries, side="right")
        return (stop - start).astype(np.int64)

    def reference_point_rows(self) -> np.ndarray:
        """One matching rowID per point query (or the miss sentinel)."""
        if self.point_queries is None:
            return np.zeros(0, dtype=np.uint64)
        result = np.full(self.point_queries.shape[0], MISS_SENTINEL, dtype=np.uint64)
        order = np.argsort(self.keys, kind="stable")
        sorted_keys = self.keys[order]
        pos = np.searchsorted(sorted_keys, self.point_queries, side="left")
        pos_clamped = np.minimum(pos, self.num_keys - 1)
        found = sorted_keys[pos_clamped] == self.point_queries
        result[found] = order[pos_clamped[found]].astype(np.uint64)
        return result

    def reference_range_aggregate(self) -> int:
        """Sum of the values of every key within any range query."""
        if self.range_lowers is None or self.range_uppers is None:
            return 0
        order = np.argsort(self.keys, kind="stable")
        sorted_keys = self.keys[order]
        sorted_values = self.values[order]
        start = np.searchsorted(sorted_keys, self.range_lowers, side="left")
        stop = np.searchsorted(sorted_keys, self.range_uppers, side="right")
        flat = expand_slices(start, stop - start)
        if flat.size == 0:
            return 0
        return int(sorted_values[flat].sum(dtype=np.uint64))

    def reference_range_hits(self) -> np.ndarray:
        """Number of qualifying rows per range query."""
        if self.range_lowers is None or self.range_uppers is None:
            return np.zeros(0, dtype=np.int64)
        sorted_keys = np.sort(self.keys)
        start = np.searchsorted(sorted_keys, self.range_lowers, side="left")
        stop = np.searchsorted(sorted_keys, self.range_uppers, side="right")
        return (stop - start).astype(np.int64)
