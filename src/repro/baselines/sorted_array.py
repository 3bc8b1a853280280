"""SA — a sorted array probed with binary search.

The simplest order-preserving baseline of the paper: the key column is sorted
(with CUB's radix sort) alongside its rowIDs, lookups run a naive binary
search per query, and range lookups scan forward from the lower bound.  SA
has zero structural overhead but its binary search performs ``log2(n)``
*dependent* random memory accesses per lookup, which is exactly why the paper
finds it latency-bound and slowest under unsorted lookups.
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines.base import (
    BuildResult,
    GpuIndex,
    LookupRun,
    MemoryFootprint,
    MISS_SENTINEL,
    as_lookup_keys,
    as_range_bounds,
    expand_slices,
    keyset_page_slice,
)
from repro.gpusim.counters import WorkProfile
from repro.gpusim.sorting import DeviceRadixSort

#: Bytes fetched per binary-search step: one key access touches a cache line.
CACHE_LINE_BYTES = 32


class SortedArrayIndex(GpuIndex):
    """Sorted (key, rowID) array with per-query binary search."""

    name = "SA"
    supports_range_lookups = True
    supports_duplicates = True
    max_key_bits = 64

    def __init__(self, key_bytes: int = 4, value_bytes: int = 4):
        super().__init__()
        if key_bytes not in (4, 8):
            raise ValueError("key_bytes must be 4 or 8")
        self.key_bytes = key_bytes
        self.value_bytes = value_bytes
        self._sorted_keys: np.ndarray | None = None
        self._sorted_rows: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # build
    # ------------------------------------------------------------------ #

    def build(self, keys: np.ndarray, values: np.ndarray | None = None) -> BuildResult:
        key_bits = 32 if self.key_bytes == 4 else 64
        self._store_column(keys, values, key_bits=key_bits)
        sorter = DeviceRadixSort(key_bytes=self.key_bytes, value_bytes=self.value_bytes)
        row_ids = np.arange(self.num_keys, dtype=np.uint64)
        result = sorter.sort_pairs(self.keys, row_ids)
        self._sorted_keys = result.keys
        self._sorted_rows = result.values
        memory = self.memory_footprint()
        self._build_result = BuildResult(
            num_keys=self.num_keys,
            key_bits=key_bits,
            memory=memory,
            stats={"binary_search_depth": self._search_depth(self.num_keys)},
        )
        return self._build_result

    @staticmethod
    def _search_depth(n: int) -> float:
        return float(max(math.ceil(math.log2(max(n, 2))), 1))

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #

    def point_lookup(self, queries: np.ndarray) -> LookupRun:
        if self._sorted_keys is None:
            raise RuntimeError("build() must be called before lookups")
        queries = as_lookup_keys(queries, "queries")
        m = queries.shape[0]

        start = np.searchsorted(self._sorted_keys, queries, side="left")
        stop = np.searchsorted(self._sorted_keys, queries, side="right")
        counts = (stop - start).astype(np.int64)

        result_rows = np.full(m, MISS_SENTINEL, dtype=np.uint64)
        nonempty = counts > 0
        result_rows[nonempty] = self._sorted_rows[start[nonempty]]

        aggregate = self._aggregate(
            self._sorted_rows[expand_slices(start, counts)].astype(np.int64)
        )

        return LookupRun(
            kind="point",
            num_lookups=m,
            result_rows=result_rows,
            hits_per_lookup=counts,
            aggregate=aggregate,
            stats={
                "binary_search_depth": self._search_depth(self.num_keys),
                "entries_scanned": float(counts.mean()) if m else 0.0,
            },
        )

    def range_lookup(
        self,
        lowers: np.ndarray,
        uppers: np.ndarray,
        limit: int | None = None,
        order: str | None = None,
        cursor: str | None = None,
    ) -> LookupRun:
        """Forward scan from each lower bound, optionally capped at ``limit``.

        With a limit the scan stops after ``limit`` qualifying entries (the
        LIMIT-k pushdown every sorted run supports for free), so the scanned
        entry count — and therefore the costed bytes — reflects the cap.

        ``order="key"`` returns one ordered page ``(run, next_cursor)``
        exactly like :meth:`repro.core.rx_index.RXIndex.range_lookup`: the
        sorted run *is* the key order, so a page is one slice after the
        keyset resume point.
        """
        if self._sorted_keys is None:
            raise RuntimeError("build() must be called before lookups")
        if order is not None:
            if order != "key":
                raise ValueError(f"order must be None or 'key', got {order!r}")
            return self._ordered_range_page(lowers, uppers, limit, cursor)
        if cursor is not None:
            raise ValueError("cursor resume requires order='key'")
        lowers, uppers = as_range_bounds(lowers, uppers)
        m = lowers.shape[0]

        start = np.searchsorted(self._sorted_keys, lowers, side="left")
        stop = np.searchsorted(self._sorted_keys, uppers, side="right")
        counts = (stop - start).astype(np.int64)
        if limit is not None:
            if limit < 1:
                raise ValueError(f"limit must be at least 1, got {limit}")
            counts = np.minimum(counts, int(limit))

        result_rows = np.full(m, MISS_SENTINEL, dtype=np.uint64)
        nonempty = counts > 0
        result_rows[nonempty] = self._sorted_rows[start[nonempty]]

        aggregate = self._aggregate(
            self._sorted_rows[expand_slices(start, counts)].astype(np.int64)
        )

        stats = {
            "binary_search_depth": self._search_depth(self.num_keys),
            "entries_scanned": float(counts.mean()) if m else 0.0,
        }
        if limit is not None:
            stats["range_limit"] = int(limit)
        return LookupRun(
            kind="range",
            num_lookups=m,
            result_rows=result_rows,
            hits_per_lookup=counts,
            aggregate=aggregate,
            stats=stats,
        )

    def _ordered_range_page(self, lowers, uppers, limit, cursor):
        """One keyset page of the sorted run: ``(run, next_cursor)``."""
        from repro.core.cursor import encode_cursor, parse_cursor

        lowers, uppers = as_range_bounds(lowers, uppers)
        if lowers.shape[0] != 1:
            raise ValueError("order='key' pages one range at a time")
        if limit is None:
            raise ValueError("order='key' requires a page size (limit)")
        limit = int(limit)
        if limit < 1:
            raise ValueError(f"limit must be at least 1, got {limit}")
        cur = parse_cursor(cursor)
        lo, hi = keyset_page_slice(
            self._sorted_keys,
            self._sorted_rows,
            int(lowers[0]),
            int(uppers[0]),
            cur.key if cur is not None else None,
            cur.row_id if cur is not None else None,
        )
        take = min(limit, hi - lo)
        page = self._sorted_rows[lo : lo + take]
        result_rows = np.full(1, MISS_SENTINEL, dtype=np.uint64)
        if take:
            result_rows[0] = page[0]
        run = LookupRun(
            kind="range",
            num_lookups=1,
            result_rows=result_rows,
            hits_per_lookup=np.array([take], dtype=np.int64),
            aggregate=self._aggregate(page.astype(np.int64)),
            stats={
                "binary_search_depth": self._search_depth(self.num_keys),
                "entries_scanned": float(take),
                "range_limit": limit,
                "trace_mode": "ordered_k",
                "resumed": cur is not None,
            },
            row_ids=page.copy(),
        )
        next_cursor = (
            encode_cursor(int(self._sorted_keys[lo + take - 1]), int(page[-1]))
            if take == limit
            else None
        )
        return run, next_cursor

    # ------------------------------------------------------------------ #
    # costing
    # ------------------------------------------------------------------ #

    def memory_footprint(self, target_keys: int | None = None) -> MemoryFootprint:
        n = self.num_keys if target_keys is None else target_keys
        entry_bytes = self.key_bytes + self.value_bytes
        final = n * entry_bytes
        # The radix sort works out of place: a second buffer coexists with
        # the final one during construction.
        return MemoryFootprint(final_bytes=final, build_peak_bytes=final + final)

    def build_profiles(
        self, target_keys: int | None = None, presorted: bool = False
    ) -> list[WorkProfile]:
        n = self.num_keys if target_keys is None else target_keys
        profiles: list[WorkProfile] = []
        if not presorted:
            sorter = DeviceRadixSort(key_bytes=self.key_bytes, value_bytes=self.value_bytes)
            profiles.append(sorter.work_profile(n))
        profiles.append(
            WorkProfile(
                name="SA materialize",
                threads=n,
                instructions=n * 4.0,
                bytes_accessed=2.0 * n * (self.key_bytes + self.value_bytes),
                working_set_bytes=n * (self.key_bytes + self.value_bytes),
                kernel_launches=1,
                dram_bytes_min=n * (self.key_bytes + self.value_bytes),
            )
        )
        return profiles

    def lookup_profile(
        self,
        run: LookupRun,
        target_keys: int | None = None,
        target_lookups: int | None = None,
        locality: float = 0.0,
        value_bytes: int = 4,
    ) -> WorkProfile:
        m = run.num_lookups if target_lookups is None else target_lookups
        lookup_scale = self._scale_lookups(run.num_lookups, target_lookups)
        depth = run.stats.get("binary_search_depth", self._search_depth(self.num_keys))
        if target_keys is not None:
            depth += self._search_depth(target_keys) - self._search_depth(self.num_keys)
        entries = run.stats.get("entries_scanned", 1.0)
        hits = run.total_hits * lookup_scale

        n = self.num_keys if target_keys is None else target_keys
        structure_bytes = n * (self.key_bytes + self.value_bytes)
        n_values = n * value_bytes

        # Each binary-search step touches one cache line at a random position
        # and depends on the previous step: high latency sensitivity, few
        # instructions.
        instructions = m * (depth * 8.0 + 12.0) + hits * 6.0 + m * entries * 2.0
        bytes_accessed = (
            m * (depth * CACHE_LINE_BYTES + self.key_bytes)
            + (hits + m * max(entries - 1.0, 0.0)) * (self.key_bytes + value_bytes)
        )
        return WorkProfile(
            name="SA lookup",
            threads=int(m),
            instructions=instructions,
            bytes_accessed=bytes_accessed,
            working_set_bytes=structure_bytes + n_values,
            serial_depth=depth,
            kernel_launches=1,
            locality=locality,
            hot_fraction=0.60,
            dram_bytes_min=m * (self.key_bytes + 8),
            metadata={"binary_search_depth": depth},
        )
