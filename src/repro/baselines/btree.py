"""B+ — a bulk-loaded GPU B+-Tree (Awad et al. style).

The baseline in the paper traverses the tree in groups of 16 threads so that
the search within one node happens cooperatively with warp intrinsics; the
build phase sorts the keys with CUB's ``DeviceRadixSort`` and then bulk-loads
the tree.  Keys are restricted to 32 bits and duplicates are not supported,
both of which the paper calls out explicitly (Sections 4.1, 4.3, 4.7).

The implementation here stores the tree as one array per level (an implicit
B+-Tree): the leaf level holds the sorted keys with their rowIDs, inner
levels hold the separator keys of their children.  Lookups descend one level
at a time; range lookups locate the leaf of the lower bound and then scan
sideways, exactly like the linked-leaf traversal of the original.
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
    as_uint64_keys,
    expand_slices,
    keyset_page_slice,
)
from repro.gpusim.counters import WorkProfile
from repro.gpusim.sorting import DeviceRadixSort

#: Keys per node; the paper's baseline cooperates in groups of 16 threads.
DEFAULT_NODE_WIDTH = 16
#: Bulk loads leave nodes partially filled so later inserts have room; the
#: original implementation targets roughly half-full nodes.
DEFAULT_FILL_FACTOR = 0.5


class GpuBPlusTree(GpuIndex):
    """Array-based bulk-loaded B+-Tree with linked leaves."""

    name = "B+"
    supports_range_lookups = True
    supports_duplicates = False
    max_key_bits = 32

    def __init__(
        self,
        node_width: int = DEFAULT_NODE_WIDTH,
        fill_factor: float = DEFAULT_FILL_FACTOR,
        key_bytes: int = 4,
        value_bytes: int = 4,
    ):
        super().__init__()
        if node_width < 2:
            raise ValueError("node_width must be at least 2")
        if not 0.1 < fill_factor <= 1.0:
            raise ValueError("fill_factor must be in (0.1, 1.0]")
        if key_bytes != 4:
            raise ValueError("the GPU B+-Tree baseline only supports 32-bit keys")
        self.node_width = node_width
        self.fill_factor = fill_factor
        self.key_bytes = key_bytes
        self.value_bytes = value_bytes
        self._sorted_keys: np.ndarray | None = None
        self._sorted_rows: np.ndarray | None = None
        self._levels: list[np.ndarray] = []

    # ------------------------------------------------------------------ #
    # build
    # ------------------------------------------------------------------ #

    def build(self, keys: np.ndarray, values: np.ndarray | None = None) -> BuildResult:
        keys = as_uint64_keys(keys, "keys")
        # Sort + adjacent compare: NumPy >= 2.3 runs ``np.unique`` through a
        # hash table, ~50x slower than sorting on 2^20 shuffled keys.
        ordered = np.sort(keys, axis=None)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("the GPU B+-Tree baseline does not support duplicate keys")
        self._store_column(keys, values, key_bits=self.max_key_bits)

        sorter = DeviceRadixSort(key_bytes=self.key_bytes, value_bytes=self.value_bytes)
        row_ids = np.arange(self.num_keys, dtype=np.uint64)
        sorted_result = sorter.sort_pairs(self.keys, row_ids)
        self._sorted_keys = sorted_result.keys
        self._sorted_rows = sorted_result.values
        self._sort_profile = sorted_result.profile

        # Build separator levels bottom-up: level 0 is the leaf level (keys),
        # level i+1 stores the first key of every node of level i.
        self._levels = []
        current = self._sorted_keys
        while current.shape[0] > self.node_width:
            firsts = current[:: self.node_width]
            self._levels.append(firsts)
            current = firsts
        self._levels.reverse()  # root first

        memory = self.memory_footprint()
        self._build_result = BuildResult(
            num_keys=self.num_keys,
            key_bits=self.max_key_bits,
            memory=memory,
            stats={
                "height": self.height,
                "node_width": self.node_width,
                "leaf_nodes": math.ceil(self.num_keys / self.node_width),
            },
        )
        return self._build_result

    @property
    def height(self) -> int:
        """Number of levels including the leaf level."""
        return len(self._levels) + 1

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #

    def _descend(self, queries: np.ndarray) -> np.ndarray:
        """Return, per query, the index of the first leaf slot >= query.

        A genuine level-by-level descent, vectorised across the whole query
        batch: at every level each query gathers its candidate node's
        ``node_width`` separators in one batched window gather (the same
        technique as the hash-table probe) and counts how many are <= the
        query.  The functional result is pinned to a plain ``searchsorted``
        on the leaf level by a regression test; one node visit per level is
        what the cost model charges.  This does ``height`` batched passes
        where a leaf-level ``searchsorted`` would do one — acceptable at the
        functional simulation scale, and it makes the charged node visits
        correspond to work the model actually performs.
        """
        queries = np.asarray(queries, dtype=np.uint64)
        w = self.node_width
        lane = np.arange(w, dtype=np.int64)[None, :]
        # node index within the current level; the root level is one node.
        node = np.zeros(queries.shape[0], dtype=np.int64)
        for level in self._levels:
            window_idx = node[:, None] * w + lane
            # The (possibly partial) last node's window runs past the level
            # array; padded slots are masked out of the separator count
            # explicitly (a pad *value* alone would miscount for a query
            # equal to the maximum uint64).
            valid = window_idx < level.shape[0]
            window = np.where(
                valid, level[np.minimum(window_idx, level.shape[0] - 1)], MISS_SENTINEL
            )
            # Child = last separator <= query (clamped to the first child so
            # queries below the whole tree descend leftmost).
            child = ((window <= queries[:, None]) & valid).sum(axis=1) - 1
            node = node * w + np.maximum(child, 0)
        # Final level: position within the leaf node's window of keys.
        window_idx = node[:, None] * w + lane
        valid = window_idx < self._sorted_keys.shape[0]
        window = np.where(
            valid,
            self._sorted_keys[np.minimum(window_idx, self._sorted_keys.shape[0] - 1)],
            MISS_SENTINEL,
        )
        within = ((window < queries[:, None]) & valid).sum(axis=1)
        return node * w + within

    def point_lookup(self, queries: np.ndarray) -> LookupRun:
        if self._sorted_keys is None:
            raise RuntimeError("build() must be called before lookups")
        queries = as_lookup_keys(queries, "queries")
        m = queries.shape[0]

        pos = self._descend(queries)
        pos_clamped = np.minimum(pos, self.num_keys - 1)
        found = self._sorted_keys[pos_clamped] == queries
        result_rows = np.full(m, MISS_SENTINEL, dtype=np.uint64)
        result_rows[found] = self._sorted_rows[pos_clamped[found]]
        hits_per_lookup = found.astype(np.int64)
        aggregate = self._aggregate(self._sorted_rows[pos_clamped[found]].astype(np.int64))

        return LookupRun(
            kind="point",
            num_lookups=m,
            result_rows=result_rows,
            hits_per_lookup=hits_per_lookup,
            aggregate=aggregate,
            stats={
                "node_visits_per_lookup": float(self.height),
                "leaf_entries_scanned": 1.0,
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
        """Linked-leaf scan from the lower bound, optionally capped at ``limit``.

        With a limit the sideways leaf walk stops after ``limit`` qualifying
        entries, so both the leaf-node visits and the scanned entries the
        cost model charges reflect the cap.

        ``order="key"`` returns one ordered page ``(run, next_cursor)``
        exactly like :meth:`repro.core.rx_index.RXIndex.range_lookup`: a
        resumed page re-descends from the root and walks leaves sideways
        starting just past the cursor's ``(key, rowID)``.
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

        # Aggregate all returned values by expanding the per-range slices.
        aggregate = self._aggregate(
            self._sorted_rows[expand_slices(start, counts)].astype(np.int64)
        )

        leaves_scanned = 1.0 + counts.mean() / self.node_width if m else 1.0
        stats = {
            "node_visits_per_lookup": float(self.height) + float(leaves_scanned) - 1.0,
            "leaf_entries_scanned": float(counts.mean()) if m else 0.0,
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
        """One keyset page of the linked leaves: ``(run, next_cursor)``."""
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
        # Every page re-descends from the root to find its resume leaf, then
        # walks sideways: height node visits plus take/node_width leaves.
        run = LookupRun(
            kind="range",
            num_lookups=1,
            result_rows=result_rows,
            hits_per_lookup=np.array([take], dtype=np.int64),
            aggregate=self._aggregate(page.astype(np.int64)),
            stats={
                "node_visits_per_lookup": float(self.height) + take / self.node_width,
                "leaf_entries_scanned": float(take),
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

    def _node_bytes(self) -> int:
        return self.node_width * (self.key_bytes + self.value_bytes)

    def memory_footprint(self, target_keys: int | None = None) -> MemoryFootprint:
        n = self.num_keys if target_keys is None else target_keys
        entry_bytes = self.key_bytes + self.value_bytes
        leaf_bytes = n * entry_bytes / self.fill_factor
        # Inner levels shrink geometrically by the node width.
        inner_bytes = leaf_bytes / (self.node_width - 1)
        final = int(leaf_bytes + inner_bytes)
        # The build sorts out of place: two key+value buffers coexist.
        sort_buffers = 2 * n * entry_bytes
        return MemoryFootprint(final_bytes=final, build_peak_bytes=final + sort_buffers)

    def build_profiles(
        self, target_keys: int | None = None, presorted: bool = False
    ) -> list[WorkProfile]:
        n = self.num_keys if target_keys is None else target_keys
        profiles: list[WorkProfile] = []
        if not presorted:
            sorter = DeviceRadixSort(key_bytes=self.key_bytes, value_bytes=self.value_bytes)
            profiles.append(sorter.work_profile(n))
        final = self.memory_footprint(target_keys).final_bytes
        profiles.append(
            WorkProfile(
                name="B+ bulk load",
                threads=n,
                instructions=n * 14.0,
                bytes_accessed=n * (self.key_bytes + self.value_bytes) + final,
                working_set_bytes=final,
                serial_depth=0.0,
                kernel_launches=2,
                dram_bytes_min=final,
            )
        )
        return profiles

    def _height_for(self, n: int) -> float:
        if n <= self.node_width:
            return 1.0
        return 1.0 + math.ceil(math.log(n / self.node_width, self.node_width))

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

        node_visits = run.stats.get("node_visits_per_lookup", float(self.height))
        if target_keys is not None:
            node_visits += self._height_for(target_keys) - self._height_for(self.num_keys)
        leaf_scans = run.stats.get("leaf_entries_scanned", 1.0)
        hits = run.total_hits * lookup_scale

        node_bytes = self._node_bytes()
        structure_bytes = self.memory_footprint(target_keys).final_bytes
        n_values = (self.num_keys if target_keys is None else target_keys) * value_bytes

        # The cooperative search executes a handful of instructions per slot
        # of every visited node plus bookkeeping; this is what makes B+
        # execute well over an order of magnitude more instructions per
        # lookup than RX (Table 7).
        instr_per_node = 6.0 * self.node_width
        instructions = m * (node_visits * instr_per_node + 25.0) + hits * 8.0
        bytes_accessed = (
            m * (node_visits * node_bytes + self.key_bytes) + hits * value_bytes
        )
        return WorkProfile(
            name="B+ lookup",
            threads=int(m),
            instructions=instructions,
            bytes_accessed=bytes_accessed,
            working_set_bytes=structure_bytes + n_values,
            serial_depth=node_visits,
            kernel_launches=1,
            locality=locality,
            hot_fraction=0.70,
            dram_bytes_min=m * (self.key_bytes + 8),
            metadata={"node_visits": node_visits, "leaf_entries_scanned": leaf_scans},
        )
