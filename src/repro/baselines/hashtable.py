"""HT — a WarpCore-style GPU hash table.

WarpCore [Jünger et al., HiPC 2020] implements *cooperative probing*: each
key is assigned to a group of (by default eight) threads that inspects eight
neighbouring slots of an open-addressing table at once, moving to the next
group of slots only when the current one is exhausted.  The paper configures
a target load factor of 0.8 and group size 8 and inserts keys one by one
(hash tables have no bulk load).

Functional behaviour reproduced here:

* multi-value semantics — duplicate keys occupy separate slots, and a lookup
  reports *all* matching rowIDs (probing only stops at the first empty slot,
  exactly like the original),
* misses probe longer than hits, which is why HT degrades as the hit rate
  drops (Figure 14),
* no range-lookup support (Section 4.9 excludes HT for this reason).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import (
    BuildResult,
    GpuIndex,
    LookupRun,
    MemoryFootprint,
    MISS_SENTINEL,
    as_lookup_keys,
    as_uint64_keys,
)
from repro.gpusim.counters import WorkProfile

#: Probing group size used by the paper (8 threads inspect 8 slots at once).
DEFAULT_GROUP_SIZE = 8
#: Target load factor used by the paper.
DEFAULT_LOAD_FACTOR = 0.8

#: Sentinel for an empty slot: ``build`` refuses it as a key, as WarpCore
#: reserves its empty key.
_EMPTY = np.uint64(0xFFFFFFFFFFFFFFFF)


def _mix_hash(keys: np.ndarray) -> np.ndarray:
    """64-bit finaliser-style hash (splitmix64), vectorised."""
    x = np.asarray(keys, dtype=np.uint64).copy()
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    return x


class WarpCoreHashTable(GpuIndex):
    """Open-addressing hash table with cooperative (group) probing."""

    name = "HT"
    supports_range_lookups = False
    supports_duplicates = True
    max_key_bits = 64

    def __init__(
        self,
        load_factor: float = DEFAULT_LOAD_FACTOR,
        group_size: int = DEFAULT_GROUP_SIZE,
        key_bytes: int = 4,
        value_bytes: int = 4,
    ):
        super().__init__()
        if not 0.1 <= load_factor <= 0.95:
            raise ValueError("load_factor must be in [0.1, 0.95]")
        if group_size < 1:
            raise ValueError("group_size must be positive")
        self.load_factor = load_factor
        self.group_size = group_size
        self.key_bytes = key_bytes
        self.value_bytes = value_bytes
        self._slot_keys: np.ndarray | None = None
        self._slot_rows: np.ndarray | None = None
        self._num_groups = 0
        self._build_probe_groups = 0.0

    # ------------------------------------------------------------------ #
    # build
    # ------------------------------------------------------------------ #

    def build(self, keys: np.ndarray, values: np.ndarray | None = None) -> BuildResult:
        key_bits = 32 if self.key_bytes == 4 else 64
        keys = as_uint64_keys(keys, "keys")
        if np.any(keys == _EMPTY):
            raise ValueError("keys must not hold 2^64 - 1: it marks an empty slot")
        self._store_column(keys, values, key_bits=key_bits)
        n = self.num_keys
        capacity = int(np.ceil(n / self.load_factor))
        # Round capacity up to a whole number of probing groups.
        self._num_groups = max((capacity + self.group_size - 1) // self.group_size, 1)
        capacity = self._num_groups * self.group_size

        slot_keys = np.full(capacity, _EMPTY, dtype=np.uint64)
        slot_rows = np.zeros(capacity, dtype=np.uint64)

        group_of = (_mix_hash(self.keys) % np.uint64(self._num_groups)).astype(np.int64)
        # The device inserts keys one at a time (hash tables have no bulk
        # load), but the *outcome* of that sequential process is computed
        # here with flat array passes.  Group-granular linear probing fills
        # every group as a prefix of its window, and per-group occupancy —
        # hence lookup probe lengths and the total insert displacement — is
        # independent of insertion order.  Processing keys sorted (stably)
        # by home group therefore preserves every observable of the
        # sequential loop: probe statistics, the stored (key, rowID) pairs,
        # per-lookup match sets, and duplicates of a key staying in row
        # order along their probe sequence.  Only which individual slot a
        # displaced key occupies may differ, which lookups never expose.
        #
        # For keys sorted by home group, "first free slot in the first
        # non-full group at or after the home group" reduces to a running
        # maximum over unrolled slot indices:  slot_i = max(slot_{i-1} + 1,
        # group_size * home_i), i.e. one vectorised maximum.accumulate.
        total_probe_groups = 0
        if n:
            order = np.argsort(group_of, kind="stable")
            homes = group_of[order]
            gs = self.group_size
            steps = np.arange(n, dtype=np.int64)
            slots = np.maximum.accumulate(homes * gs - steps) + steps
            wrapped = slots >= capacity
            probes = (slots // gs) - homes + 1
            if wrapped.any():
                # Keys pushed past the last group continue probing from
                # group 0; they take the smallest still-free slots in order.
                n_wrapped = int(wrapped.sum())
                free = np.setdiff1d(
                    np.arange(capacity, dtype=np.int64),
                    slots[~wrapped],
                    assume_unique=True,
                )
                if free.size < n_wrapped:
                    raise RuntimeError("hash table overflow during insert")
                wrap_slots = free[:n_wrapped]
                slots[wrapped] = wrap_slots
                probes[wrapped] = (
                    self._num_groups - homes[wrapped] + (wrap_slots // gs) + 1
                )
            slot_keys[slots] = self.keys[order]
            slot_rows[slots] = order.astype(np.uint64)
            total_probe_groups = int(probes.sum())

        self._slot_keys = slot_keys
        self._slot_rows = slot_rows
        self._build_probe_groups = total_probe_groups / max(n, 1)

        memory = self.memory_footprint()
        self._build_result = BuildResult(
            num_keys=n,
            key_bits=key_bits,
            memory=memory,
            stats={
                "capacity": capacity,
                "num_groups": self._num_groups,
                "avg_probe_groups_insert": self._build_probe_groups,
                "achieved_load_factor": n / capacity,
            },
        )
        return self._build_result

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #

    def point_lookup(self, queries: np.ndarray) -> LookupRun:
        if self._slot_keys is None:
            raise RuntimeError("build() must be called before lookups")
        queries = as_lookup_keys(queries, "queries")
        m = queries.shape[0]

        result_rows = np.full(m, MISS_SENTINEL, dtype=np.uint64)
        hits_per_lookup = np.zeros(m, dtype=np.int64)
        aggregate = np.uint64(0)

        group = (_mix_hash(queries) % np.uint64(self._num_groups)).astype(np.int64)
        active = np.arange(m, dtype=np.int64)
        total_probe_groups = 0
        rounds = 0
        slot_keys = self._slot_keys
        slot_rows = self._slot_rows
        gs = self.group_size

        while active.size:
            rounds += 1
            total_probe_groups += int(active.size)
            starts = group[active] * gs
            # Gather each active query's probing window of `gs` slots.
            window_idx = starts[:, None] + np.arange(gs)[None, :]
            window_keys = slot_keys[window_idx]
            empty = window_keys == _EMPTY
            # No stored key is _EMPTY, so a query for it matches no slot.
            matches = (window_keys == queries[active][:, None]) & ~empty
            has_empty = empty.any(axis=1)

            if matches.any():
                q_idx, s_idx = np.nonzero(matches)
                matched_lookups = active[q_idx]
                matched_rows = slot_rows[window_idx[q_idx, s_idx]]
                np.add.at(hits_per_lookup, matched_lookups, 1)
                aggregate += self.values[matched_rows].sum(dtype=np.uint64)
                # Report the smallest matching rowID per lookup.  Duplicates
                # of a key sit in insertion order along the probe sequence,
                # so the minimum is the first match — and unlike the raw slot
                # layout it is identical however the table was filled
                # (MISS_SENTINEL is the max uint64, the identity for min).
                np.minimum.at(result_rows, matched_lookups, matched_rows)

            # A query retires once its window contains an empty slot (the
            # probe chain is guaranteed to end there); otherwise it moves on.
            keep = ~has_empty
            active = active[keep]
            group[active] = (group[active] + 1) % self._num_groups
            if rounds > self._num_groups:
                break

        return LookupRun(
            kind="point",
            num_lookups=m,
            result_rows=result_rows,
            hits_per_lookup=hits_per_lookup,
            aggregate=int(aggregate),
            stats={
                "avg_probe_groups": total_probe_groups / max(m, 1),
                "probe_rounds": rounds,
                "total_probe_groups": total_probe_groups,
            },
        )

    # ------------------------------------------------------------------ #
    # costing
    # ------------------------------------------------------------------ #

    def memory_footprint(self, target_keys: int | None = None) -> MemoryFootprint:
        n = self.num_keys if target_keys is None else target_keys
        capacity = int(np.ceil(n / self.load_factor))
        slot_bytes = self.key_bytes + self.value_bytes
        final = capacity * slot_bytes
        # Hash tables build in place: no extra memory beyond the table itself.
        return MemoryFootprint(final_bytes=final, build_peak_bytes=final)

    def build_profiles(
        self, target_keys: int | None = None, presorted: bool = False
    ) -> list[WorkProfile]:
        n = self.num_keys if target_keys is None else target_keys
        probe_groups = self._build_probe_groups if self._build_probe_groups else 1.2
        group_bytes = self.group_size * (self.key_bytes + self.value_bytes)
        table_bytes = self.memory_footprint(target_keys).final_bytes
        return [
            WorkProfile(
                name="HT build",
                threads=n,
                instructions=n * (30.0 + 25.0 * probe_groups),
                bytes_accessed=n * (probe_groups * group_bytes + self.key_bytes + self.value_bytes),
                working_set_bytes=table_bytes,
                serial_depth=probe_groups + 1.0,
                kernel_launches=1,
                # Inserts are uncoalesced read-modify-write cycles on random
                # probing windows; each one moves full cache sectors.
                dram_bytes_min=n * (probe_groups * self.group_size * 8.0 + 32.0),
            )
        ]

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
        probe_groups = run.stats.get("avg_probe_groups", 1.2)
        hits = run.total_hits * lookup_scale
        group_bytes = self.group_size * (self.key_bytes + self.value_bytes)
        table_bytes = self.memory_footprint(target_keys).final_bytes
        n_values = (self.num_keys if target_keys is None else target_keys) * value_bytes

        bytes_accessed = m * (probe_groups * group_bytes + self.key_bytes) + hits * value_bytes
        instructions = m * (25.0 + 30.0 * probe_groups) + hits * 6.0
        return WorkProfile(
            name="HT lookup",
            threads=int(m),
            instructions=instructions,
            bytes_accessed=bytes_accessed,
            working_set_bytes=table_bytes + n_values,
            serial_depth=probe_groups + 1.0,
            kernel_launches=1,
            locality=locality,
            dram_bytes_min=m * (self.key_bytes + 8),
            metadata={"avg_probe_groups": probe_groups},
        )
