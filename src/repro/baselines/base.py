"""Common interface shared by every GPU-resident index (RX and baselines).

The benchmark harness interacts with indexes in two steps:

1. **Functional step** — build the index over a key array, run point/range
   lookup batches, and verify the returned rowIDs / aggregates against a
   NumPy reference.  This step also records *structural statistics* (probe
   counts, node visits, ...) measured at the simulation scale.
2. **Costing step** — ask the index for :class:`repro.gpusim.counters.WorkProfile`
   objects describing the device work of the build and the lookup batch,
   optionally extrapolated to the paper's scale (2^26 keys, 2^27 lookups),
   and feed them to :class:`repro.gpusim.costmodel.CostModel`.

Keeping the two steps separate lets the functional simulation stay small and
fast while the reported series retain the paper's shape.

Every index takes its keys by one input rule, :func:`as_uint64_keys` and
its lookup forms :func:`as_lookup_keys` and :func:`as_range_bounds`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.gpusim.counters import WorkProfile

#: Reserved value written into result arrays when a lookup finds no match,
#: mirroring the paper's miss sentinel.
MISS_SENTINEL = np.uint64(0xFFFFFFFFFFFFFFFF)

_UINT64 = np.dtype(np.uint64)


def as_uint64_keys(keys, name: str) -> np.ndarray:
    """``keys`` as a uint64 array, refusing any value the cast would change.

    Unsigned integers pass as they are, signed integers (and lists of
    Python ints) when none is negative, and an empty input always.  Any
    other input raises ``ValueError`` naming the argument ``name``: a cast
    would turn 1.5 into key 1, -1 into 2^64 - 1 and "7" into 7.  Other
    types reach the index through :mod:`repro.core.typemap` (Section 3.2).
    """
    array = np.asarray(keys)
    if array.dtype == _UINT64:
        return array
    kind = array.dtype.kind
    if kind == "u" or array.size == 0:
        return array.astype(np.uint64)
    if kind == "i":
        if array.min() >= 0:
            return array.astype(np.uint64)
        got = "a negative value"
    elif (
        not isinstance(keys, np.ndarray)
        and kind in "fO"
        and all(type(v) is int for v in np.array(keys, dtype=object).flat)
    ):
        # NumPy infers float64 for a list of Python ints that holds 2^63 or more.
        try:
            return np.array(keys, dtype=np.uint64)
        except OverflowError:
            got = "a value outside [0, 2^64)"
    else:
        got = f"dtype {array.dtype}"
    raise ValueError(
        f"{name} must hold non-negative integers (uint64), got {got}; map "
        "other types to uint64 keys with repro.core.typemap"
    )


def as_lookup_keys(keys, name: str) -> np.ndarray:
    """``keys`` as a 1-D uint64 array of lookup keys or range bounds
    (:func:`as_uint64_keys`).

    The ray builders take one lookup per element, so a scalar or a 2-D
    array raises ``ValueError`` naming the argument ``name``.
    """
    keys = as_uint64_keys(keys, name)
    if keys.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array of keys, got shape {keys.shape}")
    return keys


def as_range_bounds(lowers, uppers) -> tuple[np.ndarray, np.ndarray]:
    """``(lowers, uppers)`` as equal-shaped 1-D uint64 inclusive range bounds.

    The one check of a range lookup's bounds on the index path, the same
    in every key mode: each argument must be 1-D (:func:`as_lookup_keys`),
    both the same shape, and no range inverted (``upper < lower``).  The
    codecs' ray builders take bounds that passed it.
    """
    lowers = as_lookup_keys(lowers, "lowers")
    uppers = as_lookup_keys(uppers, "uppers")
    if lowers.shape != uppers.shape:
        raise ValueError("lowers and uppers must have the same shape")
    if np.any(uppers < lowers):
        raise ValueError("range lookups require upper >= lower")
    return lowers, uppers


def keyset_page_slice(
    sorted_keys: np.ndarray,
    sorted_rows: np.ndarray,
    lower: int,
    upper: int,
    cursor_key: int | None = None,
    cursor_row: int | None = None,
) -> tuple[int, int]:
    """Slice bounds ``[lo, hi)`` of a keyset page over a sorted run.

    Selects the entries of a ``(key, rowID)``-sorted run that fall in the
    inclusive range ``[lower, upper]`` *strictly after* the cursor position
    — the resume arithmetic every sorted-run baseline (SA and B+ leaves)
    shares.  Rows ascend within every equal-key segment (the runs come from
    stable sorts over ascending rowIDs), so a cursor landing inside a
    duplicate-key run resumes mid-segment with one extra ``searchsorted``
    over the segment's rows: rows already paid out are skipped, none are
    re-emitted and none are dropped.
    """
    lo = int(np.searchsorted(sorted_keys, np.uint64(lower), side="left"))
    hi = int(np.searchsorted(sorted_keys, np.uint64(upper), side="right"))
    if cursor_key is not None:
        ck = np.uint64(cursor_key)
        run_lo = int(np.searchsorted(sorted_keys, ck, side="left"))
        run_hi = int(np.searchsorted(sorted_keys, ck, side="right"))
        skip = int(
            np.searchsorted(
                sorted_rows[run_lo:run_hi], np.uint64(cursor_row), side="right"
            )
        )
        lo = max(lo, run_lo + skip)
    return lo, max(hi, lo)


def expand_slices(start: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flatten per-query slices ``[start[i], start[i] + counts[i])`` into one
    int64 index array (the batched-gather idiom shared by every sorted-run
    probe: SA/B+ range scans and the workload reference answers)."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(total, dtype=np.int64) - offsets + np.repeat(start, counts)


@dataclass
class MemoryFootprint:
    """Device memory of an index, as the paper reports it in Table 6."""

    final_bytes: int
    build_peak_bytes: int

    @property
    def build_overhead_bytes(self) -> int:
        """Extra memory needed only while building (peak minus final)."""
        return max(self.build_peak_bytes - self.final_bytes, 0)


@dataclass
class BuildResult:
    """Outcome of building an index over a key column."""

    num_keys: int
    key_bits: int
    memory: MemoryFootprint
    stats: dict = field(default_factory=dict)


@dataclass
class LookupRun:
    """Outcome of one lookup batch (functional results + structural stats).

    ``result_rows`` holds, for every lookup, the rowID of the first match or
    ``MISS_SENTINEL``; ``hits_per_lookup`` counts all matches (needed for
    duplicate keys and range lookups); ``aggregate`` is the sum of the values
    associated with every matching rowID — the paper's end-to-end result.
    ``stats`` carries per-index structural counters used for costing.
    """

    kind: str
    num_lookups: int
    result_rows: np.ndarray
    hits_per_lookup: np.ndarray
    aggregate: int
    stats: dict = field(default_factory=dict)
    #: for ordered (``order="key"``) lookups: the page's rowIDs in
    #: ``(key, row_id)`` order; ``None`` for unordered lookups, whose rowIDs
    #: arrive in traversal order and are only summarised above.
    row_ids: np.ndarray | None = None

    @property
    def total_hits(self) -> int:
        return int(self.hits_per_lookup.sum())

    @property
    def hit_rate(self) -> float:
        if self.num_lookups == 0:
            return 0.0
        return float((self.hits_per_lookup > 0).mean())


class GpuIndex(abc.ABC):
    """Abstract GPU index: build once, answer batched lookups."""

    #: short name used in reports ("RX", "HT", "B+", "SA", ...)
    name: str = "abstract"
    #: whether the index can answer range lookups at all
    supports_range_lookups: bool = True
    #: whether duplicate keys may be inserted
    supports_duplicates: bool = True
    #: maximum key width in bits (the GPU B+-Tree only supports 32)
    max_key_bits: int = 64

    def __init__(self) -> None:
        self._keys: np.ndarray | None = None
        self._values: np.ndarray | None = None
        self._build_result: BuildResult | None = None

    # ------------------------------------------------------------------ #
    # functional interface
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def build(self, keys: np.ndarray, values: np.ndarray | None = None) -> BuildResult:
        """Build the index over ``keys``; ``values[i]`` belongs to rowID ``i``."""

    @abc.abstractmethod
    def point_lookup(self, queries: np.ndarray) -> LookupRun:
        """Answer a batch of point lookups (one exact key per query)."""

    def range_lookup(self, lowers: np.ndarray, uppers: np.ndarray) -> LookupRun:
        """Answer a batch of inclusive range lookups ``[lowers[i], uppers[i]]``."""
        raise NotImplementedError(f"{self.name} does not support range lookups")

    # ------------------------------------------------------------------ #
    # costing interface
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def build_profiles(
        self, target_keys: int | None = None, presorted: bool = False
    ) -> list[WorkProfile]:
        """Work profiles of the build phase, extrapolated to ``target_keys``."""

    @abc.abstractmethod
    def lookup_profile(
        self,
        run: LookupRun,
        target_keys: int | None = None,
        target_lookups: int | None = None,
        locality: float = 0.0,
        value_bytes: int = 4,
    ) -> WorkProfile:
        """Work profile of a lookup batch, extrapolated to the target scale."""

    @abc.abstractmethod
    def memory_footprint(self, target_keys: int | None = None) -> MemoryFootprint:
        """Device memory of the index, extrapolated to ``target_keys`` keys."""

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #

    @property
    def num_keys(self) -> int:
        if self._keys is None:
            raise RuntimeError(f"{self.name}: build() has not been called yet")
        return int(self._keys.shape[0])

    @property
    def keys(self) -> np.ndarray:
        if self._keys is None:
            raise RuntimeError(f"{self.name}: build() has not been called yet")
        return self._keys

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            raise RuntimeError(f"{self.name}: build() has not been called yet")
        return self._values

    def _store_column(self, keys: np.ndarray, values: np.ndarray | None, key_bits: int) -> None:
        keys = as_uint64_keys(keys, "keys")
        if keys.ndim != 1:
            raise ValueError("keys must be a one-dimensional array")
        if keys.shape[0] == 0:
            raise ValueError("cannot build an index over an empty key array")
        if key_bits < 64:
            limit = np.uint64(1) << np.uint64(key_bits)
            if np.any(keys >= limit):
                raise ValueError(
                    f"{self.name} supports at most {key_bits}-bit keys; got larger keys"
                )
        if values is None:
            values = np.arange(keys.shape[0], dtype=np.uint64)
        else:
            values = as_uint64_keys(values, "values")
            if values.shape != keys.shape:
                raise ValueError("values must have the same shape as keys")
        self._keys = keys
        self._values = values

    def _aggregate(self, row_ids: np.ndarray) -> int:
        """Sum the values referenced by ``row_ids`` (the paper's final result)."""
        if row_ids.size == 0:
            return 0
        return int(self.values[row_ids].sum(dtype=np.uint64))

    @staticmethod
    def _scale_lookups(sim_lookups: int, target_lookups: int | None) -> float:
        if not target_lookups or sim_lookups == 0:
            return 1.0
        return target_lookups / sim_lookups
