"""Lookup-batch generators (Sections 3.1, 4.2, 4.4–4.9).

Point lookups are drawn from the key column (hits) and, when a hit rate below
1.0 is requested, mixed with keys that are guaranteed absent (misses).  Range
lookups pick a lower bound from the key column and add the desired span.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.zipf import zipf_sample


def _rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def point_lookups(
    keys: np.ndarray,
    num_lookups: int,
    seed: int | np.random.Generator | None = 1,
) -> np.ndarray:
    """Uniformly random point lookups drawn from the key column (all hits)."""
    rng = _rng(seed)
    keys = np.asarray(keys, dtype=np.uint64)
    picks = rng.integers(0, keys.shape[0], size=num_lookups)
    return keys[picks]


def miss_keys(
    keys: np.ndarray,
    num_misses: int,
    key_bits: int = 64,
    seed: int | np.random.Generator | None = 2,
    outside_domain: bool = False,
) -> np.ndarray:
    """Keys guaranteed not to be present in ``keys``.

    ``outside_domain`` reproduces the paper's extreme-miss experiment where
    every missed key lies outside the key column's value range, letting the
    BVH abort at the root.
    """
    rng = _rng(seed)
    keys = np.asarray(keys, dtype=np.uint64)
    present = np.unique(keys)
    if outside_domain:
        start = int(keys.max()) + 1
        return (np.arange(num_misses, dtype=np.uint64) + np.uint64(start)).astype(np.uint64)
    high = (1 << key_bits) - 1
    out = np.empty(num_misses, dtype=np.uint64)
    filled = 0
    while filled < num_misses:
        draw = rng.integers(0, high, size=(num_misses - filled) * 2 + 16, dtype=np.uint64, endpoint=True)
        if present.size:
            # Batched membership test against the sorted key set: a draw is
            # present exactly when the key at its insertion point equals it.
            pos = np.minimum(np.searchsorted(present, draw), present.shape[0] - 1)
            fresh = draw[present[pos] != draw]
        else:
            fresh = draw
        take = min(fresh.shape[0], num_misses - filled)
        out[filled : filled + take] = fresh[:take]
        filled += take
    return out


def point_lookups_with_hit_rate(
    keys: np.ndarray,
    num_lookups: int,
    hit_rate: float,
    key_bits: int = 32,
    seed: int | np.random.Generator | None = 3,
    outside_domain_misses: bool = False,
) -> np.ndarray:
    """Point lookups of which a fraction ``hit_rate`` matches an existing key.

    Mirrors Figure 14: hits are uniform draws from the key column, misses are
    uniform draws from the complement of the key set (or from outside the key
    column's value range when ``outside_domain_misses`` is set).
    """
    if not 0.0 <= hit_rate <= 1.0:
        raise ValueError("hit_rate must be within [0, 1]")
    rng = _rng(seed)
    num_hits = int(round(num_lookups * hit_rate))
    num_misses = num_lookups - num_hits
    hits = point_lookups(keys, num_hits, seed=rng)
    misses = miss_keys(
        keys, num_misses, key_bits=key_bits, seed=rng, outside_domain=outside_domain_misses
    )
    batch = np.concatenate([hits, misses])
    rng.shuffle(batch)
    return batch


def zipf_point_lookups(
    keys: np.ndarray,
    num_lookups: int,
    coefficient: float,
    seed: int | np.random.Generator | None = 4,
) -> np.ndarray:
    """Point lookups whose popularity follows a Zipf law over the key column.

    A coefficient of 0 is the uniform case; 2.0 is the paper's most extreme
    skew (Figure 16).
    """
    rng = _rng(seed)
    keys = np.asarray(keys, dtype=np.uint64)
    ranks = zipf_sample(keys.shape[0], num_lookups, coefficient, rng)
    return keys[ranks]


def range_lookups(
    keys: np.ndarray,
    num_lookups: int,
    span: int,
    seed: int | np.random.Generator | None = 5,
) -> tuple[np.ndarray, np.ndarray]:
    """Range lookups ``[l, l + span - 1]`` with ``l`` drawn from the key column.

    On a dense key column every lookup returns exactly ``span`` qualifying
    entries, the worst case the paper uses to bound range-lookup cost
    (Section 4.9).
    """
    if span < 1:
        raise ValueError("span must be at least 1")
    rng = _rng(seed)
    keys = np.asarray(keys, dtype=np.uint64)
    lowers = keys[rng.integers(0, keys.shape[0], size=num_lookups)]
    # Avoid overflowing the key domain at the very top.
    max_lower = keys.max() - np.uint64(span - 1) if keys.max() >= np.uint64(span - 1) else np.uint64(0)
    lowers = np.minimum(lowers, max_lower)
    uppers = lowers + np.uint64(span - 1)
    return lowers, uppers
