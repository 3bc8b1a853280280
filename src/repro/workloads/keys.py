"""Key-column generators (Sections 3.1, 4.2, 4.3, 4.7).

All generators return unsigned 64-bit key arrays whose position in the array
is the rowID, exactly like the paper's setup: the index is built from a
GPU-resident key array, and looking up a key returns positions into a value
array of the same length.
"""

from __future__ import annotations

import numpy as np


def _rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def dense_shuffled_keys(
    n: int, start: int = 0, seed: int | np.random.Generator | None = 0
) -> np.ndarray:
    """``n`` consecutive integers starting at ``start``, shuffled arbitrarily.

    This is the paper's default build set: a dense key range guarantees a
    predictable number of hits for uniformly drawn lookups.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    rng = _rng(seed)
    keys = np.arange(start, start + n, dtype=np.uint64)
    rng.shuffle(keys)
    return keys


def strided_keys(
    n: int, stride: int = 1, seed: int | np.random.Generator | None = 0
) -> np.ndarray:
    """Keys ``0, s, 2s, ...`` (shuffled) — the stride experiment of Figure 3b.

    Increasing the stride widens the *value range ratio* of the key set
    without changing its cardinality, which is the quantity that degrades
    Extended Mode.
    """
    if stride < 1:
        raise ValueError("stride must be at least 1")
    rng = _rng(seed)
    keys = (np.arange(n, dtype=np.uint64) * np.uint64(stride)).astype(np.uint64)
    rng.shuffle(keys)
    return keys


def sparse_uniform_keys(
    n: int,
    key_bits: int = 32,
    seed: int | np.random.Generator | None = 0,
    unique: bool = True,
) -> np.ndarray:
    """``n`` keys drawn uniformly from the full ``key_bits``-wide domain.

    Matches the Section 4 setup, which permits the full 32-bit integer range
    (the B+-Tree baseline does not support 64-bit keys).
    """
    if not 1 <= key_bits <= 64:
        raise ValueError("key_bits must be in [1, 64]")
    rng = _rng(seed)
    high = (1 << key_bits) - 1
    if unique:
        if n > high:
            raise ValueError("cannot draw that many unique keys from the domain")
        # Oversample then deduplicate to keep the draw cheap and exact.
        keys = np.empty(0, dtype=np.uint64)
        while keys.shape[0] < n:
            needed = (n - keys.shape[0]) * 2 + 16
            draw = rng.integers(0, high, size=needed, dtype=np.uint64, endpoint=True)
            keys = np.unique(np.concatenate([keys, draw]))
        keys = keys[:n]
        rng.shuffle(keys)
        return keys.astype(np.uint64)
    return rng.integers(0, high, size=n, dtype=np.uint64, endpoint=True)


def keys_with_multiplicity(
    n_distinct: int,
    multiplicity: int,
    key_bits: int = 32,
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """``n_distinct`` unique keys, each repeated ``multiplicity`` times (Fig 11)."""
    if multiplicity < 1:
        raise ValueError("multiplicity must be at least 1")
    rng = _rng(seed)
    distinct = sparse_uniform_keys(n_distinct, key_bits=key_bits, seed=rng)
    keys = np.repeat(distinct, multiplicity)
    rng.shuffle(keys)
    return keys
