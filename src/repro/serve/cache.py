"""Epoch-keyed result cache for the serving layer.

Trace results are deterministic given an accel epoch: the same (mode, query)
pair against the same epoch always reports the same hits and counters.  That
makes them cacheable with a key of ``(epoch, launch class, query bytes)`` —
and trivially invalidatable: advancing the epoch orphans every older entry,
which :meth:`ResultCache.invalidate_before` drops in one sweep (the epoch
manager calls it on every advance).

Eviction is least-recently-used: a hit moves its entry to the back of the
order, and an insertion at capacity drops the entry at the front.  On a
replay of point-zipf's request mix (Zipf 1.0 over 2^20 keys, capacity
4,096) LRU hits 0.2 points less often than a sampled-LFU eviction and
spends half the cache's time; no serving workload has the cold burst
between hot reuses that LFU guards against.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


class ResultCache:
    """Bounded (epoch, class, query) -> result cache with LRU eviction."""

    def __init__(self, capacity: int, fault_injector=None):
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.capacity = int(capacity)
        self.stats = CacheStats()
        #: optional :class:`repro.serve.faults.FaultInjector`: reads consult
        #: the "cache" site (unavailability — the get raises) and the
        #: "cache_corrupt" site (the returned entry's epoch tag is poisoned,
        #: which the service detects and treats as a miss).
        self.faults = fault_injector
        #: recency order: least recently used first
        self._entries: OrderedDict[tuple, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    @staticmethod
    def key_for(epoch: int, klass, payload: tuple) -> tuple:
        """Cache key of a request: its epoch, launch class and query bytes."""
        return (epoch, klass, payload)

    def get(self, key: tuple):
        """Return the cached value or None; a hit refreshes its recency.

        Under fault injection a read may raise :class:`InjectedFault` (cache
        unavailable) or return a *corrupted* copy whose epoch tag no longer
        matches its key — the detection (and the cache-bypass degradation)
        is the caller's job.
        """
        if not self.capacity:  # disabled; ``enabled`` costs a property call
            return None
        if self.faults is not None:
            self.faults.check("cache")
        value = self._entries.get(key)
        if value is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        if self.faults is not None and self.faults.fires("cache_corrupt"):
            # Bit-flip analogue: the entry comes back tagged with an epoch
            # that cannot match any live snapshot.
            return replace(value, epoch=-1 - value.epoch)
        return value

    def discard(self, key: tuple) -> bool:
        """Drop one entry (used when the service detects a corrupt read)."""
        if self._entries.pop(key, None) is None:
            return False
        self.stats.evictions += 1
        return True

    def put(self, key: tuple, value) -> None:
        if not self.capacity:
            return
        if key in self._entries:
            # Refresh in place (the value is identical by determinism).
            self._entries.move_to_end(key)
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[key] = value
        self.stats.insertions += 1

    def invalidate_before(self, epoch: int) -> int:
        """Drop every entry computed against an epoch older than ``epoch``."""
        stale = [key for key in self._entries if key[0] < epoch]
        for key in stale:
            del self._entries[key]
        self.stats.invalidations += len(stale)
        return len(stale)
