"""Concurrent query-serving layer over the RX index.

Turns streams of small, independent point/range lookups into the large
coalesced launches the engine is fast at, without changing a single result
bit:

* :mod:`repro.serve.scheduler` — micro-batching scheduler: coalesce by
  launch class, demux hits + counters bit-identically to solo launches.
* :mod:`repro.serve.snapshot` — epoch snapshots: every in-flight batch is
  pinned to an immutable accel state, updates swap in atomically.
* :mod:`repro.serve.cache` — epoch-keyed LRU result cache, invalidated by
  epoch advance.
* :mod:`repro.serve.service` — the front end: submission, admission,
  flushing, update coordination, and an open-loop replay driver with
  latency stats.  Its constructor arguments are the whole serving policy
  (window size and wait, cache capacity, default deadline, queue bound,
  retry policy); the index's ``RXConfig`` carries none of it.
* :mod:`repro.serve.faults` — deterministic, seeded fault injection at every
  seam of the stack (launches, cache, updates, snapshot capture).
* :mod:`repro.serve.resilience` — the failure semantics: retry/backoff,
  explicit error results and the failure accounting surfaced by
  ``IndexService.stats()``.
"""

from repro.serve.cache import CacheStats, ResultCache
from repro.serve.faults import FAULT_SITES, FaultInjector, FaultSpec, InjectedFault
from repro.serve.resilience import (
    LaunchExhausted,
    RequestFailure,
    RetryPolicy,
    ServeStats,
    UpdateFailed,
)
from repro.serve.scheduler import (
    LaunchClass,
    MicroBatchScheduler,
    RequestResult,
    SchedulerStats,
    ServeRequest,
)
from repro.serve.service import IndexService, ReplayReport
from repro.serve.snapshot import EpochManager, EpochSnapshot

__all__ = [
    "CacheStats",
    "EpochManager",
    "EpochSnapshot",
    "FAULT_SITES",
    "FaultInjector",
    "FaultSpec",
    "IndexService",
    "InjectedFault",
    "LaunchClass",
    "LaunchExhausted",
    "MicroBatchScheduler",
    "ReplayReport",
    "RequestFailure",
    "RequestResult",
    "ResultCache",
    "RetryPolicy",
    "SchedulerStats",
    "ServeRequest",
    "ServeStats",
    "UpdateFailed",
]
