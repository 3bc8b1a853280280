"""Failure semantics for the serving layer: deadlines, shedding, retries.

The pieces here give :class:`repro.serve.service.IndexService` an explicit
answer for every fault :mod:`repro.serve.faults` can inject:

* :class:`RequestFailure` — the *explicit* error result a client receives
  instead of a :class:`repro.serve.scheduler.RequestResult`.  Every admitted
  or rejected request produces exactly one result object; nothing is ever
  silently dropped or left hanging.
* :class:`RetryPolicy` — exponential backoff with deterministic (seeded)
  jitter for failed coalesced launches.  Retries are idempotent by
  construction: the replay re-launches the *same rays* against the *same
  pinned epoch snapshot*, so a retried result is bit-identical to a solo
  launch against that epoch.
* :class:`ServeStats` — the failure accounting surfaced by
  ``IndexService.stats()["resilience"]``; the chaos bench's error-budget
  numbers come from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class LaunchExhausted(RuntimeError):
    """A coalesced launch failed every retry attempt."""


@dataclass
class UpdateFailed:
    """Returned by ``IndexService.update`` when the swap faulted.

    The index was rolled back to the previous key column (a fresh epoch with
    the old content), so serving continues from the pre-update state; the
    failure is surfaced here and in :class:`ServeStats`.
    """

    rolled_back: bool = True
    epoch: int = -1


@dataclass
class RequestFailure:
    """One request's explicit error result (never a silent drop)."""

    request_id: int
    kind: str
    #: why it failed: "rejected" (queue full), "rejected_deadline"
    #: (infeasible deadline at submit), "timeout" (deadline expired before
    #: or after service), "launch_failed" (retries exhausted),
    #: "epoch_retired" (a cursor-resumed page pinned an epoch the index has
    #: since moved past — the client must restart the scan)
    reason: str
    arrival: float = 0.0
    completion: float = 0.0
    deadline: float | None = None
    #: back-pressure hint for "rejected" failures: seconds after ``arrival``
    #: at which the client should retry (the next expected flush)
    retry_after: float | None = None
    num_lookups: int = 0
    from_cache: bool = False

    @property
    def failed(self) -> bool:
        return True

    @property
    def latency(self) -> float:
        return self.completion - self.arrival

    @staticmethod
    def from_result(result, reason: str) -> "RequestFailure":
        """Failure wrapper for a result that missed its deadline post-hoc."""
        return RequestFailure(
            request_id=result.request_id,
            kind=result.kind,
            reason=reason,
            arrival=result.arrival,
            completion=result.completion,
            deadline=result.deadline,
            num_lookups=result.num_lookups,
        )


@dataclass
class RetryPolicy:
    """Exponential backoff with deterministic jitter for failed launches."""

    max_retries: int = 3
    backoff_base: float = 1e-3
    backoff_factor: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if math.isnan(self.backoff_base) or self.backoff_base < 0.0:
            raise ValueError(
                f"backoff_base must be non-negative seconds, got {self.backoff_base}"
            )
        if math.isnan(self.backoff_factor) or self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1.0 (exponential, not shrinking), "
                f"got {self.backoff_factor}"
            )
        if math.isnan(self.jitter) or not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be a fraction in [0, 1], got {self.jitter}")
        self._rng = np.random.default_rng([997, int(self.seed)])

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based), jittered upward."""
        base = self.backoff_base * self.backoff_factor**attempt
        if self.jitter == 0.0:
            return base
        return base * (1.0 + self.jitter * float(self._rng.random()))


@dataclass
class ServeStats:
    """Failure accounting across one service's lifetime."""

    admitted: int = 0
    rejections: int = 0
    rejections_queue: int = 0
    rejections_deadline: int = 0
    timeouts: int = 0
    #: timeouts detected *before* launch (work shed, not wasted)
    expired_shed: int = 0
    retries: int = 0
    #: requests failed after launch-retry exhaustion
    launch_failures: int = 0
    #: flushes served with the cache bypassed after a cache fault
    degraded_flushes: int = 0
    #: paged requests failed because their pinned epoch was superseded
    rejections_epoch: int = 0
    cache_corruptions_detected: int = 0
    updates_failed: int = 0
    updates_rolled_back: int = 0
    backoff_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "admitted": self.admitted,
            "rejections": self.rejections,
            "rejections_queue": self.rejections_queue,
            "rejections_deadline": self.rejections_deadline,
            "timeouts": self.timeouts,
            "expired_shed": self.expired_shed,
            "retries": self.retries,
            "launch_failures": self.launch_failures,
            "degraded_flushes": self.degraded_flushes,
            "rejections_epoch": self.rejections_epoch,
            "cache_corruptions_detected": self.cache_corruptions_detected,
            "updates_failed": self.updates_failed,
            "updates_rolled_back": self.updates_rolled_back,
            "backoff_seconds": self.backoff_seconds,
        }
