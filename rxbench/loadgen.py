"""Virtual-clock open-loop load generator over ``IndexService``'s public API.

Like :meth:`repro.serve.service.IndexService.replay`, arrivals are stamps on
a virtual clock rather than timers, so the generator is never late (its
lateness is zero by construction) and the cost of admitting a request is
paid outside the virtual timeline; it is reported separately as the
``serve.admit`` span of the traced run.  Service times are the measured
wall-clock of each flush, and flushes queue behind one another on a single
launch server.

Unlike ``replay``, the arrival list may grow while the run is in flight: a
completed request can schedule follow-up requests at its completion time.
That is how a cursor page chain submits each page when the previous one
completes (one logical client per chain).

A window closes by size (``max_batch`` queries pending, launched at the
closing arrival) or by wait (the oldest pending request's ``max_wait``
bound passes before the next arrival), exactly the rule ``replay`` applies.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Outcome:
    """One request's result, stamped on the virtual clock."""

    result: object  #: RequestResult, or RequestFailure when it failed
    tag: object  #: the caller's label for the request (what to check)
    arrival: float  #: when the request was due to be sent
    completion: float  #: when its result was delivered
    flush_seconds: float  #: duration of the flush that served it

    @property
    def failed(self) -> bool:
        return self.result.failed

    @property
    def latency(self) -> float:
        return self.completion - self.arrival


@dataclass
class LoadReport:
    outcomes: list[Outcome]
    wall_seconds: float  #: wall-clock of the whole drive() call
    flush_seconds: list[float] = field(default_factory=list)
    makespan: float = 0.0  #: first arrival to last completion (virtual)

    @property
    def completed(self) -> int:
        return sum(1 for o in self.outcomes if not o.failed)

    def latencies(self) -> np.ndarray:
        """Latency of every request from its due arrival; failures are inf."""
        return np.array(
            [np.inf if o.failed else o.latency for o in self.outcomes],
            dtype=np.float64,
        )


def drive(service, arrivals, follow=None, time_scale: float = 1.0) -> LoadReport:
    """Run ``arrivals`` through ``service`` and stamp every outcome.

    ``arrivals`` is an iterable of ``(time, submit, tag)``: ``submit(service,
    time)`` queues the request and returns it (or the failure the service
    rejected it with).  ``follow(outcome)`` may return further
    ``(time, submit, tag)`` entries, due no earlier than the completion.
    Each measured flush occupies ``time_scale`` times its wall-clock on the
    virtual clock (a host-speed correction); ``wall_seconds`` stays as
    measured.
    """
    scheduler = service.scheduler
    heap = [(float(t), seq, submit, tag) for seq, (t, submit, tag) in enumerate(arrivals)]
    heapq.heapify(heap)
    seq = len(heap)
    first_arrival = heap[0][0] if heap else 0.0
    tags: dict[int, object] = {}
    outcomes: list[Outcome] = []
    flushes: list[float] = []
    server_free = 0.0

    def deliver(outcome: Outcome) -> None:
        nonlocal seq
        outcomes.append(outcome)
        if follow is None or outcome.failed:
            return
        for t, submit, tag in follow(outcome) or ():
            heapq.heappush(heap, (max(float(t), outcome.completion), seq, submit, tag))
            seq += 1

    def flush(close: float) -> None:
        nonlocal server_free
        begin = max(close, server_free)
        t0 = time.perf_counter()
        results = service.pump(close)
        elapsed = (time.perf_counter() - t0) * time_scale
        server_free = begin + elapsed
        flushes.append(elapsed)
        for result in results:
            deliver(
                Outcome(
                    result=result,
                    tag=tags.pop(result.request_id),
                    arrival=result.arrival,
                    completion=server_free,
                    flush_seconds=elapsed,
                )
            )

    wall_start = time.perf_counter()
    while heap or scheduler.pending:
        due = scheduler.flush_deadline() if scheduler.pending else float("inf")
        if heap and heap[0][0] <= due:
            t, _, submit, tag = heapq.heappop(heap)
            request = submit(service, t)
            if getattr(request, "failed", False):  # rejected at admission
                deliver(Outcome(request, tag, t, t, 0.0))
            else:
                tags[request.request_id] = tag
            while scheduler.pending_queries >= scheduler.max_batch:
                flush(t)
        else:
            flush(due)
    wall = time.perf_counter() - wall_start
    last = max((o.completion for o in outcomes), default=first_arrival)
    return LoadReport(
        outcomes=outcomes,
        wall_seconds=wall,
        flush_seconds=flushes,
        makespan=last - first_arrival,
    )
