"""The index-serving front end: clock, epoch pinning, cache, replay drivers.

:class:`IndexService` ties the serving pieces together around one
:class:`repro.core.rx_index.RXIndex`:

* requests are submitted with stream-time arrival stamps and queued in the
  :class:`repro.serve.scheduler.MicroBatchScheduler`;
* the first request of an empty queue *opens a batching window* and pins the
  epoch snapshot that is current at that moment — an ``update()`` landing
  before the flush builds the next epoch on the side, and the in-flight
  window still launches against its pinned, immutable state;
* at flush time each request is first looked up in the epoch-keyed
  :class:`repro.serve.cache.ResultCache`; only the misses are coalesced into
  launches, and their demuxed results are inserted back (current-epoch
  results only, so an invalidation sweep can never be undone).

Two replay drivers turn timestamped query streams into throughput/latency
reports.  Both are event-driven simulations whose *service times* are the
measured wall-clock of the actual coalesced launches and whose *arrival
times* come from the stream — the standard way to replay an open-loop trace
against a real component:

* :meth:`IndexService.replay` — open loop: arrivals are fixed in advance;
  a window closes when it holds ``max_batch`` queries (size) or the oldest
  request has waited ``max_wait`` stream seconds (wait).
* :meth:`IndexService.replay_closed_loop` — closed loop: ``num_clients``
  logical clients each submit their next query the moment their previous
  one completes.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.cursor import parse_cursor
from repro.core.rx_index import RXIndex, check_limit
from repro.serve.cache import ResultCache
from repro.serve.faults import InjectedFault
from repro.serve.resilience import (
    RequestFailure,
    RetryPolicy,
    ServeStats,
    UpdateFailed,
)
from repro.serve.scheduler import MicroBatchScheduler, RequestResult, ServeRequest
from repro.serve.snapshot import EpochManager, EpochSnapshot


def _absolute_deadline(arrival: float, deadline: float | None) -> float | None:
    """Absolute deadline of a request given ``deadline`` seconds after arrival.

    A non-finite relative deadline is refused: a NaN would never fire and
    would hide the tighter deadlines queued behind it from deadline-aware
    flushing.  Zero and negative deadlines pass, and are rejected at
    admission as infeasible.
    """
    if deadline is None:
        return None
    if not math.isfinite(deadline):
        raise ValueError(
            f"deadline must be a finite number of seconds (or None), got {deadline}"
        )
    return arrival + deadline


@dataclass
class ReplayReport:
    """Throughput/latency summary of one replayed query stream.

    ``results`` holds the successful :class:`RequestResult`\\ s; ``errors``
    holds every explicit :class:`RequestFailure` (rejections, timeouts,
    exhausted launches).  Every submitted request lands in exactly one of
    the two lists — a replay can never silently drop a request.
    """

    results: list[RequestResult]
    #: per-request latency in stream seconds (completion - arrival),
    #: successes only
    latencies: np.ndarray
    #: end-to-end stream time from first arrival to last completion
    makespan: float
    #: wall-clock seconds the launches themselves consumed
    service_seconds: float
    #: explicit failures: one RequestFailure per rejected/failed request
    errors: list[RequestFailure] = field(default_factory=list)
    #: index updates applied during the replay: dicts with "time",
    #: "epoch" (after the update) and "failed" (rolled back)
    updates: list[dict] = field(default_factory=list)
    num_requests: int = 0
    num_queries: int = 0

    def __post_init__(self) -> None:
        self.num_requests = len(self.results) + len(self.errors)
        self.num_queries = int(sum(r.num_lookups for r in self.results))

    @property
    def throughput_rps(self) -> float:
        """Sustained request throughput over the stream makespan."""
        return self.num_requests / self.makespan if self.makespan > 0 else 0.0

    @property
    def goodput_rps(self) -> float:
        """Successful-request throughput over the makespan (the chaos metric)."""
        return len(self.results) / self.makespan if self.makespan > 0 else 0.0

    @property
    def error_rate(self) -> float:
        """Fraction of submitted requests that received an error result."""
        return len(self.errors) / self.num_requests if self.num_requests else 0.0

    @property
    def service_throughput_rps(self) -> float:
        """Request throughput of the launch pipeline alone (no idle time)."""
        return (
            self.num_requests / self.service_seconds if self.service_seconds > 0 else 0.0
        )

    def errors_by_reason(self) -> dict:
        return dict(Counter(f.reason for f in self.errors))

    def latency_percentiles(self) -> dict:
        if self.latencies.size == 0:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        p50, p95, p99 = np.percentile(self.latencies, [50.0, 95.0, 99.0])
        return {"p50": float(p50), "p95": float(p95), "p99": float(p99)}

    def as_dict(self) -> dict:
        return {
            "num_requests": self.num_requests,
            "num_queries": self.num_queries,
            "num_errors": len(self.errors),
            "errors_by_reason": self.errors_by_reason(),
            "error_rate": self.error_rate,
            "makespan_seconds": self.makespan,
            "service_seconds": self.service_seconds,
            "throughput_rps": self.throughput_rps,
            "goodput_rps": self.goodput_rps,
            "service_throughput_rps": self.service_throughput_rps,
            "latency_seconds": self.latency_percentiles(),
            "updates": list(self.updates),
        }


class IndexService:
    """Concurrent query-serving layer over one built :class:`RXIndex`.

    The constructor arguments are the serving policy: a window closes at
    ``max_batch`` queries or after ``max_wait`` stream seconds;
    ``cache_capacity`` result-cache entries (0 disables the cache);
    ``deadline`` is the default relative deadline of a request (None: no
    deadline); ``max_queue`` bounds the pending queries (None: unbounded);
    ``retry`` shapes the retries of a faulted launch (default
    :class:`RetryPolicy`).
    """

    def __init__(
        self,
        index: RXIndex,
        max_batch: int = 4096,
        max_wait: float = 1e-3,
        cache_capacity: int = 4096,
        deadline: float | None = None,
        max_queue: int | None = None,
        retry: RetryPolicy | None = None,
        fault_injector=None,
    ):
        if deadline is not None and not (deadline > 0 and math.isfinite(deadline)):
            raise ValueError(
                "deadline must be a positive, finite number of seconds (or "
                f"None to disable), got {deadline}"
            )
        if max_queue is not None and not max_queue >= 1:  # NaN-proof
            raise ValueError(
                "max_queue must be at least 1 query (or None for an unbounded "
                f"queue), got {max_queue}"
            )
        self.index = index
        self.faults = fault_injector
        self.serve_stats = ServeStats()
        #: default relative deadline (seconds after arrival) stamped on
        #: requests that do not carry their own; None = no deadline
        self.deadline = deadline
        #: bound on pending *queries* (not requests); None = unbounded.  Over
        #: it, requests are shed with a ``retry_after`` hint.
        self.max_queue = max_queue
        self.retry = retry if retry is not None else RetryPolicy()
        self.scheduler = MicroBatchScheduler(
            max_batch=max_batch,
            max_wait=max_wait,
            retry=self.retry,
            serve_stats=self.serve_stats,
        )
        self.cache = ResultCache(cache_capacity, fault_injector=fault_injector)
        self.epochs = EpochManager(index, fault_injector=fault_injector)
        self.epochs.add_listener(self.cache.invalidate_before)
        self._next_request_id = 0
        self._window_snapshot: EpochSnapshot | None = None
        self._service_seconds = 0.0
        #: EWMA of flush service time — the headroom used by deadline-aware
        #: window flushing (flush early enough that service still fits)
        self._flush_ewma = 0.0
        #: rejections produced since the last _take_rejections() drain
        self._rejected: list[RequestFailure] = []

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #

    def _reject(self, request: ServeRequest, reason: str, retry_after=None):
        failure = RequestFailure(
            request_id=request.request_id,
            kind=request.kind,
            reason=reason,
            arrival=request.arrival,
            completion=request.arrival,  # rejected on the spot
            deadline=request.deadline,
            retry_after=retry_after,
            num_lookups=request.num_queries,
        )
        self.serve_stats.rejections += 1
        if reason == "rejected_deadline":
            self.serve_stats.rejections_deadline += 1
        elif reason == "rejected":
            self.serve_stats.rejections_queue += 1
        self._rejected.append(failure)
        return failure

    def _take_rejections(self) -> list[RequestFailure]:
        rejected, self._rejected = self._rejected, []
        return rejected

    def _admit(self, request: ServeRequest) -> ServeRequest | RequestFailure:
        if request.deadline is None and self.deadline is not None:
            request.deadline = request.arrival + self.deadline
        if request.deadline is not None and request.deadline <= request.arrival:
            # The deadline cannot be met even by an instantaneous flush:
            # reject up front instead of doing work that must be discarded.
            return self._reject(request, "rejected_deadline")
        if (
            self.max_queue is not None
            and self.scheduler.pending_queries + request.num_queries > self.max_queue
        ):
            # Shed load with a hint: the queue drains at the next flush.
            next_flush = self.scheduler.flush_deadline(self._flush_ewma)
            retry_after = (
                max(next_flush - request.arrival, 0.0)
                if next_flush != float("inf")
                else self.scheduler.max_wait
            )
            return self._reject(request, "rejected", retry_after=retry_after)
        if self._window_snapshot is None:
            # First request of a new window: pin the epoch it will run on.
            try:
                self._window_snapshot = self.epochs.pin(self.epochs.current())
            except InjectedFault:
                # Snapshot capture faulted: the service cannot open a window
                # right now, so shed the request as transient.
                return self._reject(
                    request, "rejected", retry_after=self.scheduler.max_wait
                )
        self.scheduler.submit(request)
        self.serve_stats.admitted += 1
        return request

    def submit_point(
        self,
        queries: np.ndarray,
        arrival: float = 0.0,
        deadline: float | None = None,
    ) -> ServeRequest | RequestFailure:
        """Queue one point-lookup request (one or a few query keys).

        ``deadline`` is relative (seconds after ``arrival``); when omitted
        the service's default applies.  Returns the queued request, or an
        explicit :class:`RequestFailure` when the request was rejected
        (infeasible deadline or shed by the queue bound).  A non-finite
        ``deadline``, queries that are not a non-empty 1-D key array, or a
        key beyond the codec's ``max_key()`` raise ``ValueError`` and queue
        nothing.
        """
        arrival = float(arrival)
        if deadline is not None:
            deadline = _absolute_deadline(arrival, deadline)
        queries = np.ascontiguousarray(queries, dtype=np.uint64)
        # Positional, in field order (request_id, kind, queries, lowers,
        # uppers, limit, arrival, deadline); the request checks its shape.
        request = ServeRequest(
            self._next_request_id + 1, "point", queries, None, None, None, arrival, deadline
        )
        codec = self._serving_codec()
        if not codec.accepts_all_keys:
            codec.validate_keys(queries, "queries")
        self._next_request_id += 1
        return self._admit(request)

    def submit_range(
        self,
        lowers: np.ndarray,
        uppers: np.ndarray,
        limit: int | None = None,
        arrival: float = 0.0,
        deadline: float | None = None,
        order: str | None = None,
        cursor: str | None = None,
        pin_epoch: int | None = None,
    ) -> ServeRequest | RequestFailure:
        """Queue one range-lookup request, optionally with LIMIT-k pushdown.

        ``order="key"`` makes the request an ordered page (one range, traced
        in ``ordered_k`` mode): its result carries a ``next_cursor`` token
        which, passed back as ``cursor`` together with ``pin_epoch`` set to
        the first page's result epoch, resumes the scan just past the last
        returned ``(key, rowID)``.  A pinned page whose epoch has been
        superseded by an index update fails with ``"epoch_retired"`` rather
        than serving rows of a different column state — the client restarts
        the scan explicitly.  Bounds that are not equal-shaped, non-empty
        1-D key arrays, an upper bound below its lower bound, or a bound
        past the codec's ``max_key()`` raise ``ValueError`` and queue
        nothing.
        """
        limit = check_limit(limit)
        # Validate the client-supplied bounds, cursor token and deadline up
        # front: a malformed value must fail here with a clean ValueError,
        # not inside a coalesced launch, where it would fail every request
        # of the window.  The original token string still rides on the
        # request (cache keys and demux labels key on it verbatim).
        codec = self._serving_codec()
        if cursor is not None:
            parse_cursor(cursor, max_key=codec.max_key())
        arrival = float(arrival)
        if deadline is not None:
            deadline = _absolute_deadline(arrival, deadline)
        lowers = np.ascontiguousarray(lowers, dtype=np.uint64)
        uppers = np.ascontiguousarray(uppers, dtype=np.uint64)
        # Positional, in field order; the request checks its shapes.
        request = ServeRequest(
            self._next_request_id + 1,
            "range",
            None,
            lowers,
            uppers,
            limit,
            arrival,
            deadline,
            order,
            cursor,
            pin_epoch,
        )
        if not codec.accepts_all_keys:
            codec.validate_keys(lowers, "lowers")
            codec.validate_keys(uppers, "uppers")
        self._next_request_id += 1
        return self._admit(request)

    def _serving_codec(self):
        """Codec of the epoch a request submitted now would launch against:
        the open window's pinned snapshot, else the index's current state."""
        snapshot = self._window_snapshot
        return self.index.codec if snapshot is None else snapshot.codec

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #

    def update(self, new_keys: np.ndarray, new_values: np.ndarray | None = None):
        """Apply an index update; in-flight windows keep their pinned epoch.

        The new epoch becomes visible to the *next* window (and invalidates
        the cache's older entries); the currently open window still launches
        against the snapshot pinned when it opened.

        When the swap *faults* (injected at the "update" site), the index is
        rolled back to the previous key column — a fresh epoch carrying the
        old content — and an :class:`UpdateFailed` outcome is returned so the
        caller sees the failure instead of the update silently half-landing.
        Serving continues from the pre-update state either way.
        """
        if self.faults is not None:
            old_keys = self.index.keys.copy()
            old_values = (
                self.index.values.copy() if self.index.values is not None else None
            )
            outcome = self.index.update(new_keys, new_values)
            try:
                self.faults.check("update")
            except InjectedFault:
                # Roll the content back.  The epoch still advances (twice:
                # failed swap + rollback) so every pinned snapshot stays
                # immutable; the intermediate epoch never serves a window.
                self.index.update(old_keys, old_values)
                self.serve_stats.updates_failed += 1
                self.serve_stats.updates_rolled_back += 1
                self.epochs.current()  # observe the rollback epoch
                return UpdateFailed(rolled_back=True, epoch=self.index.epoch)
        else:
            outcome = self.index.update(new_keys, new_values)
        self.epochs.current()  # observe the new epoch, sweep the cache
        return outcome

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    def checkpoint(self, path) -> dict:
        """Persist the index's current epoch as a crash-safe snapshot.

        Delegates to :meth:`RXIndex.save` with the service's fault injector
        attached, so a chaos run exercises the write-temp → fsync → rename
        boundaries of the epoch store exactly like its other seams.
        In-flight windows are unaffected: a checkpoint only reads the accel
        state, and a save interrupted by an injected fault leaves the last
        committed snapshot intact.
        """
        return self.index.save(path, fault_injector=self.faults)

    def restore(self, path, mmap: bool = True) -> dict:
        """Warm-restart the service from a committed snapshot.

        The index adopts the snapshot's accel state via
        :meth:`RXIndex.restore_from`; the epoch counter advances past both
        the snapshot's tag and the current epoch, so the epoch manager
        observes the change, the cache sweeps its older entries, and
        pinned cursor pages submitted against the pre-restore state fail
        with ``"epoch_retired"`` instead of serving rows of a different
        column state.  A snapshot the index refuses raises its
        :class:`~repro.persist.SnapshotError`, and the service keeps
        serving its current epoch.
        """
        info = self.index.restore_from(
            path, mmap=mmap, fault_injector=self.faults
        )
        self.epochs.current()  # observe the restored epoch, sweep the cache
        return info

    # ------------------------------------------------------------------ #
    # flushing
    # ------------------------------------------------------------------ #

    def _flush_window(
        self, reason: str, now: float | None = None
    ) -> list[RequestResult | RequestFailure]:
        snapshot = self._window_snapshot
        if snapshot is None:
            if not self.scheduler.pending:
                return []
            # Defensive re-pin: a prior flush may have failed between
            # releasing its snapshot and pinning the next window's.
            snapshot = self._window_snapshot = self.epochs.pin(self.epochs.current())
        window, queries = self.scheduler.take_window()
        if not window:
            return []
        self.scheduler.record_window(queries, reason)
        # The snapshot must be released exactly once no matter what the
        # serve raises, and the next window (if any) pinned afresh —
        # otherwise a failed flush pins a dead epoch's accel arrays forever.
        self._window_snapshot = None
        try:
            with self.epochs.releasing(snapshot):
                served = self._serve_window(window, snapshot, now)
        finally:
            if self.scheduler.pending:
                # Requests beyond the window boundary start the next window.
                self._window_snapshot = self.epochs.pin(self.epochs.current())
        return served

    def _serve_window(
        self,
        window: list[ServeRequest],
        snapshot: EpochSnapshot,
        now: float | None,
    ) -> list[RequestResult | RequestFailure]:
        served: dict[int, RequestResult | RequestFailure] = {}
        # Requests whose deadline already passed are shed before the launch:
        # they get an explicit timeout instead of work that must be thrown
        # away, and they stop inflating the coalesced launch.
        live: list[ServeRequest] = []
        for request in window:
            if (
                now is not None
                and request.deadline is not None
                and request.deadline < now
            ):
                self.serve_stats.timeouts += 1
                self.serve_stats.expired_shed += 1
                served[request.request_id] = RequestFailure(
                    request_id=request.request_id,
                    kind=request.kind,
                    reason="timeout",
                    arrival=request.arrival,
                    completion=now,
                    deadline=request.deadline,
                    num_lookups=request.num_queries,
                )
            elif request.pin_epoch is not None and request.pin_epoch != snapshot.epoch:
                # A cursor-resumed page pinned an epoch this window no
                # longer serves (an update landed mid-pagination).  Serving
                # it against the new epoch could skip or duplicate rows —
                # fail explicitly so the client restarts the scan.
                self.serve_stats.rejections_epoch += 1
                served[request.request_id] = RequestFailure(
                    request_id=request.request_id,
                    kind=request.kind,
                    reason="epoch_retired",
                    arrival=request.arrival,
                    completion=now if now is not None else request.arrival,
                    deadline=request.deadline,
                    num_lookups=request.num_queries,
                )
            else:
                live.append(request)
        # Only current-epoch results may (re-)enter the cache: results of a
        # pinned-but-superseded epoch would outlive their invalidation sweep.
        cache_insert = self.cache.enabled and snapshot.epoch == self.index.epoch
        # One launch class per live request keys its cache entry and, on a
        # miss, groups its launch.
        class_of = self.scheduler.class_of
        classes = [class_of(request, snapshot) for request in live]
        misses: list[ServeRequest] = live
        miss_classes = classes
        miss_keys: list[tuple] = []
        if self.cache.enabled:
            epoch = snapshot.epoch
            key_for = ResultCache.key_for
            get = self.cache.get
            misses, miss_classes = [], []
            try:
                for request, klass in zip(live, classes):
                    key = key_for(epoch, klass, request.cache_payload())
                    cached = get(key)
                    if cached is not None and cached.epoch != epoch:
                        # Corrupt read: the entry's epoch tag cannot belong
                        # to the key it was found under.  Drop it and serve
                        # the request by launching.
                        self.cache.discard(key)
                        self.serve_stats.cache_corruptions_detected += 1
                        cached = None
                    if cached is None:
                        misses.append(request)
                        miss_classes.append(klass)
                        miss_keys.append(key)
                        continue
                    # A new result for this request that shares the entry's
                    # hit arrays and counters (results are read-only).
                    # Positional, in field order (see the scheduler's demux).
                    served[request.request_id] = RequestResult(
                        request.request_id,
                        cached.kind,
                        epoch,
                        cached.hits,
                        cached.counters,
                        cached.num_lookups,
                        True,
                        request.arrival,
                        0.0,
                        request.deadline,
                        cached.order,
                        cached.next_cursor,
                    )
            except InjectedFault:
                # Cache unavailable: degrade to cache-bypass for this flush.
                # Every request launches; nothing is read or written back.
                self.serve_stats.degraded_flushes += 1
                served = {
                    rid: res
                    for rid, res in served.items()
                    if isinstance(res, RequestFailure)
                }
                misses, miss_classes = live, classes
                cache_insert = False
        if misses:
            launched = self.scheduler.launch_window(misses, snapshot, miss_classes)
            for result in launched:
                served[result.request_id] = result
            if cache_insert:
                # Results come back in request order, one per miss key.
                put = self.cache.put
                for key, result in zip(miss_keys, launched):
                    if isinstance(result, RequestResult):
                        put(key, result)
        return [served[r.request_id] for r in window]

    def pump(self, now: float) -> list[RequestResult | RequestFailure]:
        """Flush every window that is due at stream time ``now``."""
        results: list[RequestResult | RequestFailure] = []
        while self.scheduler.ready(now, self._flush_ewma):
            if self.scheduler.pending_queries >= self.scheduler.max_batch:
                reason = "size"
            elif now >= self.scheduler.pending[0].arrival + self.scheduler.max_wait:
                reason = "wait"
            else:
                reason = "deadline"
            results.extend(self._flush_window(reason, now))
        return results

    def drain(self) -> list[RequestResult | RequestFailure]:
        """Flush everything that is still pending, regardless of deadlines."""
        results: list[RequestResult | RequestFailure] = []
        while self.scheduler.pending:
            results.extend(self._flush_window("drain"))
        return results

    # ------------------------------------------------------------------ #
    # replay drivers
    # ------------------------------------------------------------------ #

    def _timed_flush(
        self, reason: str, now: float | None = None
    ) -> tuple[list[RequestResult | RequestFailure], float]:
        start = time.perf_counter()
        backoff_before = self.serve_stats.backoff_seconds
        results = self._flush_window(reason, now)
        elapsed = time.perf_counter() - start
        # Simulated retry backoff counts as service time: the launch server
        # is busy waiting out the backoff exactly as a real retry loop is.
        elapsed += self.serve_stats.backoff_seconds - backoff_before
        self._service_seconds += elapsed
        # EWMA of flush service time: the headroom estimate deadline-aware
        # flushing subtracts from the tightest pending deadline.
        if self._flush_ewma == 0.0:
            self._flush_ewma = elapsed
        else:
            self._flush_ewma = 0.7 * self._flush_ewma + 0.3 * elapsed
        return results, elapsed

    def replay(self, stream, updates=None) -> ReplayReport:
        """Open-loop replay: serve ``stream`` and report throughput/latency.

        Arrival times come from the stream; service times are the measured
        wall-clock of the coalesced launches.  A window closes by *size*
        (``max_batch`` queries reached, launch at the closing arrival), by
        *wait* (the oldest request's ``max_wait`` bound passes before the
        next arrival) or by *deadline* (a pending request's deadline minus
        the flush-time EWMA headroom comes first); the launch itself
        additionally queues behind the previous one (single launch server).

        ``updates`` optionally schedules index updates inside the stream:
        an iterable of ``(time, new_keys)`` or ``(time, new_keys,
        new_values)`` tuples applied in stream-time order (due windows flush
        first, so an update never leaks into an already-open window's past).
        The report's ``errors`` list carries every rejected, timed-out or
        launch-failed request — each submitted request appears in exactly
        one of ``results``/``errors``.
        """
        if self.scheduler.pending:
            raise RuntimeError("replay() needs an idle service (pending queue)")
        requests = stream.requests()
        n = len(requests)
        completed: list[RequestResult] = []
        failures: list[RequestFailure] = []
        update_log: list[dict] = []
        server_free = 0.0
        first_arrival = requests[0][0] if n else 0.0
        service_seconds_before = self._service_seconds
        schedule = sorted(updates, key=lambda entry: entry[0]) if updates else []
        next_update = 0

        def finish(result, completion: float) -> None:
            """Deliver one flush result at stream time ``completion``."""
            if isinstance(result, RequestFailure):
                if result.completion == 0.0:
                    result.completion = completion
                failures.append(result)
                return
            if result.deadline is not None and completion > result.deadline:
                # Served, but too late: the client already gave up.
                self.serve_stats.timeouts += 1
                failure = RequestFailure.from_result(result, "timeout")
                failure.completion = completion
                failures.append(failure)
                return
            result.completion = completion
            completed.append(result)

        def launch(close_time: float, reason: str) -> None:
            nonlocal server_free
            start = max(close_time, server_free)
            results, elapsed = self._timed_flush(reason, close_time)
            server_free = start + elapsed
            for result in results:
                finish(result, server_free)

        def flush_due(until: float) -> None:
            """Fire every window whose flush deadline expires before ``until``."""
            while self.scheduler.pending:
                due = self.scheduler.flush_deadline(self._flush_ewma)
                if due >= until:
                    break
                wait_bound = (
                    self.scheduler.pending[0].arrival + self.scheduler.max_wait
                )
                launch(due, "wait" if due >= wait_bound else "deadline")

        def apply_update(entry) -> None:
            at = float(entry[0])
            flush_due(at)
            outcome = self.update(entry[1], entry[2] if len(entry) > 2 else None)
            update_log.append(
                {
                    "time": at,
                    "epoch": int(self.index.epoch),
                    "failed": isinstance(outcome, UpdateFailed),
                }
            )

        for arrival, submit in requests:
            while next_update < len(schedule) and schedule[next_update][0] <= arrival:
                apply_update(schedule[next_update])
                next_update += 1
            # Flush deadlines that expire before this arrival fire first.
            flush_due(arrival)
            submit(self, arrival)
            failures.extend(self._take_rejections())
            while self.scheduler.pending_queries >= self.scheduler.max_batch:
                launch(arrival, "size")
        while next_update < len(schedule):
            apply_update(schedule[next_update])
            next_update += 1
        while self.scheduler.pending:
            due = self.scheduler.flush_deadline(self._flush_ewma)
            wait_bound = self.scheduler.pending[0].arrival + self.scheduler.max_wait
            launch(due, "wait" if due >= wait_bound else "deadline")

        latencies = np.array([r.latency for r in completed], dtype=np.float64)
        last_completion = max(
            max((r.completion for r in completed), default=0.0),
            max((f.completion for f in failures), default=0.0),
        )
        makespan = (
            last_completion - first_arrival if (completed or failures) else 0.0
        )
        return ReplayReport(
            results=completed,
            latencies=latencies,
            makespan=makespan,
            service_seconds=self._service_seconds - service_seconds_before,
            errors=failures,
            updates=update_log,
        )

    def replay_closed_loop(self, stream, num_clients: int) -> ReplayReport:
        """Closed-loop replay: ``num_clients`` clients, one query in flight each.

        Every client submits its next request the moment its previous one
        completes, so the offered load adapts to the service rate — the
        standard closed-loop harness.  The stream's arrival stamps are
        ignored; its requests are dealt to clients in order.
        """
        if num_clients < 1:
            raise ValueError(f"num_clients must be at least 1, got {num_clients}")
        if self.scheduler.pending:
            raise RuntimeError(
                "replay_closed_loop() needs an idle service (pending queue)"
            )
        requests = stream.requests()
        completed: list[RequestResult] = []
        failures: list[RequestFailure] = []
        server_free = 0.0
        service_seconds_before = self._service_seconds
        # Ready times of the idle clients (all start at stream time zero).
        ready = [0.0] * min(num_clients, len(requests))
        next_request = 0

        while next_request < len(requests) or self.scheduler.pending:
            # Every idle client submits its next request (earliest first)
            # until the window fills or the stream runs dry.
            while (
                ready
                and next_request < len(requests)
                and self.scheduler.pending_queries < self.scheduler.max_batch
            ):
                ready.sort()
                now = ready.pop(0)
                _, submit = requests[next_request]
                submit(self, now)
                next_request += 1
                for rejection in self._take_rejections():
                    # A rejected client turns around immediately.
                    failures.append(rejection)
                    ready.append(now)
            if not self.scheduler.pending:
                if next_request < len(requests) and ready:
                    continue  # everything in flight was rejected; resubmit
                break
            reason = (
                "size"
                if self.scheduler.pending_queries >= self.scheduler.max_batch
                else "drain"
            )
            results, elapsed = self._timed_flush(reason)
            # The window closes when its own last request was submitted
            # (requests beyond the window boundary do not hold it open).
            close_time = max((r.arrival for r in results), default=0.0)
            start = max(close_time, server_free)
            server_free = start + elapsed
            for result in results:
                if isinstance(result, RequestFailure):
                    if result.completion == 0.0:
                        result.completion = server_free
                    failures.append(result)
                elif (
                    result.deadline is not None
                    and server_free > result.deadline
                ):
                    self.serve_stats.timeouts += 1
                    failure = RequestFailure.from_result(result, "timeout")
                    failure.completion = server_free
                    failures.append(failure)
                else:
                    result.completion = server_free
                    completed.append(result)
                ready.append(server_free)  # the client turns around

        latencies = np.array([r.latency for r in completed], dtype=np.float64)
        makespan = max(
            max((r.completion for r in completed), default=0.0),
            max((f.completion for f in failures), default=0.0),
        )
        return ReplayReport(
            results=completed,
            latencies=latencies,
            makespan=makespan,
            service_seconds=self._service_seconds - service_seconds_before,
            errors=failures,
        )

    # ------------------------------------------------------------------ #
    # stats
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        """One dict: index summary + scheduler, cache and epoch counters."""
        return {
            "index": self.index.stats(),
            "scheduler": self.scheduler.stats.as_dict(),
            "cache": self.cache.stats.as_dict(),
            "epochs": self.epochs.stats.as_dict(),
            "resilience": {
                **self.serve_stats.as_dict(),
                "faults": self.faults.as_dict() if self.faults is not None else {},
            },
            "serve_knobs": {
                "max_batch": self.scheduler.max_batch,
                "max_wait": self.scheduler.max_wait,
                "cache_capacity": self.cache.capacity,
                "deadline": self.deadline,
                "max_queue": self.max_queue,
                "retry_max": self.retry.max_retries,
            },
        }
