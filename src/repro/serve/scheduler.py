"""Micro-batching scheduler: coalesce independent lookups into large launches.

The paper's core premise is that RT-core index probes only pay off when rays
are launched in large batches against the immutable accel — a single point
lookup wastes an entire pipeline launch.  The scheduler accepts many small,
independent requests (one or a few point/range lookups each), coalesces them
into launches bounded by ``max_batch`` queries / ``max_wait`` seconds of
stream time, and demultiplexes the coalesced :class:`LaunchResult` back into
per-request results.

The demux is *bit-identical* to issuing every request as its own solo
launch:

* Ray generation is elementwise per query, and the 3D-mode range fan-out
  orders rays contiguously per lookup, so generating rays for the
  concatenated query array equals concatenating per-request ray batches.
* The wavefront traversal advances every ray independently; budget owners
  (lookups, in ``first_k`` and ``ordered_k``) never span requests, so each
  ray's per-round frontier pairs — and hence its hits, in stream order —
  equal its solo-launch ones.
* Per-request counters come from the engine's ``ray_groups`` attribution
  (:class:`repro.rtx.traversal.TraversalEngine`), which splits every counter
  (including ``traversal_rounds`` and ``max_frontier_size``) by the group
  that owns each ray: the launch stacks the per-group columns into one
  ``(15, groups)`` int64 table in ``TraversalCounters`` field order and
  builds each request's counters positionally from one ``tolist`` of it.

Requests only coalesce into one launch when they share a *launch class* —
the (kind, trace mode, limit) triple — because a launch has a single trace
mode and hit budget.  A flush may therefore issue several class launches.
Every point request of an epoch shares one class object, made once when
the epoch's snapshot is captured.

A request costs a handful of Python objects on this path, so the request
and result records are slotted dataclasses (one object each, no attribute
dict) and are built positionally where a flush makes one per request.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.cursor import next_cursor_token, parse_cursor, resume_after
from repro.core.results import (
    aggregate_values,
    first_row_per_lookup,
    hits_per_lookup,
)
from repro.core.rx_index import trace_mode_for
from repro.rtx.traversal import HitRecords, TraversalCounters, stable_order
from repro.serve.faults import InjectedFault
from repro.serve.resilience import LaunchExhausted, RequestFailure, RetryPolicy


class LaunchClass(NamedTuple):
    """What must match for two requests to share one coalesced launch.

    Cursor-paged requests all land in the ``("range", "ordered_k", k)``
    class regardless of their individual cursors: the resume filter is
    per-lookup, so pages of different scans still coalesce into one launch.

    A named tuple rather than a frozen dataclass: the class is part of every
    result-cache key, and a tuple hashes and compares in C on each cache
    ``get``/``put``.
    """

    kind: str  #: "point" or "range"
    mode: str  #: trace mode: "all", "first_k" or "ordered_k"
    limit: int | None = None  #: per-lookup hit budget (budgeted modes only)


@dataclass(slots=True)
class ServeRequest:
    """One client request: a small batch of point or range lookups."""

    request_id: int
    kind: str  #: "point" or "range"
    queries: np.ndarray | None = None  #: point lookup keys
    lowers: np.ndarray | None = None  #: range lower bounds (inclusive)
    uppers: np.ndarray | None = None  #: range upper bounds (inclusive)
    limit: int | None = None  #: LIMIT-k budget (range only)
    arrival: float = 0.0  #: stream-time arrival in seconds
    #: absolute stream time by which the result must be delivered (None =
    #: no deadline); set by the service from the relative deadline knob
    deadline: float | None = None
    #: ``"key"`` for an ordered paged range lookup (one range per request,
    #: traced in ``ordered_k`` mode); ``None`` for plain lookups
    order: str | None = None
    #: keyset resume token (``"key|row_id"``) of the previous page; requires
    #: ``order="key"``
    cursor: str | None = None
    #: accel epoch the paged scan started on: the request fails with
    #: ``"epoch_retired"`` instead of serving against any other epoch
    pin_epoch: int | None = None
    #: number of lookups (point keys or ranges), fixed at construction
    num_queries: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind == "point":
            queries = self.queries
            if queries is None or queries.ndim != 1 or queries.shape[0] == 0:
                raise ValueError(
                    "a point request needs a 1-D array of at least one query key, "
                    "got " + ("none" if queries is None else f"shape {queries.shape}")
                )
            if self.order is not None:
                raise ValueError("order='key' only applies to range requests")
            self.num_queries = queries.shape[0]
        elif self.kind == "range":
            lowers, uppers = self.lowers, self.uppers
            if lowers is None or uppers is None:
                raise ValueError("a range request needs lower and upper bounds")
            if lowers.ndim != 1 or lowers.shape != uppers.shape or lowers.shape[0] == 0:
                raise ValueError(
                    "range bounds must be equal-shaped, non-empty 1-D arrays, "
                    f"got shapes {lowers.shape} and {uppers.shape}"
                )
            # Python ints: a request holds a few ranges, and a NumPy compare
            # costs microseconds per call.  (The index path refuses an
            # inverted range in every key mode; see keycodec.as_range_bounds.)
            if any(map(operator.gt, lowers.tolist(), uppers.tolist())):
                raise ValueError("range lookups require upper >= lower")
            if self.order is not None:
                if self.order != "key":
                    raise ValueError(
                        f"order must be None or 'key', got {self.order!r}"
                    )
                if self.limit is None:
                    raise ValueError("order='key' requires a page size (limit)")
                if lowers.shape[0] != 1:
                    raise ValueError(
                        "order='key' pages one range per request"
                    )
            self.num_queries = lowers.shape[0]
        else:
            raise ValueError(f"unknown request kind {self.kind!r}")
        if self.cursor is not None and self.order is None:
            raise ValueError("cursor resume requires order='key'")

    def cache_payload(self) -> bytes | tuple:
        """Hashable identity of the request's queries (the cache key body).

        The launch class beside it in the key already names the request's
        kind, so a point request's payload is its key bytes alone.
        Ordered paged requests include their cursor: each page of a scan is
        its own cache entry, keyed by ``(epoch, class, range, cursor)`` —
        so a resumed page can never be answered from another page's entry,
        and an epoch advance orphans every page at once.
        """
        if self.kind == "point":
            return self.queries.tobytes()
        if self.order is None:
            return (self.lowers.tobytes(), self.uppers.tobytes(), self.limit)
        return (
            self.lowers.tobytes(),
            self.uppers.tobytes(),
            self.limit,
            self.order,
            self.cursor,
        )


@dataclass(slots=True)
class RequestResult:
    """One request's demuxed result, bit-identical to a solo launch.

    The demux and the cache-hit path build it positionally, so the field
    order is part of both.
    """

    request_id: int
    kind: str
    epoch: int  #: accel epoch the result was computed against
    hits: HitRecords  #: request-local hit records (ray/lookup ids rebased)
    counters: TraversalCounters  #: request's exact share of the launch work
    num_lookups: int
    from_cache: bool = False
    arrival: float = 0.0  #: stream time the request arrived
    completion: float = 0.0  #: stream time the result was delivered
    deadline: float | None = None  #: absolute deadline carried from the request
    #: ``"key"`` when the request was an ordered page (hits arrive in
    #: ``(key, rowID)`` order); ``None`` otherwise
    order: str | None = None
    #: resume token for the next page of an ordered scan; ``None`` when the
    #: range is exhausted (or the request was not paged)
    next_cursor: str | None = None

    @property
    def latency(self) -> float:
        return self.completion - self.arrival

    @property
    def failed(self) -> bool:
        return False

    def result_rows(self) -> np.ndarray:
        """RowID of the first match per lookup (miss sentinel elsewhere)."""
        return first_row_per_lookup(self.hits, self.num_lookups)

    def hits_per_lookup(self) -> np.ndarray:
        return hits_per_lookup(self.hits, self.num_lookups)

    def aggregate(self, values: np.ndarray) -> int:
        """Sum of ``values[rowID]`` over the matches (epoch-pinned column)."""
        return aggregate_values(self.hits, values)


@dataclass
class SchedulerStats:
    """Counters describing the scheduler's coalescing behaviour."""

    requests: int = 0
    queries: int = 0
    launches: int = 0
    launched_queries: int = 0
    launched_rays: int = 0
    batches: int = 0
    max_batch_queries: int = 0
    closed_by_size: int = 0
    closed_by_wait: int = 0
    closed_by_drain: int = 0
    closed_by_deadline: int = 0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "queries": self.queries,
            "launches": self.launches,
            "launched_queries": self.launched_queries,
            "launched_rays": self.launched_rays,
            "batches": self.batches,
            "queries_per_launch": self.launched_queries / max(self.launches, 1),
            "max_batch_queries": self.max_batch_queries,
            "closed_by_size": self.closed_by_size,
            "closed_by_wait": self.closed_by_wait,
            "closed_by_drain": self.closed_by_drain,
            "closed_by_deadline": self.closed_by_deadline,
        }


class MicroBatchScheduler:
    """Groups pending requests into coalesced launches and demuxes results.

    The scheduler holds the batching *policy* (``max_batch`` queries per
    launch window, ``max_wait`` seconds of stream time before a lone request
    is flushed anyway) and the coalescing *mechanics*; the clock and the
    epoch pinning live in :class:`repro.serve.service.IndexService`.
    """

    def __init__(
        self,
        max_batch: int,
        max_wait: float,
        retry: RetryPolicy | None = None,
        serve_stats=None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be at least 1, got {max_batch}")
        if not max_wait >= 0:  # NaN-proof: NaN fails every compare
            raise ValueError(f"max_wait must be non-negative, got {max_wait}")
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)
        #: optional :class:`RetryPolicy` for faulted coalesced launches
        self.retry = retry
        #: optional :class:`repro.serve.resilience.ServeStats` the retry loop
        #: accounts into (retries, launch failures, backoff seconds)
        self.serve_stats = serve_stats
        #: FIFO of queued requests; a deque so the per-window dequeue stays
        #: O(window) even at 4096-query windows inside the timed flush path.
        self.pending: deque[ServeRequest] = deque()
        self.pending_queries = 0
        #: tightest absolute deadline among pending requests (inf if none)
        self._min_deadline = float("inf")
        self.stats = SchedulerStats()

    # ------------------------------------------------------------------ #
    # batching policy
    # ------------------------------------------------------------------ #

    def submit(self, request: ServeRequest) -> None:
        self.pending.append(request)
        self.pending_queries += request.num_queries
        if request.deadline is not None:
            self._min_deadline = min(self._min_deadline, request.deadline)
        self.stats.requests += 1
        self.stats.queries += request.num_queries

    def flush_deadline(self, headroom: float = 0.0) -> float:
        """Stream time at which the pending window must flush.

        The baseline is the max-wait bound of the oldest request.  When a
        pending request carries a deadline that would expire sooner, the
        flush moves *early*: to the tightest deadline minus ``headroom``
        (the caller's estimate of flush service time), but never before the
        oldest arrival — a request can't flush before it exists.
        """
        if not self.pending:
            return float("inf")
        oldest = self.pending[0].arrival
        wait_bound = oldest + self.max_wait
        if self._min_deadline == float("inf"):
            return wait_bound
        deadline_bound = max(self._min_deadline - headroom, oldest)
        return min(wait_bound, deadline_bound)

    def ready(self, now: float, headroom: float = 0.0) -> bool:
        """Whether the pending window must flush at stream time ``now``."""
        if not self.pending:
            return False
        return (
            self.pending_queries >= self.max_batch
            or now >= self.flush_deadline(headroom)
        )

    # ------------------------------------------------------------------ #
    # coalescing + demux
    # ------------------------------------------------------------------ #

    def take_window(self) -> tuple[list[ServeRequest], int]:
        """Dequeue whole requests FIFO up to ``max_batch`` queries (>= 1).

        Returns ``(window, queries)``: the requests and their total query
        count, which :meth:`record_window` takes so that no pass over the
        window re-counts it.
        """
        if self.pending_queries <= self.max_batch:
            # Everything fits: the window is the whole queue.
            taken = list(self.pending)
            count = self.pending_queries
            self.pending.clear()
            self.pending_queries = 0
            self._min_deadline = float("inf")
            return taken, count
        taken = []
        count = 0
        while self.pending:
            nxt = self.pending[0].num_queries
            if taken and count + nxt > self.max_batch:
                break
            taken.append(self.pending.popleft())
            count += nxt
        self.pending_queries -= count
        self._min_deadline = min(
            (r.deadline for r in self.pending if r.deadline is not None),
            default=float("inf"),
        )
        return taken, count

    def record_window(self, queries: int, reason: str) -> None:
        """Account one closed batching window of ``queries`` queries (the
        count :meth:`take_window` returned) in the stats."""
        self.stats.batches += 1
        self.stats.max_batch_queries = max(self.stats.max_batch_queries, queries)
        if reason == "size":
            self.stats.closed_by_size += 1
        elif reason == "wait":
            self.stats.closed_by_wait += 1
        elif reason == "deadline":
            self.stats.closed_by_deadline += 1
        else:
            self.stats.closed_by_drain += 1

    def class_of(self, request: ServeRequest, snapshot) -> LaunchClass:
        """Launch class of ``request`` under ``snapshot``'s point budget.

        Load-bearing in two places: it decides which requests may share a
        coalesced launch, and it is part of the result-cache key.  A point
        request gets the epoch's one point class (``snapshot.point_class``);
        unordered range lookups follow the index's rule
        (:func:`repro.core.rx_index.trace_mode_for`).
        """
        if request.kind == "point":
            return snapshot.point_class
        # Positional construction: a named tuple builds nearly twice as
        # slowly from keywords.
        if request.order == "key":
            return LaunchClass("range", "ordered_k", request.limit)
        return LaunchClass("range", trace_mode_for(request.limit), request.limit)

    def _launch_class(
        self, klass: LaunchClass, requests: list[ServeRequest], snapshot
    ) -> list[RequestResult]:
        """Coalesce same-class requests into one launch and demux it."""
        counts = np.array([r.num_queries for r in requests], dtype=np.int64)
        starts = np.concatenate([[0], np.cumsum(counts)])
        total = int(starts[-1])

        any_hit = None
        if klass.kind == "point":
            queries = np.concatenate([r.queries for r in requests])
            rays = snapshot.codec.point_ray_batch(
                queries, snapshot.config.point_ray_mode
            )
        else:
            lowers = np.concatenate([r.lowers for r in requests])
            uppers = np.concatenate([r.uppers for r in requests])
            if klass.mode == "ordered_k":
                # One lookup per paged request, each resumed past its own
                # cursor, exactly like RXIndex's single-page path.
                cursors = [parse_cursor(r.cursor) for r in requests]
                lowers, any_hit = resume_after(snapshot.keys, lowers, uppers, cursors)
            rays = snapshot.codec.range_ray_batch(
                lowers,
                uppers,
                snapshot.config.range_ray_mode,
                max_rays_per_range=snapshot.config.max_rays_per_range,
            )
        # Rays are contiguous per lookup and lookups contiguous per request,
        # so the owning request of every ray is a searchsorted away.
        ray_groups = np.searchsorted(starts, rays.lookup_ids, side="right") - 1
        # Retry loop for injected launch faults.  Re-launching is idempotent:
        # the rays were built once and the snapshot pins the accel state, so
        # a retried launch is bit-identical to the first attempt succeeding.
        attempt = 0
        while True:
            try:
                launch = snapshot.pipeline.launch(
                    rays,
                    num_lookups=total,
                    mode=klass.mode,
                    limit=klass.limit,
                    ray_groups=ray_groups,
                    any_hit=any_hit,
                )
                break
            except InjectedFault as fault:
                if fault.site != "launch":
                    raise
                if self.retry is None or attempt >= self.retry.max_retries:
                    raise LaunchExhausted(
                        f"launch of class {klass} failed after {attempt} "
                        f"retr{'y' if attempt == 1 else 'ies'}"
                    ) from fault
                delay = self.retry.delay(attempt)
                attempt += 1
                if self.serve_stats is not None:
                    self.serve_stats.retries += 1
                    self.serve_stats.backoff_seconds += delay
        self.stats.launches += 1
        self.stats.launched_queries += total
        self.stats.launched_rays += len(rays)

        hits = launch.hits
        # Group the flat hit stream by owning request with one stable sort
        # (a radix sort for windows of fewer than 2^16 requests); within
        # each request the stream order is preserved — exactly the order a
        # solo launch would have reported.  The sorted stream is gathered
        # and rebased to request-local ray/lookup ids once, so each
        # request's hits are one contiguous run.
        hit_groups = np.searchsorted(starts, hits.lookup_ids, side="right") - 1
        order = stable_order(hit_groups)
        sorted_groups = hit_groups[order]
        ray_starts = np.searchsorted(rays.lookup_ids, starts, side="left")
        ray_indices = hits.ray_indices[order] - ray_starts[sorted_groups]
        prim_indices = hits.prim_indices[order]
        lookup_ids = hits.lookup_ids[order] - starts[sorted_groups]
        bounds = np.searchsorted(
            sorted_groups, np.arange(len(requests) + 1, dtype=sorted_groups.dtype)
        ).tolist()
        num_rays = np.diff(ray_starts).tolist()

        epoch = snapshot.epoch
        ordered = klass.mode == "ordered_k"
        next_cursor = None
        results = []
        for request, lo, hi, request_rays, counters in zip(
            requests, bounds, bounds[1:], num_rays, launch.group_counters
        ):
            # Private copies, never views: a cached result must not pin the
            # whole launch's hit arrays.
            local = HitRecords(
                ray_indices[lo:hi].copy(),
                prim_indices[lo:hi].copy(),
                lookup_ids[lo:hi].copy(),
                request_rays,
            )
            if ordered:
                # The ordered pool reports hits in (key, rowID) order, and
                # the demux preserves stream order within a request, so the
                # page's last primitive is the keyset resume point.
                next_cursor = next_cursor_token(
                    snapshot.keys, local.prim_indices, klass.limit
                )
            # Positional, in field order: request_id, kind, epoch, hits,
            # counters, num_lookups, from_cache, arrival, completion,
            # deadline, order, next_cursor.
            results.append(
                RequestResult(
                    request.request_id,
                    request.kind,
                    epoch,
                    local,
                    counters,
                    request.num_queries,
                    False,
                    request.arrival,
                    0.0,
                    request.deadline,
                    request.order,
                    next_cursor,
                )
            )
        return results

    def launch_window(
        self,
        window: list[ServeRequest],
        snapshot,
        classes: list[LaunchClass],
    ) -> list[RequestResult | RequestFailure]:
        """Coalesce ``window`` into per-class launches and demux the results.

        Results come back in request order.  Requests of different launch
        classes cannot share a launch (one trace mode / hit budget per
        launch), so a mixed window issues one launch per class.  A class
        whose launch exhausts its retries fails *only its own requests* —
        each gets an explicit :class:`RequestFailure` — while the other
        classes of the window still serve normally.  ``classes`` holds each
        request's :meth:`class_of`, which the caller has already computed
        for its cache keys.
        """
        by_class: dict[LaunchClass, list[ServeRequest]] = {}
        for klass, request in zip(classes, window):
            by_class.setdefault(klass, []).append(request)

        results: list[RequestResult | RequestFailure] = []
        for klass, requests in by_class.items():
            try:
                results += self._launch_class(klass, requests, snapshot)
            except LaunchExhausted:
                if self.serve_stats is not None:
                    self.serve_stats.launch_failures += len(requests)
                results += [
                    RequestFailure(
                        request_id=request.request_id,
                        kind=request.kind,
                        reason="launch_failed",
                        arrival=request.arrival,
                        deadline=request.deadline,
                        num_lookups=request.num_queries,
                    )
                    for request in requests
                ]
        if len(by_class) == 1:
            return results  # one class: already in request order
        by_id = {result.request_id: result for result in results}
        return [by_id[r.request_id] for r in window]
