"""Differential tests of the micro-batching scheduler's coalesce/demux path.

The serving contract: demuxing a coalesced launch yields, for every request,
hits *and* counters bit-identical to issuing that request as its own solo
launch — across point lookups (all / first_k-1), range lookups, LIMIT-k
(first_k) range lookups and ordered (ordered_k) cursor pages.  The tests
compare against solo launches through the same pipeline, so any divergence
in ray generation, traversal order or counter attribution fails loudly.

Besides the fixed cases, ``test_seeded_mixed_window`` draws random mixed
windows from the ``DIFF_SEED`` environment variable (default 20260727, as
in the other differential harnesses; CI runs extra seeds).
"""

import os
import random

import numpy as np
import pytest

from repro.core.config import PrimitiveType, RXConfig
from repro.core.cursor import make_cursor_filter, next_cursor_token, parse_cursor
from repro.core.rx_index import RXIndex
from repro.serve import IndexService
from repro.serve.scheduler import LaunchClass, MicroBatchScheduler, ServeRequest
from repro.serve.snapshot import EpochManager
from repro.workloads import dense_shuffled_keys, keys_with_multiplicity

DIFF_SEED = int(os.environ.get("DIFF_SEED", "20260727"))
NUM_SEEDED_WINDOWS = 6


def build_index(keys, **config_kwargs):
    index = RXIndex(RXConfig(**config_kwargs))
    index.build(keys)
    return index


def launch_next_window(scheduler, snapshot, reason="size"):
    """Serve the scheduler's next batching window against ``snapshot`` the
    way the service does: take it, record it, and launch it with one
    ``class_of`` per request."""
    window, queries = scheduler.take_window()
    if not window:
        return []
    scheduler.record_window(queries, reason)
    classes = [scheduler.class_of(request, snapshot) for request in window]
    return scheduler.launch_window(window, snapshot, classes)


def solo_launch(snapshot, request, klass):
    """Reference: the request issued alone through the same pipeline.

    An ordered page launches the way ``RXIndex._ordered_range_page`` does:
    its lower bound clamped to the cursor key, and the exclusive cursor
    filter installed as the launch's any-hit program.
    """
    any_hit = None
    if klass.kind == "point":
        rays = snapshot.codec.point_ray_batch(
            request.queries, snapshot.config.point_ray_mode
        )
    else:
        lowers = request.lowers
        if klass.mode == "ordered_k":
            cursor = parse_cursor(request.cursor)
            if cursor is not None:
                lower = min(max(int(lowers[0]), cursor.key), int(request.uppers[0]))
                lowers = np.array([lower], dtype=np.uint64)
            any_hit = make_cursor_filter(snapshot.keys, [cursor])
        rays = snapshot.codec.range_ray_batch(
            lowers,
            request.uppers,
            snapshot.config.range_ray_mode,
            max_rays_per_range=snapshot.config.max_rays_per_range,
        )
    return snapshot.pipeline.launch(
        rays,
        num_lookups=request.num_queries,
        mode=klass.mode,
        limit=klass.limit,
        any_hit=any_hit,
    )


def assert_request_matches_solo(result, request, snapshot, klass):
    solo = solo_launch(snapshot, request, klass)
    assert np.array_equal(result.hits.ray_indices, solo.hits.ray_indices)
    assert np.array_equal(result.hits.prim_indices, solo.hits.prim_indices)
    assert np.array_equal(result.hits.lookup_ids, solo.hits.lookup_ids)
    assert result.hits.num_rays == solo.hits.num_rays
    assert result.counters.as_dict() == solo.counters.as_dict()
    if klass.mode == "ordered_k":
        assert result.order == "key"
        assert result.next_cursor == next_cursor_token(
            snapshot.keys, solo.hits.prim_indices, klass.limit
        )


def expected_class(request, snapshot):
    """The launch class the scheduler must give ``request``."""
    if request.kind == "point":
        if snapshot.point_limit is None:
            return LaunchClass(kind="point", mode="all")
        return LaunchClass(kind="point", mode="first_k", limit=1)
    if request.order == "key":
        return LaunchClass(kind="range", mode="ordered_k", limit=request.limit)
    if request.limit is None:
        return LaunchClass(kind="range", mode="all")
    return LaunchClass(kind="range", mode="first_k", limit=request.limit)


def make_point_requests(rng, keys, num_requests, max_queries=5):
    requests = []
    for i in range(num_requests):
        n = int(rng.integers(1, max_queries + 1))
        picks = rng.integers(0, keys.shape[0], size=n)
        requests.append(
            ServeRequest(request_id=i + 1, kind="point", queries=keys[picks])
        )
    return requests


def make_range_requests(rng, keys, num_requests, span, limit=None, start_id=1000):
    requests = []
    top = int(keys.max())
    for i in range(num_requests):
        lo = np.uint64(min(int(rng.integers(0, top)), top - span))
        requests.append(
            ServeRequest(
                request_id=start_id + i,
                kind="range",
                lowers=np.array([lo], dtype=np.uint64),
                uppers=np.array([lo + np.uint64(span - 1)], dtype=np.uint64),
                limit=limit,
            )
        )
    return requests


def make_page_requests(rng, index, num_requests, span, limit, start_id):
    """``order="key"`` pages: even requests are first pages, odd ones resume
    from the cursor the index's own pager hands out after ``1 + i % 3``
    pages (cursors land mid-range, including inside duplicate runs)."""
    requests = []
    top = int(index.keys.max())
    for i in range(num_requests):
        lo = np.array([min(int(rng.integers(0, top)), top - span)], dtype=np.uint64)
        hi = lo + np.uint64(span - 1)
        cursor = None
        if i % 2:
            for _ in range(1 + i % 3):
                _, cursor = index.range_lookup(
                    lo, hi, limit=limit, order="key", cursor=cursor
                )
            assert cursor is not None, "span too short for a resumed page"
        requests.append(
            ServeRequest(
                request_id=start_id + i,
                kind="range",
                lowers=lo,
                uppers=hi,
                limit=limit,
                order="key",
                cursor=cursor,
            )
        )
    return requests


class TestDemuxBitIdentity:
    """Coalesced hits + counters must equal per-request solo launches."""

    def test_point_any_hit(self):
        rng = np.random.default_rng(1)
        keys = dense_shuffled_keys(2048, seed=2)  # duplicate-free -> first_k, 1
        index = build_index(keys)
        snapshot = EpochManager(index).current()
        assert snapshot.point_limit == 1
        scheduler = MicroBatchScheduler(max_batch=10_000, max_wait=0.0)
        requests = make_point_requests(rng, keys, 23)
        for request in requests:
            scheduler.submit(request)
        results = launch_next_window(scheduler, snapshot)
        assert [r.request_id for r in results] == [r.request_id for r in requests]
        klass = LaunchClass(kind="point", mode="first_k", limit=1)
        assert {scheduler.class_of(r, snapshot) for r in requests} == {klass}
        for result, request in zip(results, requests):
            assert_request_matches_solo(result, request, snapshot, klass)

    def test_point_all_mode_with_duplicates(self):
        rng = np.random.default_rng(3)
        keys = keys_with_multiplicity(1024, multiplicity=4, seed=4)
        index = build_index(keys)
        snapshot = EpochManager(index).current()
        assert snapshot.point_limit is None
        scheduler = MicroBatchScheduler(max_batch=10_000, max_wait=0.0)
        requests = make_point_requests(rng, keys, 17)
        for request in requests:
            scheduler.submit(request)
        results = launch_next_window(scheduler, snapshot)
        klass = LaunchClass(kind="point", mode="all")
        assert {scheduler.class_of(r, snapshot) for r in requests} == {klass}
        for result, request in zip(results, requests):
            assert_request_matches_solo(result, request, snapshot, klass)

    def test_range_all_hits(self):
        rng = np.random.default_rng(5)
        keys = dense_shuffled_keys(2048, seed=6)
        index = build_index(keys)
        snapshot = EpochManager(index).current()
        scheduler = MicroBatchScheduler(max_batch=10_000, max_wait=0.0)
        requests = make_range_requests(rng, keys, 19, span=24)
        for request in requests:
            scheduler.submit(request)
        results = launch_next_window(scheduler, snapshot)
        klass = LaunchClass(kind="range", mode="all")
        for result, request in zip(results, requests):
            assert_request_matches_solo(result, request, snapshot, klass)

    def test_range_first_k(self):
        rng = np.random.default_rng(7)
        keys = dense_shuffled_keys(2048, seed=8)
        index = build_index(keys)
        snapshot = EpochManager(index).current()
        scheduler = MicroBatchScheduler(max_batch=10_000, max_wait=0.0)
        requests = make_range_requests(rng, keys, 15, span=32, limit=4)
        for request in requests:
            scheduler.submit(request)
        results = launch_next_window(scheduler, snapshot)
        klass = LaunchClass(kind="range", mode="first_k", limit=4)
        for result, request in zip(results, requests):
            assert_request_matches_solo(result, request, snapshot, klass)
            assert result.hits_per_lookup().max() <= 4

    def test_mixed_window_demuxes_every_class(self):
        """One window holding all four classes — point, range/all,
        range/first_k and range/ordered_k pages (first and cursor-resumed) —
        one launch per class, demux still solo-identical, results in
        submission order."""
        rng = np.random.default_rng(9)
        keys = dense_shuffled_keys(2048, seed=10)
        index = build_index(keys)
        snapshot = EpochManager(index).current()
        scheduler = MicroBatchScheduler(max_batch=10_000, max_wait=0.0)
        points = make_point_requests(rng, keys, 6)
        ranges = make_range_requests(rng, keys, 5, span=16, start_id=100)
        limited = make_range_requests(rng, keys, 4, span=16, limit=2, start_id=200)
        pages = make_page_requests(rng, index, 4, span=40, limit=3, start_id=300)
        assert any(p.cursor is None for p in pages)
        assert any(p.cursor is not None for p in pages)
        interleaved = []
        for quad in zip(points, ranges, limited, pages):
            interleaved.extend(quad)
        for request in interleaved:
            scheduler.submit(request)
        results = launch_next_window(scheduler, snapshot)
        assert [r.request_id for r in results] == [r.request_id for r in interleaved]
        assert scheduler.stats.launches == 4  # one per class
        for result, request in zip(results, interleaved):
            klass = expected_class(request, snapshot)
            assert_request_matches_solo(result, request, snapshot, klass)

    @pytest.mark.parametrize("case_index", range(NUM_SEEDED_WINDOWS))
    def test_seeded_mixed_window(self, case_index, frontier_block):
        """A random window drawn from ``DIFF_SEED``: primitive, key
        multiplicity (first_k-1 or all-hits points), a patched
        ``FRONTIER_BLOCK``, request sizes and the mix of all four classes."""
        seed = DIFF_SEED * 1000 + case_index
        pick = random.Random(seed)
        primitive = pick.choice(list(PrimitiveType))
        multiplicity = pick.choice([1, 1, 3])
        block = pick.choice([None, 1, 7, 64])
        frontier_block(block)
        rng = np.random.default_rng(seed)
        # A dense shuffled column, each key repeated ``multiplicity`` times,
        # so ranges and resumed pages always have rows to return.
        keys = rng.permutation(
            np.repeat(np.arange(2048 // multiplicity, dtype=np.uint64), multiplicity)
        )
        index = build_index(keys, primitive=primitive)
        snapshot = EpochManager(index).current()
        assert snapshot.point_limit == (1 if multiplicity == 1 else None)
        span = pick.choice([8, 24, 40])
        limit = pick.choice([1, 2, 5])
        requests = (
            make_point_requests(rng, keys, pick.randint(1, 8), max_queries=4)
            + make_range_requests(rng, keys, pick.randint(0, 5), span=span, start_id=100)
            + make_range_requests(
                rng, keys, pick.randint(0, 5), span=span, limit=limit, start_id=200
            )
            + make_page_requests(rng, index, pick.randint(0, 5), 40, limit, start_id=300)
        )
        pick.shuffle(requests)
        scheduler = MicroBatchScheduler(max_batch=10_000, max_wait=0.0)
        for request in requests:
            scheduler.submit(request)
        results = launch_next_window(scheduler, snapshot)
        label = (
            f"seed={DIFF_SEED} case={case_index} primitive={primitive.value} "
            f"multiplicity={multiplicity} block={block}"
        )
        assert [r.request_id for r in results] == [r.request_id for r in requests], label
        classes = {expected_class(r, snapshot) for r in requests}
        assert scheduler.stats.launches == len(classes), label
        for result, request in zip(results, requests):
            klass = expected_class(request, snapshot)
            assert_request_matches_solo(result, request, snapshot, klass)


class TestBatchingPolicy:
    def test_window_respects_max_batch_but_never_splits_requests(self):
        keys = dense_shuffled_keys(512, seed=11)
        index = build_index(keys)
        scheduler = MicroBatchScheduler(max_batch=8, max_wait=0.0)
        sizes = [3, 3, 3, 9, 1]
        for i, n in enumerate(sizes):
            scheduler.submit(
                ServeRequest(
                    request_id=i + 1, kind="point", queries=keys[:n]
                )
            )
        w1, q1 = scheduler.take_window()
        assert [r.request_id for r in w1] == [1, 2]  # 3+3, +3 would exceed 8
        w2, q2 = scheduler.take_window()
        assert [r.request_id for r in w2] == [3]  # 3, +9 would exceed
        w3, q3 = scheduler.take_window()
        assert [r.request_id for r in w3] == [4]  # oversized request goes alone
        w4, q4 = scheduler.take_window()
        assert [r.request_id for r in w4] == [5]
        assert [q1, q2, q3, q4] == [6, 3, 9, 1]  # each window's query count
        assert scheduler.take_window() == ([], 0)
        assert scheduler.pending_queries == 0

    def test_window_stats_after_whole_and_split_windows(self):
        keys = dense_shuffled_keys(512, seed=13)
        snapshot = EpochManager(build_index(keys)).current()
        scheduler = MicroBatchScheduler(max_batch=8, max_wait=0.0)

        def submit(sizes):
            for n in sizes:
                scheduler.submit(
                    ServeRequest(
                        request_id=scheduler.stats.requests + 1,
                        kind="point",
                        queries=keys[:n],
                    )
                )

        submit([2, 3])  # 5 queries: the whole queue fits one window
        assert len(launch_next_window(scheduler, snapshot, reason="wait")) == 2
        assert scheduler.stats.max_batch_queries == 5
        submit([4, 3, 3])  # 10 queries: max_batch splits off 4 + 3
        assert len(launch_next_window(scheduler, snapshot, reason="size")) == 2
        assert scheduler.stats.max_batch_queries == 7
        assert len(launch_next_window(scheduler, snapshot, reason="drain")) == 1
        assert scheduler.stats.max_batch_queries == 7
        assert launch_next_window(scheduler, snapshot, reason="drain") == []
        stats = scheduler.stats
        assert (stats.batches, stats.closed_by_wait, stats.closed_by_size) == (3, 1, 1)
        assert (stats.closed_by_drain, stats.closed_by_deadline) == (1, 0)

    def test_ready_by_size_and_wait(self):
        keys = dense_shuffled_keys(256, seed=12)
        scheduler = MicroBatchScheduler(max_batch=4, max_wait=0.5)
        assert not scheduler.ready(now=100.0)
        scheduler.submit(
            ServeRequest(request_id=1, kind="point", queries=keys[:1], arrival=1.0)
        )
        assert not scheduler.ready(now=1.2)
        assert scheduler.ready(now=1.5)  # wait deadline
        scheduler.submit(
            ServeRequest(request_id=2, kind="point", queries=keys[:3], arrival=1.1)
        )
        assert scheduler.ready(now=1.1)  # size bound reached

    def test_invalid_requests_rejected(self):
        with pytest.raises(ValueError, match="at least one query"):
            ServeRequest(request_id=1, kind="point", queries=np.empty(0, np.uint64))
        with pytest.raises(ValueError, match="unknown request kind"):
            ServeRequest(request_id=1, kind="scan", queries=np.array([1], np.uint64))
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatchScheduler(max_batch=0, max_wait=0.0)
        with pytest.raises(ValueError, match="max_wait"):
            MicroBatchScheduler(max_batch=1, max_wait=-1.0)


class TestLeanServeRecords:
    """What a served request costs in Python objects: one shared launch
    class per epoch for point requests, and slotted records."""

    def test_point_requests_share_the_epochs_launch_class(self):
        keys = dense_shuffled_keys(256, seed=15)
        snapshot = EpochManager(build_index(keys)).current()
        scheduler = MicroBatchScheduler(max_batch=64, max_wait=0.0)
        first, second = (
            ServeRequest(request_id=i, kind="point", queries=keys[i : i + 2])
            for i in (1, 2)
        )
        klass = scheduler.class_of(first, snapshot)
        assert klass is scheduler.class_of(second, snapshot)
        assert klass == LaunchClass(kind="point", mode="first_k", limit=1)

    @pytest.mark.parametrize("cache_capacity", [0, 64], ids=["cache-off", "cache-on"])
    def test_one_launch_class_per_live_request_per_flush(self, monkeypatch, cache_capacity):
        """A flush classes each live request once: the class that keys its
        cache entry also groups its launch, and a shed request is never
        classed."""
        keys = dense_shuffled_keys(512, seed=17)
        service = IndexService(
            build_index(keys), max_batch=1024, max_wait=0.1, cache_capacity=cache_capacity
        )
        calls = []
        class_of = MicroBatchScheduler.class_of

        def counted(scheduler, request, snapshot):
            calls.append(request.request_id)
            return class_of(scheduler, request, snapshot)

        monkeypatch.setattr(MicroBatchScheduler, "class_of", counted)

        def window(expired: bool):
            live = [
                service.submit_point(keys[i : i + 2], arrival=0.0) for i in (0, 4, 8, 0)
            ] + [
                service.submit_range(keys[:2], keys[:2] + np.uint64(40), arrival=0.0),
                service.submit_range(keys[2:3], keys[2:3] + np.uint64(9), limit=3, arrival=0.0),
                service.submit_range(keys[3:4], keys[3:4] + np.uint64(9), limit=2, order="key"),
            ]
            if expired:
                service.submit_point(keys[20:21], arrival=0.0, deadline=0.05)
            calls.clear()
            results = service.pump(now=1.0)
            assert len(results) == len(live) + expired
            return sorted(calls), sorted(r.request_id for r in live), results

        for expired in (False, True):  # the second window hits the cache when it is on
            classed, live, results = window(expired)
            assert classed == live
            assert all(not r.failed for r in results if r.request_id in live)
        assert service.stats()["cache"]["hits"] == (7 if cache_capacity else 0)

    def test_records_carry_no_attribute_dict(self):
        keys = dense_shuffled_keys(256, seed=16)
        snapshot = EpochManager(build_index(keys)).current()
        scheduler = MicroBatchScheduler(max_batch=64, max_wait=0.0)
        request = ServeRequest(request_id=1, kind="point", queries=keys[:3])
        scheduler.submit(request)
        (result,) = launch_next_window(scheduler, snapshot)
        for record in (request, result, result.hits, result.counters):
            assert not hasattr(record, "__dict__"), type(record).__name__


class TestEngineGroupValidation:
    def test_ray_groups_shape_mismatch(self):
        keys = dense_shuffled_keys(128, seed=13)
        index = build_index(keys)
        codec = index.codec
        rays = codec.point_ray_batch(keys[:4], index.config.point_ray_mode)
        with pytest.raises(ValueError, match="one group per ray"):
            index.pipeline.engine.trace(rays, ray_groups=np.zeros(3, np.int64))
        with pytest.raises(ValueError, match="non-negative"):
            index.pipeline.engine.trace(rays, ray_groups=np.full(4, -1, np.int64))

    def test_group_counters_reset_between_traces(self):
        keys = dense_shuffled_keys(128, seed=14)
        index = build_index(keys)
        engine = index.pipeline.engine
        rays = index.codec.point_ray_batch(keys[:4], index.config.point_ray_mode)
        engine.trace(rays, ray_groups=np.zeros(4, np.int64))
        assert engine.group_counters is not None
        assert len(engine.group_counters) == 1
        engine.trace(rays)
        assert engine.group_counters is None
