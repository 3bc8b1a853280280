"""IndexService driver: open-loop replay, stats, serving arguments."""

import numpy as np
import pytest

from repro.core.config import KeyMode, RangeRayMode, RXConfig
from repro.core.rx_index import RXIndex
from repro.serve import IndexService, RetryPolicy
from repro.workloads import dense_shuffled_keys, zipf_point_stream


def make_index(num_keys=2048, seed=41, **config_kwargs):
    index = RXIndex(RXConfig(**config_kwargs))
    index.build(dense_shuffled_keys(num_keys, seed=seed))
    return index


class TestOpenLoopReplay:
    def test_serves_every_request_once_with_latencies(self):
        index = make_index()
        service = IndexService(index, max_batch=64, max_wait=1e-3, cache_capacity=0)
        stream = zipf_point_stream(index.keys, 300, 0.9, rate=1e5, seed=42)
        report = service.replay(stream)
        assert report.num_requests == 300
        assert report.num_queries == 300
        assert sorted(r.request_id for r in report.results) == list(range(1, 301))
        assert (report.latencies >= 0.0).all()
        assert report.makespan >= report.latencies.max()
        percentiles = report.latency_percentiles()
        assert percentiles["p50"] <= percentiles["p95"] <= percentiles["p99"]
        assert report.makespan > 0
        assert service.stats()["scheduler"]["queries_per_launch"] > 1

    def test_results_match_plain_lookups(self):
        """End to end: replayed stream results equal RXIndex lookups."""
        index = make_index(seed=43)
        service = IndexService(index, max_batch=128, max_wait=1e-3, cache_capacity=64)
        stream = zipf_point_stream(
            index.keys, 200, 1.1, rate=1e6, queries_per_request=3, seed=44
        )
        report = service.replay(stream)
        in_order = sorted(report.results, key=lambda r: r.request_id)
        for entry, result in zip(stream.entries, in_order):
            reference = index.point_lookup(entry.queries)
            assert np.array_equal(result.result_rows(), reference.result_rows)
            assert result.aggregate(index.values) == reference.aggregate

    def test_coalesced_replay_serves_each_request_as_a_solo_replay(self):
        """One stream replayed coalesced and with ``max_batch=1``: every
        request gets the same rows, hit primitives and counters."""
        index = make_index(seed=56)
        stream = zipf_point_stream(index.keys, 256, 1.0, rate=1e9, seed=57)
        service = IndexService(index, max_batch=64, max_wait=1e-3, cache_capacity=0)
        coalesced = service.replay(stream)
        assert service.stats()["scheduler"]["queries_per_launch"] > 1
        solo = IndexService(index, max_batch=1, max_wait=1e-3, cache_capacity=0).replay(stream)
        solo_by_id = {r.request_id: r for r in solo.results}
        assert sorted(solo_by_id) == list(range(1, 257))
        assert len(coalesced.results) == 256
        for a in coalesced.results:
            b = solo_by_id[a.request_id]
            assert np.array_equal(a.result_rows(), b.result_rows())
            assert np.array_equal(a.hits.prim_indices, b.hits.prim_indices)
            assert a.counters.as_dict() == b.counters.as_dict()

    def test_slow_stream_closes_windows_by_wait(self):
        index = make_index(seed=45)
        service = IndexService(index, max_batch=10_000, max_wait=1e-4, cache_capacity=0)
        # 1k requests/second with a 0.1 ms wait bound: every request times
        # out alone before the next one arrives.
        stream = zipf_point_stream(
            index.keys, 20, 0.0, rate=1e3, seed=46, poisson=False
        )
        report = service.replay(stream)
        stats = service.stats()["scheduler"]
        assert stats["closed_by_wait"] == 20
        assert stats["closed_by_size"] == 0
        assert report.num_requests == 20

    def test_fast_stream_closes_windows_by_size(self):
        index = make_index(seed=47)
        service = IndexService(index, max_batch=32, max_wait=10.0, cache_capacity=0)
        stream = zipf_point_stream(index.keys, 128, 0.0, rate=1e9, seed=48)
        service.replay(stream)
        stats = service.stats()["scheduler"]
        assert stats["closed_by_size"] == 4
        assert stats["max_batch_queries"] == 32

    def test_max_batch_queries_after_whole_and_split_windows(self):
        index = make_index(seed=55)
        service = IndexService(index, max_batch=8, max_wait=10.0, cache_capacity=0)
        for n in (2, 3):  # 5 queries: the whole queue is one window
            service.submit_point(index.keys[:n], arrival=0.0)
        assert len(service.drain()) == 2
        assert service.stats()["scheduler"]["max_batch_queries"] == 5
        for n in (4, 3, 3):  # 10 queries: max_batch splits off 4 + 3
            service.submit_point(index.keys[:n], arrival=0.0)
        assert len(service.drain()) == 3
        stats = service.stats()["scheduler"]
        assert stats["max_batch_queries"] == 7
        assert (stats["batches"], stats["closed_by_drain"]) == (3, 3)

    def test_pump_flushes_due_windows_only(self):
        """pump() is the interactive flush entry point: it honours both the
        size and the wait trigger relative to the caller's clock."""
        index = make_index(seed=44)
        service = IndexService(index, max_batch=4, max_wait=1.0, cache_capacity=0)
        service.submit_point(index.keys[:2], arrival=0.0)
        assert service.pump(now=0.5) == []  # neither trigger due yet
        results = service.pump(now=1.5)  # wait deadline passed
        assert [r.request_id for r in results] == [1]
        assert service.stats()["scheduler"]["closed_by_wait"] == 1
        for arrival in (2.0, 2.1):
            service.submit_point(index.keys[:2], arrival=arrival)
        results = service.pump(now=2.1)  # 4 pending queries: size trigger
        assert len(results) == 2
        assert service.stats()["scheduler"]["closed_by_size"] == 1
        assert not service.scheduler.pending

    def test_replay_requires_idle_service(self):
        index = make_index(seed=49)
        service = IndexService(index, max_batch=8, max_wait=1.0, cache_capacity=0)
        service.submit_point(index.keys[:2], arrival=0.0)
        stream = zipf_point_stream(index.keys, 4, 0.0, rate=1e3, seed=50)
        with pytest.raises(RuntimeError, match="idle"):
            service.replay(stream)


class TestMixedStreams:
    def test_point_and_range_streams_share_a_service(self):
        index = make_index(seed=57)
        service = IndexService(index, max_batch=256, max_wait=10.0, cache_capacity=0)
        points = zipf_point_stream(index.keys, 40, 0.8, rate=1e6, seed=58)
        lowers = np.random.default_rng(59).choice(index.keys, size=(30, 1))
        for entry in points.entries:
            entry.submit(service, entry.arrival)
        for i, lower in enumerate(lowers):
            service.submit_range(lower, lower + np.uint64(15), limit=4, arrival=i * 1e-6)
        results = service.drain()
        assert len(results) == 70
        by_id = sorted(results, key=lambda r: r.request_id)
        references = [index.point_lookup(entry.queries) for entry in points.entries] + [
            index.range_lookup(lower, lower + np.uint64(15), limit=4) for lower in lowers
        ]
        for reference, result in zip(references, by_id):
            assert np.array_equal(result.result_rows(), reference.result_rows)


class TestStreamGenerators:
    def test_streams_are_deterministic(self):
        keys = dense_shuffled_keys(512, seed=61)
        a = zipf_point_stream(keys, 50, 1.0, rate=1e4, seed=62)
        b = zipf_point_stream(keys, 50, 1.0, rate=1e4, seed=62)
        assert len(a) == len(b) == 50
        for x, y in zip(a.entries, b.entries):
            assert x.arrival == y.arrival
            assert np.array_equal(x.queries, y.queries)

    def test_arrivals_are_monotone_and_rate_scaled(self):
        keys = dense_shuffled_keys(512, seed=63)
        stream = zipf_point_stream(keys, 100, 0.0, rate=1e3, seed=64)
        arrivals = np.array([e.arrival for e in stream.entries])
        assert (np.diff(arrivals) >= 0).all()
        # ~100 Poisson arrivals at 1k/s span roughly 0.1 s.
        assert 0.01 < arrivals[-1] < 1.0

    def test_zipf_skew_concentrates_queries(self):
        keys = dense_shuffled_keys(512, seed=65)
        skewed = zipf_point_stream(keys, 400, 2.0, rate=1e4, seed=66)
        uniform = zipf_point_stream(keys, 400, 0.0, rate=1e4, seed=66)
        def distinct(stream):
            return np.unique(np.concatenate([e.queries for e in stream.entries])).size
        assert distinct(skewed) < distinct(uniform) / 2

    def test_generator_validation(self):
        keys = dense_shuffled_keys(64, seed=69)
        with pytest.raises(ValueError, match="rate"):
            zipf_point_stream(keys, 4, 0.0, rate=0.0)
        with pytest.raises(ValueError, match="queries_per_request"):
            zipf_point_stream(keys, 4, 0.0, rate=1.0, queries_per_request=0)


class TestStatsAndKnobs:
    def test_index_stats_summary(self):
        index = RXIndex(RXConfig.paper_default().with_delta_updates(shard_bits=4))
        index.build(dense_shuffled_keys(1024, seed=71))
        stats = index.stats()
        assert stats["num_keys"] == 1024
        assert stats["epoch"] == 0
        assert stats["shard_bits"] == 4
        assert stats["shard_count"] >= 1
        assert stats["memory_final_bytes"] > 0
        assert stats["trace_counters"]["rays"] == 0
        index.point_lookup(index.keys[:16])
        assert index.stats()["trace_counters"]["rays"] == 16
        index.update(index.keys[::-1].copy())
        assert index.stats()["epoch"] == 1

    def test_stats_requires_built_index(self):
        with pytest.raises(RuntimeError, match="build"):
            RXIndex(RXConfig.paper_default()).stats()

    def test_service_defaults_are_the_documented_constants(self):
        service = IndexService(make_index(num_keys=256, seed=72))
        assert service.scheduler.max_batch == 4096
        assert service.scheduler.max_wait == 1e-3
        assert service.cache.capacity == 4096
        assert service.deadline is None
        assert service.max_queue is None
        retry = service.retry
        assert (
            retry.max_retries,
            retry.backoff_base,
            retry.backoff_factor,
            retry.jitter,
        ) == (3, 1e-3, 2.0, 0.1)

    def test_stats_report_the_arguments_given(self):
        service = IndexService(
            make_index(num_keys=256, seed=72),
            max_batch=7,
            max_wait=0.25,
            cache_capacity=3,
            deadline=0.5,
            max_queue=64,
            retry=RetryPolicy(max_retries=1),
        )
        assert service.stats()["serve_knobs"] == {
            "max_batch": 7,
            "max_wait": 0.25,
            "cache_capacity": 3,
            "deadline": 0.5,
            "max_queue": 64,
            "retry_max": 1,
        }


class TestServeArgumentValidation:
    @pytest.fixture(scope="class")
    def index(self):
        return make_index(num_keys=256, seed=73)

    @pytest.mark.parametrize(
        "argument, value, message",
        [
            ("deadline", 0.0, "deadline"),
            ("deadline", -1.0, "deadline"),
            ("deadline", float("nan"), "deadline"),
            ("deadline", float("inf"), "deadline"),
            ("max_wait", float("nan"), "max_wait"),
            ("max_wait", -1.0, "max_wait"),
            ("max_queue", 0, "max_queue"),
            ("max_queue", -5, "max_queue"),
            ("max_batch", 0, "max_batch"),
            ("cache_capacity", -1, "capacity"),
        ],
    )
    def test_bad_argument_raises_naming_it(self, index, argument, value, message):
        with pytest.raises(ValueError, match=message):
            IndexService(index, **{argument: value})


#: inputs that a uint64 cast would silently turn into other keys: 1.5 into
#: 1, -1 into 2^64 - 1, True into 1 and "1" into 1
CAST_CHANGED_KEYS = {"float": [1.5], "negative": [-1], "bool": [True], "string": ["1"]}


class TestMalformedRequestsRejectedAtSubmit:
    """A request the coalesced launch would refuse is refused at submit, so
    it can never fail the other requests of its window."""

    @staticmethod
    def make_service(key_mode):
        config = RXConfig(key_mode=key_mode)
        if key_mode is KeyMode.EXTENDED:  # Extended Mode rays start at zero
            config = RXConfig(
                key_mode=key_mode, range_ray_mode=RangeRayMode.PARALLEL_FROM_ZERO
            )
        index = RXIndex(config)
        index.build(dense_shuffled_keys(256, seed=5))
        return IndexService(index, max_batch=64, max_wait=10.0)

    @pytest.mark.parametrize(
        "key_mode, submit, message",
        [
            (
                KeyMode.NAIVE,
                lambda s: s.submit_point(np.array([2**23], dtype=np.uint64)),
                "queries holds 8388608",
            ),
            (
                KeyMode.EXTENDED,
                lambda s: s.submit_range(
                    np.array([0], dtype=np.uint64), np.array([2**29], dtype=np.uint64)
                ),
                "uppers holds 536870912",
            ),
            (
                KeyMode.THREE_D,
                lambda s: s.submit_point(np.ones((2, 2), dtype=np.uint64)),
                r"shape \(2, 2\)",
            ),
            (
                KeyMode.THREE_D,
                lambda s: s.submit_range(
                    np.ones((2, 1), dtype=np.uint64), np.full((2, 1), 5, dtype=np.uint64)
                ),
                r"shapes \(2, 1\) and \(2, 1\)",
            ),
            (
                KeyMode.THREE_D,
                lambda s: s.submit_range(
                    np.array([5], dtype=np.uint64), np.array([3], dtype=np.uint64)
                ),
                "upper >= lower",
            ),
        ]
        + [
            (KeyMode.THREE_D, submit, f"^{name} must hold non-negative integers")
            for bad in CAST_CHANGED_KEYS.values()
            for submit, name in [
                (lambda s, bad=bad: s.submit_point(bad), "queries"),
                (lambda s, bad=bad: s.submit_range(bad, np.array([5], dtype=np.uint64)), "lowers"),
                (lambda s, bad=bad: s.submit_range(np.array([0], dtype=np.uint64), bad), "uppers"),
            ]
        ],
        ids=[
            "naive-point-past-max-key",
            "extended-range-past-max-key",
            "point-2d",
            "range-2d",
            "3d-range-upper-below-lower",
        ]
        + [f"{kind}-{arg}" for kind in CAST_CHANGED_KEYS for arg in ("queries", "lowers", "uppers")],
    )
    def test_rejected_at_submit_and_the_window_is_still_served(
        self, key_mode, submit, message
    ):
        service = self.make_service(key_mode)
        good = service.submit_point(service.index.keys[:1])
        admitted = service.serve_stats.admitted
        pending = [r.request_id for r in service.scheduler.pending]
        with pytest.raises(ValueError, match=message):
            submit(service)
        assert service.serve_stats.admitted == admitted
        assert [r.request_id for r in service.scheduler.pending] == pending
        assert service.scheduler.pending_queries == 1
        (result,) = service.drain()
        assert result.request_id == good.request_id
        assert not result.failed
        assert result.result_rows().tolist() == [0]

    @pytest.mark.parametrize(
        "form", [lambda v: np.array(v, dtype=np.int64), list], ids=["int64", "int-list"]
    )
    def test_non_negative_integers_answer_as_their_uint64_keys(self, form):
        service = self.make_service(KeyMode.THREE_D)
        index = service.index
        queries, lowers = index.keys[:3], index.keys[3:5]
        uppers = lowers + np.uint64(8)
        point = service.submit_point(form(queries.tolist()))
        ranged = service.submit_range(form(lowers.tolist()), form(uppers.tolist()), limit=4)
        # Queued as uint64, so the window coalesces them with uint64 requests.
        assert (point.queries.dtype, ranged.lowers.dtype, ranged.uppers.dtype) == (np.uint64,) * 3
        rows = {r.request_id: r.result_rows().tolist() for r in service.drain()}
        assert rows[point.request_id] == index.point_lookup(queries).result_rows.tolist()
        assert (
            rows[ranged.request_id]
            == index.range_lookup(lowers, uppers, limit=4).result_rows.tolist()
        )
