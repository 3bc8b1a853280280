"""Fault-tolerant serving under the deterministic fault injector.

Acceptance property: under a seeded fault schedule injecting launch
failures, launch latency, cache faults and update-swap failures, every
*successful* request's hits stay bit-identical to a clean solo launch
against the epoch that served it, and every rejected/timed-out request gets
an explicit error result — no silent drops, no hangs.

``FAULT_SEED`` (env var, default 0) reseeds the probabilistic schedules the
same way ``DIFF_SEED`` reseeds the differential harness, so CI exercises
the suite under several fault patterns.
"""

import os

import numpy as np
import pytest

from repro.core.config import RXConfig
from repro.core.rx_index import RXIndex
from repro.serve import (
    FaultInjector,
    FaultSpec,
    IndexService,
    InjectedFault,
    RequestFailure,
    RequestResult,
    RetryPolicy,
    UpdateFailed,
)
from repro.workloads import dense_shuffled_keys
from repro.workloads.streams import zipf_point_stream

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))


def delta_config():
    return RXConfig.paper_default().with_delta_updates(shard_bits=4)


def build_service(keys, injector=None, **kwargs):
    index = RXIndex(delta_config())
    index.build(keys)
    return IndexService(index, fault_injector=injector, **kwargs)


def shifted(keys, lo, hi):
    out = keys.copy()
    out[lo:hi] = out[lo:hi][::-1]
    return out


def account_everything(stream, report):
    """Every submitted request appears in exactly one of results/errors."""
    served = [r.request_id for r in report.results]
    failed = [f.request_id for f in report.errors]
    all_ids = sorted(served + failed)
    assert all_ids == list(range(1, len(stream) + 1))
    assert len(set(served) & set(failed)) == 0
    for failure in report.errors:
        assert isinstance(failure, RequestFailure)
        assert failure.reason in {
            "rejected",
            "rejected_deadline",
            "timeout",
            "launch_failed",
            "epoch_retired",
        }


def assert_failure_interface(failure):
    """What a load generator reads off an explicit failure: it failed, and
    its latency runs from arrival to completion."""
    assert failure.failed is True
    assert failure.latency == failure.completion - failure.arrival >= 0.0


class TestFaultInjector:
    def test_schedule_fires_exactly_at_indices(self):
        injector = FaultInjector(seed=FAULT_SEED, specs={
            "launch": FaultSpec(at={1, 3}),
        })
        pattern = [injector.fires("launch") for _ in range(5)]
        assert pattern == [False, True, False, True, False]
        assert injector.fired["launch"] == 2
        assert injector.occurrences["launch"] == 5

    def test_probability_pattern_is_seed_deterministic(self):
        def pattern(seed):
            injector = FaultInjector(seed=seed, specs={
                "cache": FaultSpec(probability=0.5),
            })
            return [injector.fires("cache") for _ in range(64)]

        assert pattern(FAULT_SEED) == pattern(FAULT_SEED)
        assert any(pattern(FAULT_SEED))
        assert not all(pattern(FAULT_SEED))

    def test_sites_draw_independent_streams(self):
        """Consulting other sites never shifts a site's fire pattern."""
        solo = FaultInjector(seed=FAULT_SEED, specs={
            "launch": FaultSpec(probability=0.4),
        })
        mixed = FaultInjector(seed=FAULT_SEED, specs={
            "launch": FaultSpec(probability=0.4),
            "cache": FaultSpec(probability=0.7),
        })
        solo_pattern = [solo.fires("launch") for _ in range(32)]
        mixed_pattern = []
        for _ in range(32):
            mixed.fires("cache")  # interleaved consults of another site
            mixed_pattern.append(mixed.fires("launch"))
        assert solo_pattern == mixed_pattern

    def test_check_raises_with_site_and_occurrence(self):
        injector = FaultInjector(specs={"update": FaultSpec(at={0})})
        with pytest.raises(InjectedFault) as err:
            injector.check("update")
        assert err.value.site == "update"
        assert err.value.occurrence == 0
        injector.check("update")  # occurrence 1 does not fire

    def test_latency_accumulates_only_when_fired(self):
        injector = FaultInjector(specs={
            "launch_latency": FaultSpec(at={1}, latency=0.25),
        })
        assert injector.latency() == 0.0
        assert injector.latency() == 0.25
        assert injector.injected_latency_seconds == 0.25

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultInjector(specs={"gpu_meltdown": FaultSpec(probability=1.0)})

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(probability=1.5)
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(probability=float("nan"))
        with pytest.raises(ValueError, match="latency"):
            FaultSpec(latency=-1.0)


class TestRetryPolicy:
    def test_delay_grows_exponentially_without_jitter(self):
        policy = RetryPolicy(backoff_base=1e-3, backoff_factor=2.0, jitter=0.0)
        assert policy.delay(0) == 1e-3
        assert policy.delay(1) == 2e-3
        assert policy.delay(2) == 4e-3

    def test_jitter_bounded_above_base(self):
        policy = RetryPolicy(
            backoff_base=1e-3, backoff_factor=2.0, jitter=0.5, seed=FAULT_SEED
        )
        for attempt in range(8):
            base = 1e-3 * 2.0**attempt
            assert base <= policy.delay(attempt) <= base * 1.5

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=float("nan"))
        with pytest.raises(ValueError, match="backoff_base"):
            RetryPolicy(backoff_base=-1e-3)
        with pytest.raises(ValueError, match="backoff_base"):
            RetryPolicy(backoff_base=float("nan"))
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=float("nan"))


class TestLaunchRetry:
    def test_retried_launch_is_bit_identical_to_clean_run(self):
        keys = dense_shuffled_keys(1024, seed=31)
        queries = keys[:64]
        reference = RXIndex(delta_config())
        reference.build(keys)
        expected = reference.point_lookup(queries)

        injector = FaultInjector(seed=FAULT_SEED, specs={
            "launch": FaultSpec(at={0, 1}),  # first two attempts fail
        })
        service = build_service(keys, injector, cache_capacity=0)
        service.submit_point(queries, arrival=0.0)
        (result,) = service.drain()
        assert isinstance(result, RequestResult)
        assert np.array_equal(result.result_rows(), expected.result_rows)
        assert np.array_equal(result.hits_per_lookup(), expected.hits_per_lookup)
        resilience = service.stats()["resilience"]
        assert resilience["retries"] == 2
        assert resilience["launch_failures"] == 0
        assert resilience["backoff_seconds"] > 0.0

    def test_exhausted_retries_fail_every_request_explicitly(self):
        keys = dense_shuffled_keys(512, seed=32)
        # Fail occurrences 0..3: initial attempt + 3 retries all fault, the
        # next window's launch (occurrence 4) succeeds.
        injector = FaultInjector(seed=FAULT_SEED, specs={
            "launch": FaultSpec(at={0, 1, 2, 3}),
        })
        service = build_service(
            keys,
            injector,
            cache_capacity=0,
            retry=RetryPolicy(max_retries=3, jitter=0.0),
        )
        service.submit_point(keys[:4], arrival=0.0)
        service.submit_point(keys[4:8], arrival=0.0)
        failures = service.drain()
        assert len(failures) == 2
        for failure in failures:
            assert isinstance(failure, RequestFailure)
            assert failure.reason == "launch_failed"
            assert_failure_interface(failure)
        resilience = service.stats()["resilience"]
        assert resilience["launch_failures"] == 2
        assert resilience["retries"] == 3

        # The service recovers: the next window serves normally.
        service.submit_point(keys[:4], arrival=1.0)
        (result,) = service.drain()
        assert isinstance(result, RequestResult)
        assert result.failed is False

    def test_snapshot_pins_released_after_launch_failure(self):
        keys = dense_shuffled_keys(512, seed=33)
        injector = FaultInjector(specs={"launch": FaultSpec(probability=1.0)})
        service = build_service(
            keys, injector, cache_capacity=0, retry=RetryPolicy(max_retries=0)
        )
        snapshot = service.epochs.current()
        service.submit_point(keys[:4], arrival=0.0)
        service.drain()
        assert snapshot.pins == 0

    def test_retry_disabled_fails_on_first_fault(self):
        keys = dense_shuffled_keys(512, seed=34)
        injector = FaultInjector(specs={"launch": FaultSpec(at={0})})
        service = build_service(
            keys, injector, cache_capacity=0, retry=RetryPolicy(max_retries=0)
        )
        service.submit_point(keys[:4], arrival=0.0)
        (failure,) = service.drain()
        assert failure.reason == "launch_failed"
        assert service.stats()["resilience"]["retries"] == 0


class TestLatencyInjection:
    def test_injected_stall_counts_as_service_time(self):
        keys = dense_shuffled_keys(512, seed=35)
        injector = FaultInjector(specs={
            "launch_latency": FaultSpec(at={0}, latency=0.05),
        })
        service = build_service(keys, injector, cache_capacity=0)
        stream = zipf_point_stream(keys, 8, 0.0, rate=1000.0, seed=FAULT_SEED)
        report = service.replay(stream)
        assert injector.fired["launch_latency"] == 1
        assert injector.injected_latency_seconds == pytest.approx(0.05)
        assert report.service_seconds >= 0.05
        account_everything(stream, report)


class TestCacheFaults:
    def test_cache_unavailable_degrades_to_bypass(self):
        keys = dense_shuffled_keys(1024, seed=36)
        queries = keys[:16]
        reference = RXIndex(delta_config())
        reference.build(keys)
        expected = reference.point_lookup(queries)

        injector = FaultInjector(seed=FAULT_SEED, specs={
            "cache": FaultSpec(at={1}),  # second cache probe faults
        })
        service = build_service(keys, injector, cache_capacity=64)
        for arrival in (0.0, 1.0, 2.0):
            service.submit_point(queries, arrival=arrival)
            (result,) = service.drain()
            assert isinstance(result, RequestResult)
            assert np.array_equal(result.result_rows(), expected.result_rows)
        resilience = service.stats()["resilience"]
        assert resilience["degraded_flushes"] == 1
        # Flush 1: miss+insert. Flush 2: bypassed. Flush 3: hit again.
        assert service.cache.stats.hits >= 1

    def test_corrupt_cache_entry_detected_and_relaunched(self):
        keys = dense_shuffled_keys(1024, seed=37)
        queries = keys[:16]
        reference = RXIndex(delta_config())
        reference.build(keys)
        expected = reference.point_lookup(queries)

        injector = FaultInjector(seed=FAULT_SEED, specs={
            # Corruption consults fire only on cache *hits*; the first hit
            # is the second probe.
            "cache_corrupt": FaultSpec(at={0}),
        })
        service = build_service(keys, injector, cache_capacity=64)
        for arrival in (0.0, 1.0, 2.0):
            service.submit_point(queries, arrival=arrival)
            (result,) = service.drain()
            assert isinstance(result, RequestResult)
            assert result.epoch == service.index.epoch
            assert np.array_equal(result.result_rows(), expected.result_rows)
        resilience = service.stats()["resilience"]
        assert resilience["cache_corruptions_detected"] == 1


class TestDeadlines:
    @staticmethod
    def submit(service, keys, kind, deadline):
        if kind == "point":
            return service.submit_point(keys[:4], arrival=1.0, deadline=deadline)
        return service.submit_range(keys[:4], keys[:4], arrival=1.0, deadline=deadline)

    @pytest.mark.parametrize("kind", ["point", "range"])
    @pytest.mark.parametrize("deadline", [0.0, -1.0])
    def test_infeasible_deadline_rejected_up_front(self, kind, deadline):
        keys = dense_shuffled_keys(512, seed=38)
        service = build_service(keys, cache_capacity=0)
        outcome = self.submit(service, keys, kind, deadline)
        assert isinstance(outcome, RequestFailure)
        assert outcome.reason == "rejected_deadline"
        assert_failure_interface(outcome)
        assert not service.scheduler.pending
        assert service.stats()["resilience"]["rejections_deadline"] == 1

    @pytest.mark.parametrize("kind", ["point", "range"])
    @pytest.mark.parametrize("deadline", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_deadline_raises_before_queueing(self, kind, deadline):
        # A NaN deadline never fires and, left in the queue, would hide the
        # tighter deadlines behind it from deadline-aware flushing.
        keys = dense_shuffled_keys(512, seed=38)
        service = build_service(keys, cache_capacity=0)
        with pytest.raises(ValueError, match="deadline"):
            self.submit(service, keys, kind, deadline)
        assert not service.scheduler.pending
        assert service.stats()["resilience"]["admitted"] == 0

    def test_tight_deadlines_time_out_explicitly(self):
        """Unmeetable (but feasible-looking) deadlines produce explicit
        timeout results for every request — nothing is dropped."""
        keys = dense_shuffled_keys(1024, seed=39)
        service = build_service(keys, cache_capacity=0, deadline=1e-9)
        stream = zipf_point_stream(keys, 32, 0.5, rate=1000.0, seed=FAULT_SEED)
        report = service.replay(stream)
        account_everything(stream, report)
        assert len(report.results) == 0
        assert all(f.reason == "timeout" for f in report.errors)
        for failure in report.errors:
            assert_failure_interface(failure)
        assert service.stats()["resilience"]["timeouts"] >= 32

    def test_deadline_forces_early_window_close(self):
        """A pending deadline tighter than max_wait closes the window early
        (reason "deadline"), and the request completes in time."""
        keys = dense_shuffled_keys(1024, seed=40)
        service = build_service(keys, cache_capacity=0, max_wait=10.0)
        service.submit_point(keys[:4], arrival=0.0, deadline=0.5)
        results = service.pump(now=0.4999)
        assert results == []  # not due yet (headroom is still zero)
        results = service.pump(now=0.5)
        assert len(results) == 1
        assert isinstance(results[0], RequestResult)
        assert service.scheduler.stats.closed_by_deadline == 1

    def test_expired_requests_shed_before_launch(self):
        keys = dense_shuffled_keys(1024, seed=41)
        service = build_service(keys, cache_capacity=0, max_wait=10.0)
        service.submit_point(keys[:4], arrival=0.0, deadline=0.5)
        service.submit_point(keys[4:8], arrival=0.0)  # no deadline
        results = service.pump(now=2.0)  # way past the first deadline
        kinds = {type(r) for r in results}
        assert kinds == {RequestFailure, RequestResult}
        failure = next(r for r in results if isinstance(r, RequestFailure))
        assert failure.reason == "timeout"
        assert_failure_interface(failure)
        assert next(r for r in results if isinstance(r, RequestResult)).failed is False
        assert service.stats()["resilience"]["expired_shed"] == 1


class TestAdmissionControl:
    def test_queue_bound_sheds_with_retry_after(self):
        keys = dense_shuffled_keys(512, seed=42)
        service = build_service(
            keys, cache_capacity=0, max_batch=4096, max_wait=1.0, max_queue=8
        )
        admitted, rejected = [], []
        for i in range(6):
            outcome = service.submit_point(keys[4 * i : 4 * i + 4], arrival=0.0)
            (rejected if isinstance(outcome, RequestFailure) else admitted).append(
                outcome
            )
        assert len(admitted) == 2  # 8 queries fit the bound
        assert len(rejected) == 4
        for failure in rejected:
            assert failure.reason == "rejected"
            assert_failure_interface(failure)
            assert failure.retry_after is not None
            assert 0.0 <= failure.retry_after <= 1.0
        resilience = service.stats()["resilience"]
        assert resilience["rejections_queue"] == 4
        assert resilience["admitted"] == 2
        # The queue drains and admits again.
        assert [r.failed for r in service.drain()] == [False, False]
        assert not isinstance(
            service.submit_point(keys[:4], arrival=2.0), RequestFailure
        )

    def test_replay_reports_rejections(self):
        keys = dense_shuffled_keys(1024, seed=43)
        service = build_service(
            keys, cache_capacity=0, max_batch=4096, max_wait=0.05, max_queue=4
        )
        # A burst far above the queue bound: most requests shed.
        stream = zipf_point_stream(keys, 64, 0.0, rate=1e6, seed=FAULT_SEED)
        report = service.replay(stream)
        account_everything(stream, report)
        assert any(f.reason == "rejected" for f in report.errors)
        assert len(report.results) >= 1
        assert report.error_rate > 0.0


class TestUpdateRollback:
    def test_failed_swap_rolls_back_to_previous_content(self):
        keys0 = dense_shuffled_keys(1024, seed=44)
        keys1 = shifted(keys0, 0, 400)
        queries = keys0[:32]
        reference = RXIndex(delta_config())
        reference.build(keys0)
        expected = reference.point_lookup(queries)

        injector = FaultInjector(specs={"update": FaultSpec(at={0})})
        service = build_service(keys0, injector, cache_capacity=0)
        outcome = service.update(keys1)
        assert isinstance(outcome, UpdateFailed)
        assert outcome.rolled_back
        # Failed swap + rollback: the epoch advanced twice, content is old.
        assert service.index.epoch == 2
        assert np.array_equal(service.index.keys, keys0)

        service.submit_point(queries, arrival=0.0)
        (result,) = service.drain()
        assert result.epoch == 2
        assert np.array_equal(result.result_rows(), expected.result_rows)
        resilience = service.stats()["resilience"]
        assert resilience["updates_failed"] == 1
        assert resilience["updates_rolled_back"] == 1

    def test_second_update_succeeds_after_rollback(self):
        keys0 = dense_shuffled_keys(512, seed=45)
        keys1 = shifted(keys0, 0, 256)
        injector = FaultInjector(specs={"update": FaultSpec(at={0})})
        service = build_service(keys0, injector, cache_capacity=0)
        assert isinstance(service.update(keys1), UpdateFailed)
        assert not isinstance(service.update(keys1), UpdateFailed)
        assert np.array_equal(service.index.keys, keys1)


class TestPaginationUnderFaults:
    def test_mid_pagination_launch_fault_retries_without_skipping_a_page(self):
        """A launch fault hitting a resumed page mid-scan must be retried
        idempotently: the retry re-launches the identical rays and cursor
        filter against the pinned snapshot, so the drained scan is still
        bit-identical to the clean golden order — no page skipped, none
        served twice."""
        keys = dense_shuffled_keys(2048, seed=48)
        sel = (keys >= np.uint64(100)) & (keys <= np.uint64(900))
        rows = np.nonzero(sel)[0].astype(np.uint64)
        golden = rows[np.lexsort((rows, keys[sel]))]

        injector = FaultInjector(seed=FAULT_SEED, specs={
            # Occurrences 3 and 4: the 4th page's launch faults twice before
            # its retry succeeds — squarely mid-pagination.
            "launch": FaultSpec(at={3, 4}),
        })
        service = build_service(
            keys, injector, cache_capacity=0, retry=RetryPolicy(max_retries=3)
        )
        pages, cursor, pin = [], None, None
        for _ in range(10_000):
            outcome = service.submit_range(
                np.array([100], dtype=np.uint64),
                np.array([900], dtype=np.uint64),
                limit=64,
                order="key",
                cursor=cursor,
                pin_epoch=pin,
                arrival=float(len(pages)),
            )
            assert not isinstance(outcome, RequestFailure)
            (result,) = service.drain()
            assert isinstance(result, RequestResult), result
            pin = result.epoch if pin is None else pin
            pages.append(result.hits.prim_indices.astype(np.uint64))
            cursor = result.next_cursor
            if cursor is None:
                break
        assert injector.fired["launch"] == 2
        assert service.stats()["resilience"]["retries"] == 2
        flat = np.concatenate(pages)
        assert np.array_equal(flat, golden)  # no skips, no re-emits
        assert all(p.shape[0] == 64 for p in pages[:-1])


class TestEndToEndChaos:
    def test_chaos_stream_serves_bit_identically_per_epoch(self):
        """The acceptance property: >= 4 distinct fault types fire during a
        replayed Zipf stream with mid-stream updates; every success matches
        the reference for the epoch that served it; every request gets
        exactly one explicit outcome."""
        keys0 = dense_shuffled_keys(2048, seed=46)
        keys1 = shifted(keys0, 0, 700)
        keys2 = shifted(keys1, 500, 1500)
        injector = FaultInjector(seed=FAULT_SEED, specs={
            "launch": FaultSpec(probability=0.05, at={1}),
            "launch_latency": FaultSpec(probability=0.05, at={3}, latency=1e-4),
            "cache": FaultSpec(probability=0.05, at={2}),
            "cache_corrupt": FaultSpec(probability=0.1, at={0}),
            "update": FaultSpec(at={0}),
        })
        service = build_service(
            keys0,
            injector,
            cache_capacity=256,
            max_batch=64,
            max_wait=2e-3,
            deadline=0.5,
            max_queue=512,
            retry=RetryPolicy(max_retries=2, jitter=0.0),
        )
        stream = zipf_point_stream(
            keys0, 256, 1.0, rate=5000.0, queries_per_request=2, seed=FAULT_SEED
        )
        arrivals = [e.arrival for e in stream.entries]
        updates = [
            (arrivals[len(arrivals) // 3], keys1),
            (arrivals[2 * len(arrivals) // 3], keys2),
        ]
        report = service.replay(stream, updates=updates)
        account_everything(stream, report)

        # At least 4 distinct fault types actually fired.
        fired = {site for site, n in injector.fired.items() if n > 0}
        assert {"launch", "launch_latency", "cache", "update"} <= fired

        # Reconstruct each epoch's key column from the update log.
        columns = {0: keys0}
        content = keys0
        for entry, new_keys in zip(report.updates, [keys1, keys2]):
            if entry["failed"]:
                columns[entry["epoch"] - 1] = new_keys  # never serves
                columns[entry["epoch"]] = content
            else:
                content = new_keys
                columns[entry["epoch"]] = content
        references = {}
        violations = 0
        for result in report.results:
            assert result.epoch in columns, "served by an unknown epoch"
            if result.epoch not in references:
                ref = RXIndex(delta_config())
                ref.build(columns[result.epoch])
                references[result.epoch] = ref
            queries = stream.entries[result.request_id - 1].queries
            expected = references[result.epoch].point_lookup(queries)
            if not (
                np.array_equal(result.result_rows(), expected.result_rows)
                and np.array_equal(
                    result.hits_per_lookup(), expected.hits_per_lookup
                )
            ):
                violations += 1
        assert violations == 0
        assert len(report.results) > 0
        assert report.goodput_rps > 0.0

    def test_exhausted_retries_and_a_stall_fail_explicitly(self):
        """One replay with two mid-stream updates, where one launch exhausts
        its retries and one window stalls past its requests' deadline: both
        surface as explicit errors, ``launch_failed`` and ``timeout``."""
        keys0 = dense_shuffled_keys(2048, seed=47)
        keys1 = shifted(keys0, 0, 700)
        keys2 = shifted(keys1, 500, 1500)
        deadline = 0.05
        injector = FaultInjector(seed=FAULT_SEED, specs={
            # Any three failures in a row exhaust a launch's two retries.
            "launch": FaultSpec(probability=0.02, at={1, 2, 3}),
            "launch_latency": FaultSpec(at={2}, latency=1.5 * deadline),
        })
        service = build_service(
            keys0,
            injector,
            cache_capacity=0,
            max_batch=64,
            max_wait=2e-3,
            deadline=deadline,
            max_queue=512,
            retry=RetryPolicy(max_retries=2, jitter=0.0),
        )
        stream = zipf_point_stream(keys0, 256, 1.0, rate=5000.0, seed=FAULT_SEED)
        arrivals = [e.arrival for e in stream.entries]
        updates = [
            (arrivals[len(arrivals) // 3], keys1),
            (arrivals[2 * len(arrivals) // 3], keys2),
        ]
        report = service.replay(stream, updates=updates)
        account_everything(stream, report)
        assert len(report.updates) == 2
        assert {"launch_failed", "timeout"} <= set(report.errors_by_reason())
