"""Cursor pagination through the serving layer.

Three properties on top of the index-level pagination suite:

1. **Cache keying** — ordered pages are cached per ``(epoch, class,
   cursor)``: the same page served twice is a cache hit with identical
   rows and next_cursor, while a different cursor (or a new epoch) is a
   distinct entry and never aliases another page's rows.
2. **Epoch pinning** — a DELTA_SHARD update landing mid-pagination must
   never let a resumed page read the new epoch: pages that pin the epoch
   their scan started on fail explicitly with ``"epoch_retired"`` once that
   epoch is superseded, forcing the client to restart the scan rather than
   silently mixing two epochs' rows.
3. **Coalescing** — pages of distinct concurrent scans land in the same
   ``("range", "ordered_k", k)`` launch class and are answered by one
   micro-batched launch, each request demuxing its own ordered page.
"""

import numpy as np
import pytest

from repro.core.config import RXConfig
from repro.core.rx_index import RXIndex
from repro.serve import IndexService, RequestFailure, RequestResult
from repro.workloads import dense_shuffled_keys


def delta_config():
    return RXConfig.paper_default().with_delta_updates(shard_bits=4)


def build_service(keys, **kwargs):
    index = RXIndex(delta_config())
    index.build(keys)
    return IndexService(index, **kwargs)


def golden_scan(keys, lower, upper):
    sel = (keys >= np.uint64(lower)) & (keys <= np.uint64(upper))
    rows = np.nonzero(sel)[0].astype(np.uint64)
    return rows[np.lexsort((rows, keys[sel]))]


def submit_page(service, lower, upper, k, cursor=None, pin_epoch=None, arrival=0.0):
    outcome = service.submit_range(
        np.array([lower], dtype=np.uint64),
        np.array([upper], dtype=np.uint64),
        limit=k,
        order="key",
        cursor=cursor,
        pin_epoch=pin_epoch,
        arrival=arrival,
    )
    assert not isinstance(outcome, RequestFailure), outcome
    return outcome


def drain_one(service):
    (result,) = service.drain()
    return result


class TestServePagedScan:
    def test_paged_scan_reassembles_and_pins_epoch(self):
        keys = dense_shuffled_keys(2048, seed=51)
        service = build_service(keys, cache_capacity=64)
        golden = golden_scan(keys, 100, 900)
        pages, cursor, pin = [], None, None
        for _ in range(10_000):
            submit_page(service, 100, 900, 64, cursor=cursor, pin_epoch=pin)
            result = drain_one(service)
            assert isinstance(result, RequestResult)
            assert result.order == "key"
            pin = result.epoch if pin is None else pin
            assert result.epoch == pin  # every page served by the pinned epoch
            pages.append(result.hits.prim_indices.astype(np.uint64))
            cursor = result.next_cursor
            if cursor is None:
                break
        assert np.array_equal(np.concatenate(pages), golden)
        assert all(p.shape[0] == 64 for p in pages[:-1])

    def test_page_cache_keyed_by_cursor(self):
        keys = dense_shuffled_keys(1024, seed=52)
        service = build_service(keys, cache_capacity=64)
        first = submit_page(service, 0, 500, 32) and drain_one(service)
        second = submit_page(service, 0, 500, 32, cursor=first.next_cursor) and (
            drain_one(service)
        )
        assert not first.from_cache and not second.from_cache
        assert not np.array_equal(
            first.hits.prim_indices, second.hits.prim_indices
        ), "distinct cursors must be distinct cache entries"

        # Replaying either page is a cache hit with identical content.
        for original, cursor in ((first, None), (second, first.next_cursor)):
            submit_page(service, 0, 500, 32, cursor=cursor)
            replay = drain_one(service)
            assert replay.from_cache
            assert np.array_equal(
                replay.hits.prim_indices, original.hits.prim_indices
            )
            assert replay.next_cursor == original.next_cursor
        assert service.cache.stats.hits == 2

    def test_update_mid_pagination_retires_pinned_pages(self):
        """A DELTA_SHARD update between pages must not serve stale pages:
        the resumed page pinned to the pre-update epoch fails explicitly."""
        keys0 = dense_shuffled_keys(2048, seed=53)
        keys1 = keys0.copy()
        keys1[200:800] = keys1[200:800][::-1]
        service = build_service(keys0, cache_capacity=64)

        first = submit_page(service, 100, 900, 32) and drain_one(service)
        assert first.next_cursor is not None
        pin = first.epoch

        service.update(keys1)  # DELTA_SHARD rebuild: epoch advances

        submit_page(service, 100, 900, 32, cursor=first.next_cursor, pin_epoch=pin)
        failure = drain_one(service)
        assert isinstance(failure, RequestFailure)
        assert failure.reason == "epoch_retired"
        assert failure.failed is True
        assert failure.latency == failure.completion - failure.arrival >= 0.0
        assert service.stats()["resilience"]["rejections_epoch"] == 1

        # Restarting the scan (no pin) serves the new epoch's golden order.
        golden1 = golden_scan(keys1, 100, 900)
        restarted = submit_page(service, 100, 900, 32) and drain_one(service)
        assert isinstance(restarted, RequestResult)
        assert restarted.failed is False
        assert restarted.epoch > pin
        assert np.array_equal(
            restarted.hits.prim_indices.astype(np.uint64), golden1[:32]
        )

    def test_unpinned_resume_crosses_epochs(self):
        """Without pin_epoch the client opted out of pinning: the resumed
        page is served by the current epoch (an explicit restart choice)."""
        keys0 = dense_shuffled_keys(1024, seed=54)
        keys1 = keys0.copy()
        keys1[:400] = keys1[:400][::-1]
        service = build_service(keys0, cache_capacity=0)
        first = submit_page(service, 0, 600, 16) and drain_one(service)
        service.update(keys1)
        resumed = submit_page(service, 0, 600, 16, cursor=first.next_cursor) and (
            drain_one(service)
        )
        assert isinstance(resumed, RequestResult)
        assert resumed.epoch == first.epoch + 1

    def test_concurrent_scans_coalesce_into_one_launch(self):
        keys = dense_shuffled_keys(2048, seed=55)
        service = build_service(keys, cache_capacity=0, max_wait=10.0)
        launches_before = service.scheduler.stats.launches
        submit_page(service, 0, 400, 16)
        submit_page(service, 800, 1200, 16)
        results = service.drain()
        assert len(results) == 2
        assert service.scheduler.stats.launches == launches_before + 1
        golden_a = golden_scan(keys, 0, 400)[:16]
        golden_b = golden_scan(keys, 800, 1200)[:16]
        by_id = sorted(results, key=lambda r: r.request_id)
        assert np.array_equal(by_id[0].hits.prim_indices.astype(np.uint64), golden_a)
        assert np.array_equal(by_id[1].hits.prim_indices.astype(np.uint64), golden_b)

    def test_validation_at_submit_time(self):
        keys = dense_shuffled_keys(256, seed=56)
        service = build_service(keys, cache_capacity=0)
        lowers = np.array([0], dtype=np.uint64)
        uppers = np.array([99], dtype=np.uint64)
        with pytest.raises(ValueError, match="order"):
            service.submit_range(lowers, uppers, limit=8, order="value")
        with pytest.raises(ValueError, match="order='key'"):
            service.submit_range(lowers, uppers, limit=8, cursor="1|1")
        with pytest.raises(ValueError, match="one range"):
            service.submit_range(
                np.array([0, 10], dtype=np.uint64),
                np.array([9, 19], dtype=np.uint64),
                limit=8,
                order="key",
            )
