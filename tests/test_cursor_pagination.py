"""Keyset-cursor pagination: pages must reassemble the ordered scan exactly.

Acceptance property: for random scenes (duplicate-free, mixed and
duplicate-heavy key columns) and random page sizes, the concatenation of
cursor pages — each page an independent ``order="key"`` range lookup that
resumes from the previous page's cursor — is bit-identical to the one-shot
ordered scan of the same range, with no dropped rows, no duplicated rows,
and exact page boundaries even when a duplicate-key run straddles a page
break.  Per-page counters must stay sane: every page reports exactly its
row count, carries the ``ordered_k`` trace stats and flags whether it
resumed a cursor.

The duplicate-run boundary is additionally pinned at the cursor-codec
level (``keyset_page_slice`` / ``make_cursor_filter`` with cursors on the
first, middle and last row of a run) and at the RXIndex level, and the
SA/B+ baselines' paged probes must reproduce RX's pages bit for bit.

Like the differential harness, the generator seed defaults to 20260727 and
can be overridden with the ``DIFF_SEED`` environment variable.
"""

import os
import random

import numpy as np
import pytest

from repro.baselines.base import keyset_page_slice
from repro.baselines.btree import GpuBPlusTree
from repro.baselines.sorted_array import SortedArrayIndex
from repro.core.config import RXConfig
from repro.core.cursor import (
    Cursor,
    encode_cursor,
    make_cursor_filter,
    next_cursor_token,
    parse_cursor,
)
from repro.core.rx_index import RXIndex

DIFF_SEED = int(os.environ.get("DIFF_SEED", "20260727"))

#: duplicate grids: max key multiplicity of the generated column
MULTIPLICITIES = [1, 3, 8]
PAGE_SIZES = [1, 3, 16, 1000]
NUM_SCENES = 6


def _scene(rng: random.Random, multiplicity: int) -> tuple[np.ndarray, np.ndarray]:
    """A random key column with controlled duplicate runs, plus values."""
    n_positions = rng.randrange(40, 120)
    keys: list[int] = []
    key = 0
    for _ in range(n_positions):
        key += rng.randrange(1, 5)
        keys.extend([key] * rng.randrange(1, multiplicity + 1))
    keys = np.array(keys, dtype=np.uint64)
    # Shuffle so rowIDs are uncorrelated with key order (the interesting
    # case: within a duplicate run the sorted rowIDs are scattered rows).
    perm = np.array(rng.sample(range(keys.shape[0]), keys.shape[0]))
    keys = keys[perm]
    values = np.arange(keys.shape[0], dtype=np.uint64) * np.uint64(7)
    return keys, values


def _golden_scan(keys: np.ndarray, lower: int, upper: int) -> np.ndarray:
    """RowIDs of ``[lower, upper]`` in ``(key, rowID)`` order."""
    sel = (keys >= np.uint64(lower)) & (keys <= np.uint64(upper))
    rows = np.nonzero(sel)[0].astype(np.uint64)
    return rows[np.lexsort((rows, keys[sel]))]


def _drain(index, lower: int, upper: int, page_size: int):
    """Drain a paged ordered scan; returns (pages, runs)."""
    lowers = np.array([lower], dtype=np.uint64)
    uppers = np.array([upper], dtype=np.uint64)
    pages, runs, cursor = [], [], None
    for _ in range(100_000):
        run, cursor = index.range_lookup(
            lowers, uppers, limit=page_size, order="key", cursor=cursor
        )
        pages.append(run.row_ids)
        runs.append(run)
        if cursor is None:
            return pages, runs
    raise AssertionError("cursor drain did not terminate")


class TestCursorCodec:
    def test_roundtrip(self):
        token = encode_cursor(123, 456)
        assert token == "123|456"
        cur = parse_cursor(token)
        assert cur == Cursor(key=123, row_id=456)
        assert parse_cursor(cur) is cur
        assert parse_cursor(None) is None
        assert cur.encode() == token

    @pytest.mark.parametrize(
        "token",
        [
            # wrong field count / missing separator
            "", "12", "1|2|3", "|",
            # non-integer parts
            "a|b", "1|", "|1", "a|1", "1|b", "1.5|2", "1|2.5", " 1 | 2x",
            # negative components
            "-1|2", "1|-2", "-1|-2",
            # too wide for the engine's fixed-width arithmetic (these used
            # to surface as OverflowError deep inside the filter builder)
            f"{2**64}|1", f"{2**70}|1", f"1|{2**63}", f"1|{2**70}",
        ],
    )
    def test_malformed_tokens_rejected(self, token):
        with pytest.raises(ValueError):
            parse_cursor(token)

    def test_non_string_tokens_rejected(self):
        for token in (3.5, b"1|2", ["1|2"], {"key": 1}):
            with pytest.raises(ValueError, match="cursor"):
                parse_cursor(token)

    def test_max_key_bound(self):
        assert parse_cursor("100|5", max_key=100) == Cursor(100, 5)
        with pytest.raises(ValueError, match="maximum representable key"):
            parse_cursor("101|5", max_key=100)

    def test_key_beyond_codec_range_rejected_at_index(self):
        from repro.core.config import KeyMode

        # The extended codec represents far fewer than 2^64 keys, so a
        # cursor key past its range is caught by the codec bound (not the
        # generic 64-bit width cap).
        from repro.core.config import RangeRayMode

        config = RXConfig.paper_default()
        config.key_mode = KeyMode.EXTENDED
        config.range_ray_mode = RangeRayMode.PARALLEL_FROM_ZERO
        index = RXIndex(config)
        index.build(np.arange(64, dtype=np.uint64))
        over = index.codec.max_key() + 1
        with pytest.raises(ValueError, match="maximum representable key"):
            index.range_lookup(
                np.array([0], dtype=np.uint64),
                np.array([9], dtype=np.uint64),
                limit=4,
                order="key",
                cursor=f"{over}|0",
            )

    def test_malformed_tokens_rejected_at_service_boundary(self):
        from repro.serve import IndexService

        index = RXIndex(RXConfig.paper_default())
        index.build(np.arange(64, dtype=np.uint64))
        service = IndexService(index)
        lowers = np.array([0], dtype=np.uint64)
        uppers = np.array([9], dtype=np.uint64)
        for token in ("1|2|3", "a|1", f"{2**70}|1", f"1|{2**70}"):
            with pytest.raises(ValueError, match="cursor"):
                service.submit_range(
                    lowers, uppers, limit=4, order="key", cursor=token
                )
        # Nothing was enqueued by the rejected submissions.
        assert not service.scheduler.pending
        # A well-formed cursor still goes through the normal path.
        service.submit_range(lowers, uppers, limit=4, order="key", cursor="3|3")
        assert service.drain()

    def test_no_cursor_returns_base_filter_unchanged(self):
        keys = np.arange(8, dtype=np.uint64)
        assert make_cursor_filter(keys, [None]) is None
        assert make_cursor_filter(keys, [None, None]) is None

    @pytest.mark.parametrize("boundary", ["first", "middle", "last"])
    def test_filter_resumes_exactly_past_duplicate_boundary(self, boundary):
        """Cursor on the first/middle/last row of a duplicate run: rows of
        the run at or before the cursor are dropped, rows after survive."""
        # Key 5 occupies rows 2, 3, 4 (a 3-row duplicate run).
        keys = np.array([1, 3, 5, 5, 5, 7, 9], dtype=np.uint64)
        run_rows = {"first": 2, "middle": 3, "last": 4}
        cursor = Cursor(key=5, row_id=run_rows[boundary])
        keep = make_cursor_filter(keys, [cursor])
        prim = np.arange(keys.shape[0], dtype=np.int64)
        mask = keep(prim, prim, np.zeros(keys.shape[0], dtype=np.int64))
        expected = (keys > 5) | ((keys == 5) & (prim > run_rows[boundary]))
        assert np.array_equal(mask, expected)

    @pytest.mark.parametrize("boundary", ["first", "middle", "last"])
    def test_keyset_page_slice_duplicate_boundary(self, boundary):
        keys = np.array([1, 3, 5, 5, 5, 7, 9], dtype=np.uint64)
        rows = np.arange(keys.shape[0], dtype=np.uint64)
        run_rows = {"first": 2, "middle": 3, "last": 4}
        lo, hi = keyset_page_slice(keys, rows, 0, 9, 5, run_rows[boundary])
        assert hi == keys.shape[0]
        assert lo == run_rows[boundary] + 1  # resumes just past the cursor row

    def test_next_cursor_token_only_on_full_pages(self):
        keys = np.array([4, 9, 9], dtype=np.uint64)
        assert next_cursor_token(keys, np.array([0, 2], dtype=np.int64), 2) == "9|2"
        assert next_cursor_token(keys, np.array([0], dtype=np.int64), 2) is None
        assert next_cursor_token(keys, np.zeros(0, dtype=np.int64), 2) is None


@pytest.mark.parametrize("scene_index", range(NUM_SCENES))
def test_pages_reassemble_the_ordered_scan(scene_index):
    """The property: page concatenation == one-shot ordered scan == golden."""
    rng = random.Random(DIFF_SEED * 777 + scene_index)
    multiplicity = MULTIPLICITIES[scene_index % len(MULTIPLICITIES)]
    keys, values = _scene(rng, multiplicity)
    index = RXIndex(RXConfig.paper_default())
    index.build(keys, values)
    max_key = int(keys.max())
    label = f"seed={DIFF_SEED} scene={scene_index} multiplicity={multiplicity}"

    for _ in range(3):
        lower = rng.randrange(0, max_key)
        upper = rng.randrange(lower, max_key + 2)
        golden = _golden_scan(keys, lower, upper)
        for page_size in PAGE_SIZES:
            pages, runs = _drain(index, lower, upper, page_size)
            got = np.concatenate(pages)
            case = f"{label} range=[{lower},{upper}] k={page_size}"
            # Bit-identical reassembly: no drops, no duplicates, in order.
            assert np.array_equal(got, golden), case
            # One-shot ordered scan of the whole range agrees.
            one_shot, _ = index.range_lookup(
                np.array([lower], dtype=np.uint64),
                np.array([upper], dtype=np.uint64),
                limit=max(golden.shape[0], 1),
                order="key",
            )
            assert np.array_equal(one_shot.row_ids, golden), case
            # Exact page boundaries: every page but the last is full.
            for i, page in enumerate(pages[:-1]):
                assert page.shape[0] == page_size, f"{case} page={i}"
            assert pages[-1].shape[0] <= page_size, case
            # Per-page counters stay sane.
            for i, run in enumerate(runs):
                page_case = f"{case} page={i}"
                assert int(run.hits_per_lookup[0]) == runs[i].row_ids.shape[0], page_case
                assert run.stats["trace_mode"] == "ordered_k", page_case
                assert run.stats["range_limit"] == page_size, page_case
                assert run.stats["resumed"] == (i > 0), page_case
                assert run.stats["total_prim_tests"] >= run.row_ids.shape[0], page_case
                expected_agg = int(values[run.row_ids.astype(np.int64)].sum())
                assert run.aggregate == expected_agg, page_case


class TestDuplicateRunBoundaryRXIndex:
    """Bugfix pin: a cursor landing on a duplicate-key run must not re-emit
    rows already paid out, wherever in the run it lands."""

    def _column(self):
        # Key 50 repeats 7 times; rowIDs within the run are scattered.
        keys = np.array(
            [10, 50, 20, 50, 30, 50, 40, 50, 60, 50, 70, 50, 80, 50, 90],
            dtype=np.uint64,
        )
        index = RXIndex(RXConfig.paper_default())
        index.build(keys)
        run_rows = np.nonzero(keys == 50)[0]  # ascending rowIDs of the run
        return keys, index, run_rows

    @pytest.mark.parametrize("position", [0, 3, 6])
    def test_resume_at_run_position(self, position):
        keys, index, run_rows = self._column()
        golden = _golden_scan(keys, 0, 90)
        cursor = encode_cursor(50, int(run_rows[position]))
        consumed = int(np.nonzero(golden == run_rows[position])[0][0]) + 1
        run, _ = index.range_lookup(
            np.array([0], dtype=np.uint64),
            np.array([90], dtype=np.uint64),
            limit=keys.shape[0],
            order="key",
            cursor=cursor,
        )
        assert np.array_equal(run.row_ids, golden[consumed:])

    def test_page_break_inside_run_never_reemits(self):
        keys, index, run_rows = self._column()
        golden = _golden_scan(keys, 0, 90)
        # k=2 forces several page breaks inside the 7-row duplicate run.
        pages, _ = _drain(index, 0, 90, 2)
        assert np.array_equal(np.concatenate(pages), golden)
        flat = np.concatenate(pages)
        assert np.unique(flat).shape[0] == flat.shape[0]  # no re-emits


class TestBaselineParity:
    """SA/B+ paged probes must reproduce RX's pages bit for bit."""

    def test_duplicate_column_sa(self):
        rng = random.Random(DIFF_SEED * 31)
        keys, values = _scene(rng, 6)
        rx = RXIndex(RXConfig.paper_default())
        sa = SortedArrayIndex()
        for index in (rx, sa):
            index.build(keys, values)
        lower, upper = 5, int(keys.max()) - 3
        for page_size in (1, 5, 64):
            rx_pages, _ = _drain(rx, lower, upper, page_size)
            pages, runs = _drain(sa, lower, upper, page_size)
            assert len(pages) == len(rx_pages)
            for a, b in zip(pages, rx_pages):
                assert np.array_equal(a, b)
            assert all(r.stats["trace_mode"] == "ordered_k" for r in runs)

    def test_unique_column_btree(self):
        rng = np.random.default_rng(DIFF_SEED)
        keys = rng.permutation(np.arange(3000, dtype=np.uint64))[:1200]
        rx = RXIndex(RXConfig.paper_default())
        bt = GpuBPlusTree()
        for index in (rx, bt):
            index.build(keys)
        for page_size in (1, 7, 128):
            rx_pages, _ = _drain(rx, 100, 2800, page_size)
            bt_pages, _ = _drain(bt, 100, 2800, page_size)
            assert len(bt_pages) == len(rx_pages)
            for a, b in zip(bt_pages, rx_pages):
                assert np.array_equal(a, b)


class TestOrderedLookupValidation:
    def test_cursor_without_order_rejected(self):
        keys = np.arange(64, dtype=np.uint64)
        for index in (
            RXIndex(RXConfig.paper_default()),
            SortedArrayIndex(),
            GpuBPlusTree(),
        ):
            index.build(keys)
            with pytest.raises(ValueError, match="order='key'"):
                index.range_lookup(
                    np.array([0], dtype=np.uint64),
                    np.array([9], dtype=np.uint64),
                    limit=4,
                    cursor="3|3",
                )
            with pytest.raises(ValueError, match="order"):
                index.range_lookup(
                    np.array([0], dtype=np.uint64),
                    np.array([9], dtype=np.uint64),
                    limit=4,
                    order="value",
                )
            with pytest.raises(ValueError, match="limit|page size"):
                index.range_lookup(
                    np.array([0], dtype=np.uint64),
                    np.array([9], dtype=np.uint64),
                    limit=None,
                    order="key",
                )

    def test_multi_range_ordered_rejected(self):
        index = RXIndex(RXConfig.paper_default())
        index.build(np.arange(64, dtype=np.uint64))
        with pytest.raises(ValueError, match="one range"):
            index.range_lookup(
                np.array([0, 10], dtype=np.uint64),
                np.array([9, 19], dtype=np.uint64),
                limit=4,
                order="key",
            )
