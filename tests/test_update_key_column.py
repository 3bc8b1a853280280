"""The index owns its key and value columns, and updates keep its duplicate flag.

Three properties of ``RXIndex.build`` / ``RXIndex.update``:

1. **Owned column** — the index stores a read-only copy of the caller's
   key array.  Ordered pages and their cursors read the column, so a write
   to the array after ``build()`` or ``update()`` must change no page, on
   the index and through an ``IndexService`` page chain pinned to one
   epoch.
2. **Owned values** — likewise a read-only copy of the caller's value
   array: aggregates and saves read it, so a write to the array after
   ``build()`` or ``update()`` must change no aggregate and no saved byte.
3. **Duplicate flag** — ``point_limit()`` (1 on a duplicate-free column,
   else ``None``) needs a sort of the whole column.  An update whose
   changed rows hold the same multiset of keys before and after (swaps)
   keeps the flag under every update policy; any other update re-derives
   it lazily, and adding or removing a duplicate shows.

The columns and updates are drawn from ``DIFF_SEED`` (env var; CI runs
extra seeds through ``make test-diff``).
"""

import hashlib
import os

import numpy as np
import pytest

from repro.core.config import RXConfig, UpdatePolicy
from repro.core.results import collect_row_ids
from repro.core.rx_index import RXIndex
from repro.serve import IndexService, RequestResult

DIFF_SEED = int(os.environ.get("DIFF_SEED", "20260727"))

POLICIES = {
    UpdatePolicy.REBUILD: lambda: RXConfig.paper_default(),
    UpdatePolicy.REFIT: lambda: RXConfig.paper_default().with_updates_enabled(),
    UpdatePolicy.DELTA_SHARD: lambda: RXConfig.paper_default().with_delta_updates(shard_bits=4),
}


def _page_chain(lookup, pages: int = 3) -> list[tuple[list[int], str | None]]:
    """``pages`` ordered pages of ``[100, 199]``, 10 rows each, through
    ``lookup(cursor) -> (rows, next_cursor)``."""
    chain, cursor = [], None
    for _ in range(pages):
        rows, cursor = lookup(cursor)
        chain.append((rows, cursor))
    return chain


def _index_pages(index: RXIndex):
    def lookup(cursor):
        run, next_cursor = index.range_lookup([100], [199], limit=10, order="key", cursor=cursor)
        return run.row_ids.tolist(), next_cursor

    return lookup


def _store_digests(root) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*.seg"))
    }


class TestOwnedValueColumn:
    @pytest.mark.parametrize("policy", list(POLICIES), ids=lambda p: p.value)
    def test_write_changes_no_aggregate_and_no_saved_byte(self, tmp_path, policy):
        """A write to the caller's value array after ``build()`` and after
        ``update()`` leaves the aggregates and the saved segments of an
        index built from untouched copies."""
        rng = np.random.default_rng([2, DIFF_SEED])
        keys = rng.permutation(np.arange(1000, dtype=np.uint64))
        values = rng.integers(1, 1 << 40, size=keys.shape[0], dtype=np.uint64)
        new_keys = keys.copy()
        rows = rng.choice(keys.shape[0], size=64, replace=False)
        new_keys[rows] = new_keys[rng.permutation(rows)]
        new_values = rng.integers(1, 1 << 40, size=keys.shape[0], dtype=np.uint64)

        def answers(index):
            lowers = np.arange(0, 1000, 50, dtype=np.uint64)
            return (
                index.point_lookup(keys[::9]).aggregate,
                index.range_lookup(lowers, lowers + np.uint64(30)).aggregate,
            )

        clean, index = RXIndex(POLICIES[policy]()), RXIndex(POLICIES[policy]())
        clean.build(keys, values.copy())
        index.build(keys, values)
        values[:] = 0
        assert answers(index) == answers(clean)
        assert not index.values.flags.writeable
        index.save(tmp_path / "index")
        clean.save(tmp_path / "clean")
        assert _store_digests(tmp_path / "index") == _store_digests(tmp_path / "clean")

        clean.update(new_keys, new_values.copy())
        index.update(new_keys, new_values)
        new_values[::2] = 0
        assert answers(index) == answers(clean)
        assert not index.values.flags.writeable
        index.save(tmp_path / "index")
        clean.save(tmp_path / "clean")
        assert _store_digests(tmp_path / "index") == _store_digests(tmp_path / "clean")


class TestOwnedKeyColumn:
    @staticmethod
    def _keys() -> np.ndarray:
        return np.random.default_rng(3).permutation(np.arange(1000, dtype=np.uint64))

    def test_write_after_build_changes_no_page(self):
        keys = self._keys()
        clean = RXIndex()
        clean.build(keys.copy())
        expected = _page_chain(_index_pages(clean))

        index = RXIndex()
        index.build(keys)
        lookup = _index_pages(index)
        first = lookup(None)
        assert first == expected[0]
        keys[:] = keys[::-1].copy()
        second = lookup(first[1])
        # An index reading the caller's reversed array would repeat row 549
        # here and return the cursor "358|83".
        assert second == expected[1] == ([882, 238, 471, 347, 799, 844, 824, 734, 83, 334], "119|334")
        assert lookup(second[1]) == expected[2]

    @pytest.mark.parametrize("policy", list(POLICIES), ids=lambda p: p.value)
    def test_write_after_update_changes_no_page(self, policy):
        rng = np.random.default_rng([1, DIFF_SEED])
        keys = self._keys()
        new_keys = keys.copy()
        rows = rng.choice(keys.shape[0], size=64, replace=False)
        new_keys[rows] = new_keys[rng.permutation(rows)]
        clean = RXIndex(POLICIES[policy]())
        clean.build(new_keys.copy())
        expected = _page_chain(_index_pages(clean))

        index = RXIndex(POLICIES[policy]())
        index.build(keys)
        index.update(new_keys)
        new_keys[:] = rng.permutation(new_keys)
        keys[:] = 0
        assert _page_chain(_index_pages(index)) == expected
        assert not index.keys.flags.writeable

    def test_write_changes_no_pinned_service_page(self):
        keys = self._keys()
        clean = RXIndex()
        clean.build(keys.copy())
        expected = _page_chain(_index_pages(clean))

        index = RXIndex(POLICIES[UpdatePolicy.DELTA_SHARD]())
        index.build(keys)
        service = IndexService(index, cache_capacity=0)
        pin = None

        def lookup(cursor):
            nonlocal pin
            service.submit_range(
                np.array([100], dtype=np.uint64),
                np.array([199], dtype=np.uint64),
                limit=10,
                order="key",
                cursor=cursor,
                pin_epoch=pin,
            )
            (result,) = service.drain()
            assert isinstance(result, RequestResult), result
            pin = result.epoch if pin is None else pin
            assert result.epoch == pin
            return result.hits.prim_indices.tolist(), result.next_cursor

        first = lookup(None)
        keys[:] = keys[::-1].copy()
        second = lookup(first[1])
        assert [first, second, lookup(second[1])] == expected


def _spy_sorts(monkeypatch) -> list[int]:
    """Record the size of every array ``np.sort`` sorts from now on."""
    sizes: list[int] = []
    sort = np.sort

    def spy(a, *args, **kwargs):
        sizes.append(int(np.size(a)))
        return sort(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", spy)
    return sizes


class TestDuplicateFlagAcrossUpdates:
    """One test per rule, under every policy; ``_column`` draws the keys."""

    @staticmethod
    def _column(tag: int, duplicate: bool = False) -> tuple[np.ndarray, np.random.Generator]:
        rng = np.random.default_rng([tag, DIFF_SEED])
        n = int(rng.integers(512, 2048))
        keys = rng.permutation(np.arange(10, 10 + n, dtype=np.uint64))
        if duplicate:
            a, b = rng.choice(n, size=2, replace=False)
            keys[a] = keys[b]
        return keys, rng

    @staticmethod
    def _index(policy, keys) -> RXIndex:
        index = RXIndex(POLICIES[policy]())
        index.build(keys)
        index.point_limit()  # the flag is known before the update
        return index

    @staticmethod
    def _swapped(keys, rng) -> np.ndarray:
        """``keys`` with a random subset of rows permuted among themselves."""
        new_keys = keys.copy()
        rows = rng.choice(keys.shape[0], size=int(rng.integers(2, 200)), replace=False)
        new_keys[rows] = keys[rng.permutation(rows)]
        return new_keys

    @pytest.mark.parametrize("duplicate", [False, True], ids=["unique", "one-duplicate"])
    @pytest.mark.parametrize("policy", list(POLICIES), ids=lambda p: p.value)
    def test_key_preserving_update_keeps_the_flag_without_a_sort(
        self, monkeypatch, policy, duplicate
    ):
        keys, rng = self._column(11, duplicate)
        index = self._index(policy, keys)
        expected = None if duplicate else 1
        assert index.point_limit() == expected
        new_keys = self._swapped(keys, rng)
        sizes = _spy_sorts(monkeypatch)
        index.update(new_keys)
        assert index.point_limit() == expected
        assert max(sizes, default=0) < keys.shape[0], sizes
        queries = new_keys[rng.choice(keys.shape[0], size=64)]
        run = index.point_lookup(queries)
        assert run.hits_per_lookup.tolist() == [int(np.count_nonzero(new_keys == q)) for q in queries]

    @pytest.mark.parametrize("policy", list(POLICIES), ids=lambda p: p.value)
    def test_update_adding_a_duplicate_reports_every_match(self, policy):
        keys, rng = self._column(12)
        index = self._index(policy, keys)
        assert index.point_limit() == 1
        new_keys = self._swapped(keys, rng)
        a, b = rng.choice(keys.shape[0], size=2, replace=False)
        new_keys[a] = new_keys[b]
        index.update(new_keys)
        assert index.point_limit() is None
        run = index.point_lookup(new_keys[[b]])
        assert run.hits_per_lookup.tolist() == [2]
        rays = index.codec.point_ray_batch(new_keys[[b]], index.config.point_ray_mode)
        launch = index.pipeline.launch(rays, num_lookups=1)
        assert sorted(collect_row_ids(launch.hits, 1)[0].tolist()) == sorted([a, b])

    @pytest.mark.parametrize("policy", list(POLICIES), ids=lambda p: p.value)
    def test_update_removing_the_only_duplicate_returns_to_limit_one(self, policy):
        keys, rng = self._column(13, duplicate=True)
        index = self._index(policy, keys)
        assert index.point_limit() is None
        new_keys = self._swapped(keys, rng)
        dup = int(np.flatnonzero(new_keys == np.bincount(new_keys.astype(np.int64)).argmax())[0])
        new_keys[dup] = keys.max() + np.uint64(1)
        index.update(new_keys)
        assert index.point_limit() == 1
        run = index.point_lookup(new_keys[[dup]])
        assert run.result_rows.tolist() == [dup]
        assert run.stats["trace_mode"] == "first_k"

    @pytest.mark.parametrize(
        "policy", [UpdatePolicy.REBUILD, UpdatePolicy.DELTA_SHARD], ids=lambda p: p.value
    )
    @pytest.mark.parametrize("grow", [1, -1], ids=["grow", "shrink"])
    def test_key_count_change_falls_back_to_the_lazy_sort(self, monkeypatch, policy, grow):
        keys, rng = self._column(14)
        index = self._index(policy, keys)
        n = keys.shape[0] + grow
        new_keys = np.concatenate([keys, [keys.max() + np.uint64(1)]])[:n]
        sizes = _spy_sorts(monkeypatch)
        index.update(new_keys, np.arange(n, dtype=np.uint64))
        assert n not in sizes
        assert index.point_limit() == 1
        assert n in sizes
