"""A checkpoint costs what changed: segment reuse by provenance.

An index remembers the manifest entry of every segment it last committed
or loaded.  A ``DELTA_SHARD`` update forgets only the segments whose state
it changed; builds, ``REBUILD``, ``REFIT`` and a rescaled update forget
everything.  A save reuses a remembered segment without building or
hashing it only when the store still commits that entry and its file is
there, and decides by content otherwise.

Every save here also runs under the autouse cross-check of
``tests/conftest.py``, which builds and hashes each reused segment and
fails the test if its digest is not the committed entry's; the canary
below proves that check catches a dropped mark.  ``FAULT_SEED`` (env var)
reseeds the columns.
"""

from __future__ import annotations

import json
import os
from pathlib import PurePosixPath

import numpy as np
import pytest

from repro.core import layout, rx_index
from repro.core.config import RXConfig
from repro.core.rx_index import RXIndex
from repro.persist import load_manifest, store
from repro.rtx.forest import delta_update_forest
from repro.serve import IndexService
from repro.workloads import clustered_key_swaps, dense_shuffled_keys

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))

CONFIGS = {
    "forest": lambda: RXConfig.paper_default().with_delta_updates(shard_bits=4),
    "single": RXConfig.paper_default,
}


@pytest.fixture
def hashed(monkeypatch) -> list[str]:
    """The array names of every payload the store's save hashes."""
    calls: list[str] = []
    digest = store.payload_digest

    def spy(arrays):
        calls.append(",".join(arrays))
        return digest(arrays)

    monkeypatch.setattr(store, "payload_digest", spy)
    return calls


def _files(root) -> dict[str, tuple[int, bytes]]:
    """Every segment file of a store: its inode and bytes."""
    return {
        str(path.relative_to(root)): (path.stat().st_ino, path.read_bytes())
        for path in sorted(root.rglob("*.seg"))
    }


def _build(name: str, num_keys: int = 1 << 13) -> RXIndex:
    index = RXIndex(CONFIGS[name]())
    index.build(dense_shuffled_keys(num_keys, seed=np.random.default_rng([17, FAULT_SEED])))
    return index


def _one_shard_update(index: RXIndex, seed: int = 0) -> dict:
    """Apply a clustered update that dirties exactly one shard, as most of
    update-restart's do: the first seed from ``seed`` on whose update,
    tried on the forest alone (which it leaves as it is), does."""
    accel = index.accel
    for attempt in range(seed, seed + 64):
        new = clustered_key_swaps(index.keys, 16, seed=[attempt, FAULT_SEED])
        _, stats = delta_update_forest(accel.forest, accel.buffer, index._make_buffer(new))
        if stats.dirty_shards == 1:
            return index.update(new).stats
    raise AssertionError("no clustered update dirtied exactly one shard")


def _assert_loads_like(root, index: RXIndex) -> None:
    queries = index.keys[::5]
    for mmap in (True, False):
        loaded = RXIndex.load(root, mmap=mmap)
        assert np.array_equal(loaded.keys, index.keys)
        assert np.array_equal(loaded.values, index.values)
        got, want = loaded.point_lookup(queries), index.point_lookup(queries)
        assert np.array_equal(got.result_rows, want.result_rows)
        assert got.stats == want.stats


class TestSaveCost:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_checkpoint_without_update_hashes_nothing(self, tmp_path, hashed, name):
        """A second save with nothing changed hashes no payload and replaces
        only the manifest: every segment file keeps its inode and bytes."""
        index = _build(name)
        first = index.save(tmp_path)
        assert first["segments_hashed"] == first["segments_total"] == len(hashed)
        before, manifest = _files(tmp_path), load_manifest(tmp_path)
        hashed.clear()

        again = index.save(tmp_path)
        assert hashed == []
        assert again["segments_hashed"] == again["segments_rewritten"] == 0
        assert again["bytes_written"] == 0
        assert again["segments_reused"] == again["segments_total"]
        assert _files(tmp_path) == before
        after = load_manifest(tmp_path)
        assert after["version"] == manifest["version"] + 1
        assert after["segments"] == manifest["segments"]
        persist = index.stats()["persist"]
        assert (persist["segments_hashed"], persist["bytes_written"]) == (0, 0)

    def test_one_shard_update_hashes_and_rewrites_one_segment(self, tmp_path, hashed):
        index = _build("forest")
        index.save(tmp_path)
        before = load_manifest(tmp_path)["segments"]
        hashed.clear()

        stats = _one_shard_update(index)
        info = index.save(tmp_path)
        assert stats["dirty_shards"] == 1
        assert hashed == ["keys,rows,left,first_prim,prim_count,node_mins,node_maxs"]
        assert info["segments_hashed"] == info["segments_rewritten"] == 1
        after = load_manifest(tmp_path)["segments"]
        (changed,) = [name for name in after if after[name] != before[name]]
        assert changed.startswith("shard-")
        assert info["bytes_written"] == after[changed]["length"]
        assert index.stats()["persist"]["bytes_written"] == info["bytes_written"]
        _assert_loads_like(tmp_path, index)

    def test_new_values_rewrite_the_values_segment(self, tmp_path, hashed):
        index = _build("forest")
        index.save(tmp_path)
        hashed.clear()
        rng = np.random.default_rng([3, FAULT_SEED])
        index.update(index.keys, rng.integers(0, 1 << 30, size=index.num_keys, dtype=np.uint64))
        info = index.save(tmp_path)
        assert hashed == ["values"]
        assert info["segments_rewritten"] == 1
        _assert_loads_like(tmp_path, index)

    def test_noop_update_keeps_every_voucher(self, tmp_path, hashed):
        index = _build("forest")
        index.save(tmp_path)
        hashed.clear()
        assert index.update(index.keys).stats["noop"]
        assert index.save(tmp_path)["segments_hashed"] == 0
        assert hashed == []

    def test_growth_and_shrinkage_rewrite_what_moved(self, tmp_path):
        """Rows past the old end enter dirty shards and new values; the
        store follows the column through growth and shrinkage."""
        index = _build("forest")
        index.save(tmp_path)
        n = index.num_keys
        # Copies of the 64 smallest keys: inside the scene bounds, in few shards.
        grown = np.concatenate([index.keys, np.sort(index.keys)[:64]])
        index.update(grown, np.arange(n + 64, dtype=np.uint64))
        info = index.save(tmp_path)
        assert 1 <= info["segments_hashed"] < info["segments_total"]
        _assert_loads_like(tmp_path, index)
        index.update(index.keys[:-100], index.values[:-100])
        index.save(tmp_path)
        _assert_loads_like(tmp_path, index)

    @pytest.mark.parametrize(
        "name, change",
        [
            ("forest", "rescale"),
            ("forest", "build"),
            ("single", "rebuild"),
            ("single", "refit"),
        ],
    )
    def test_updates_that_change_everything_forget_everything(self, tmp_path, name, change):
        """A rescaled ``DELTA_SHARD`` update, a build, a ``REBUILD`` and a
        ``REFIT`` update leave nothing vouched for: the next save hashes
        every segment."""
        if change == "refit":
            index = RXIndex(RXConfig.paper_default().with_updates_enabled())
            index.build(dense_shuffled_keys(1 << 12, seed=5))
        else:
            index = _build(name)
        index.save(tmp_path)
        keys = index.keys.copy()
        if change == "rescale":
            keys[np.argmax(keys)] += np.uint64(1 << 20)  # the scene bounds move
            assert index.update(keys).stats["rescaled"]
        elif change == "build":
            index.build(keys)
        else:
            index.update(clustered_key_swaps(keys, 16, seed=4))
        info = index.save(tmp_path)
        assert info["segments_hashed"] == info["segments_total"]
        _assert_loads_like(tmp_path, index)


class TestVouchers:
    def test_a_second_writer_between_saves_is_noticed(self, tmp_path, hashed):
        """Another writer commits between two saves of an index: the
        segments it rewrote no longer carry the index's vouchers, so the
        index's next save hashes them and writes its own state back;
        the segments it reused still do, and nothing stale is reused."""
        index = _build("forest")
        index.save(tmp_path)
        other = RXIndex.load(tmp_path, mmap=False)
        _one_shard_update(other, seed=10)
        other.save(tmp_path)
        committed = load_manifest(tmp_path)["segments"]
        hashed.clear()

        info = index.save(tmp_path)
        assert info["segments_hashed"] == info["segments_rewritten"] == 1
        assert len(hashed) == 1
        after = load_manifest(tmp_path)["segments"]
        assert sum(after[name] != committed[name] for name in after) == 1
        _assert_loads_like(tmp_path, index)

    def test_a_missing_committed_file_is_rewritten(self, tmp_path, hashed):
        """A voucher for a segment whose committed file is gone reuses
        nothing: the save hashes and writes that segment again."""
        index = _build("forest")
        index.save(tmp_path)
        entry = load_manifest(tmp_path)["segments"]["values"]
        (tmp_path / entry["path"]).unlink()
        hashed.clear()
        info = index.save(tmp_path)
        assert hashed == ["values"]
        assert info["segments_rewritten"] == 1
        _assert_loads_like(tmp_path, index)

    def test_a_store_the_index_did_not_write_is_hashed(self, tmp_path):
        index = _build("forest")
        index.save(tmp_path / "a")
        info = index.save(tmp_path / "b")
        assert info["segments_hashed"] == info["segments_rewritten"] == info["segments_total"]
        # Both stores hold the same files, so either one's vouchers now do.
        assert index.save(tmp_path / "a")["segments_hashed"] == 0

    @pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "heap"])
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_save_after_restore_from(self, tmp_path, name, mmap):
        """An index restored from a store vouches for its segments there:
        saving back hashes nothing, and an update then costs its shards."""
        source = _build(name)
        source.save(tmp_path)
        index = _build(name, num_keys=1 << 10)
        index.restore_from(tmp_path, mmap=mmap)
        assert index.save(tmp_path)["segments_hashed"] == 0
        if name == "forest":
            _one_shard_update(index)
            assert index.save(tmp_path)["segments_hashed"] == 1
        else:
            index.update(clustered_key_swaps(index.keys, 8, seed=2))
            assert index.save(tmp_path)["segments_hashed"] == 2
        _assert_loads_like(tmp_path, index)

    def test_a_dotted_manifest_path_keeps_its_file(self, tmp_path):
        """The prune compares store-relative paths as pure paths: entries
        spelled ``epoch-00000000/./…`` load, and a loaded index's saves
        carry them verbatim, so their files must outlive the prune, while
        the shard an update leaves behind in the older epoch still goes."""
        _build("forest").save(tmp_path)
        manifest_file = tmp_path / "MANIFEST.json"
        manifest = json.loads(manifest_file.read_text())
        for entry in manifest["segments"].values():
            entry["path"] = entry["path"].replace("/", "/./")
        manifest_file.write_text(json.dumps(manifest))
        index = RXIndex.load(tmp_path, mmap=False)

        def on_disk():
            return {PurePosixPath(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.seg")}

        def referenced():
            segments = load_manifest(tmp_path)["segments"]
            return {PurePosixPath(entry["path"]) for entry in segments.values()}

        assert index.save(tmp_path)["segments_hashed"] == 0
        assert "/./" in load_manifest(tmp_path)["segments"]["values"]["path"]
        assert on_disk() == referenced()
        _assert_loads_like(tmp_path, index)

        before = on_disk()
        _one_shard_update(index)
        assert index.save(tmp_path)["segments_rewritten"] == 1
        (gone,) = before - on_disk()
        assert gone.parent.name == "epoch-00000000" and gone.name.startswith("shard-")
        assert on_disk() == referenced()
        _assert_loads_like(tmp_path, index)

    def test_service_checkpoints_cost_what_changed(self, tmp_path):
        index = _build("forest")
        service = IndexService(index)
        assert service.checkpoint(tmp_path)["segments_hashed"] > 1
        _one_shard_update(index)
        assert service.checkpoint(tmp_path)["segments_hashed"] == 1
        assert service.checkpoint(tmp_path)["segments_hashed"] == 0

    def test_canary_a_dropped_mark_fails_the_cross_check(self, tmp_path, monkeypatch):
        """An update that forgets to drop one segment's voucher makes the
        next save reuse a stale shard, which the autouse cross-check must
        refuse.  (Without it the store would answer with the old keys.)"""
        changed = layout.changed_segments

        def drop_one_mark(delta, values_changed):
            names = changed(delta, values_changed)
            return names[1:]

        monkeypatch.setattr(rx_index, "changed_segments", drop_one_mark)
        index = _build("forest")
        index.save(tmp_path)
        _one_shard_update(index)
        stale = "provenance cross-check: the save reused segment shard-"
        with pytest.raises(AssertionError, match=stale):
            index.save(tmp_path)
        stale = RXIndex.load(tmp_path)
        assert not np.array_equal(stale.keys, index.keys)
