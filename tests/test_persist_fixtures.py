"""Snapshots written by older code load bit-identically, or are refused.

``tests/fixtures/`` holds a forest and a single-tree snapshot per manifest
format, written by ``tests/fixtures/make_snapshots.py``:

* ``snapshots-v3/`` — format 3, what saves write: the forest keeps its
  keys in its shard segments beside a ``values`` segment, the single tree
  keeps ``columns`` and ``bvh``.  A fresh build and save writes every file
  of it byte for byte, and its single-tree segments are the bytes format
  2 wrote.  Each store loads through both load paths like a fresh build.
* ``snapshots-v2/`` — format 2 (one SHA-256 per segment), written while
  ``RXConfig`` still had the ``serve_*`` serving knobs and the
  ``allow_updates`` flag, so its manifests carry those ten retired keys.
  It also holds the legacy tree layout: every tree stores a ``right``
  array, and every delegated shard a ``prim_indices`` array, and the
  forest holds its keys in a ``columns`` segment.  Each store must load
  through both load paths (memory-mapped and heap) and answer point and
  range lookups — hits and counters — exactly like a fresh build over the
  same keys.  A fresh build and save must write the same arrays, moved
  into the format-3 layout, and the manifest's index block but for the
  retired keys.  A save over a copy of one commits format 3 afresh.
* ``snapshots-v1/`` — format 1 (CRC32C per segment), which the reader
  no longer holds.  Each store must fail every way a snapshot enters the
  stack with ``SnapshotCorrupt`` on ``MANIFEST.json``, leaving an index or
  service that was asked to restore it serving its own epoch, and a save
  over a copy of one starts afresh and commits format 3.

Loads are read-only, so the checked-in fixtures stay byte-identical.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core import RXIndex
from repro.core.config import RETIRED_CONFIG_KEYS
from repro.persist import SnapshotCorrupt, load_snapshot
from repro.serve import IndexService

FIXTURES = Path(__file__).resolve().parent / "fixtures"
_spec = importlib.util.spec_from_file_location(
    "make_snapshots", FIXTURES / "make_snapshots.py"
)
make_snapshots = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_snapshots)


def _digests(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _lookups(index: RXIndex) -> dict:
    keys = np.sort(make_snapshots.fixture_keys())
    queries = np.concatenate([keys[::7], keys[-1:] + np.uint64(5)])
    lowers = keys[::16]
    out = {}
    for name, run in (
        ("point", index.point_lookup(queries)),
        ("range", index.range_lookup(lowers, lowers + np.uint64(9))),
        ("range_k", index.range_lookup(lowers, lowers + np.uint64(9), limit=3)),
    ):
        out[name] = (
            run.result_rows.tolist(),
            run.hits_per_lookup.tolist(),
            run.aggregate,
            run.stats,
        )
    return out


@pytest.mark.parametrize("name", sorted(make_snapshots.CONFIGS))
def test_old_snapshot_loads_like_a_fresh_build(name):
    root = FIXTURES / "snapshots-v2" / name
    manifest = json.loads((root / "MANIFEST.json").read_text())
    assert manifest["format_version"] == 2
    # The fixture really is the old config: it carries every retired key.
    assert set(RETIRED_CONFIG_KEYS) <= manifest["index"]["config"].keys()
    before = _digests(root)

    config = make_snapshots.CONFIGS[name]()
    fresh = RXIndex(config)
    fresh.build(make_snapshots.fixture_keys())
    expected = _lookups(fresh)
    for mmap in (True, False):
        loaded = RXIndex.load(root, mmap=mmap)
        assert loaded.config == config
        assert loaded.stats()["persist"]["format_version"] == 2
        assert np.array_equal(loaded.keys, fresh.keys)
        assert _lookups(loaded) == expected, (name, mmap)

    assert _digests(root) == before


def test_legacy_shard_prim_indices_are_not_read(tmp_path, commit_as_format):
    """A delegated shard's legacy ``prim_indices`` array is never read:
    with every one reversed, the forest fixture still loads like a fresh
    build, and each shard tree's ``prim_indices`` is ``0..rows-1``, a view
    of one arange that all shard trees share."""
    snap = load_snapshot(FIXTURES / "snapshots-v2" / "forest", mmap=False)
    segments = {}
    for segment, (arrays, meta) in snap.segments.items():
        if segment.startswith("shard-"):
            arrays = {**arrays, "prim_indices": arrays["prim_indices"][::-1].copy()}
        segments[segment] = (arrays, meta)
    store = tmp_path / "forest"
    commit_as_format(store, snap, segments)

    fresh = RXIndex(make_snapshots.CONFIGS["forest"]())
    fresh.build(make_snapshots.fixture_keys())
    expected = _lookups(fresh)
    for mmap in (True, False):
        loaded = RXIndex.load(store, mmap=mmap)
        assert _lookups(loaded) == expected, mmap
        trees = list(loaded.accel.forest.shard_trees.values())
        assert len(trees) == 2
        for tree in trees:
            assert np.array_equal(tree.prim_indices, np.arange(tree.num_primitives))
            assert np.shares_memory(tree.prim_indices, trees[0].prim_indices)


def _refused(call) -> None:
    with pytest.raises(
        SnapshotCorrupt, match="manifest format version 1 is not supported"
    ) as excinfo:
        call()
    assert excinfo.value.segment == "MANIFEST.json"


@pytest.mark.parametrize("name", sorted(make_snapshots.CONFIGS))
def test_format1_store_is_refused_everywhere(name):
    """A format-1 store fails ``load_snapshot``, ``RXIndex.load`` (mmap on
    and off), ``RXIndex.restore_from`` and ``IndexService.restore``; the
    index and the service keep serving their own epoch, and the store's
    bytes do not change."""
    root = FIXTURES / "snapshots-v1" / name
    assert json.loads((root / "MANIFEST.json").read_text())["format_version"] == 1
    before = _digests(root)
    for mmap in (True, False):
        _refused(lambda: load_snapshot(root, mmap=mmap))
        _refused(lambda: RXIndex.load(root, mmap=mmap))

    index = RXIndex(make_snapshots.CONFIGS[name]())
    index.build(make_snapshots.fixture_keys()[::2])
    expected = _lookups(index)
    epoch = index.epoch
    _refused(lambda: index.restore_from(root))
    assert index.epoch == epoch
    assert _lookups(index) == expected

    service = IndexService(index)
    queries = index.keys[:4]
    solo = index.point_lookup(queries)
    _refused(lambda: service.restore(root))
    service.submit_point(queries)
    (result,) = service.drain()
    assert result.epoch == index.epoch == epoch
    order = np.argsort(result.hits.lookup_ids)
    assert np.array_equal(result.hits.prim_indices[order], solo.result_rows)
    assert _digests(root) == before


def _fresh_save(tmp_path, name) -> Path:
    """Today's build and save of the fixture index ``name``."""
    index = RXIndex(make_snapshots.CONFIGS[name]())
    index.build(make_snapshots.fixture_keys())
    index.save(tmp_path / name)
    return tmp_path / name


#: the tree arrays of the legacy layout that a save no longer writes
LEGACY_ARRAYS = {"bvh": ("right",), "shard": ("right", "prim_indices")}


@pytest.mark.parametrize("name", sorted(make_snapshots.CONFIGS))
def test_fresh_save_moves_the_format2_arrays_into_format3(tmp_path, name):
    """Today's build and save write the format-2 fixture's arrays, bit for
    bit, in the format-3 layout.  A single tree's ``columns.seg`` is the
    fixture's byte for byte, and its ``bvh`` holds the fixture's arrays but
    the legacy one.  A forest's ``values`` segment holds the fixture's
    values, and each shard segment holds the fixture's shard arrays but the
    legacy ones, in the fixture's order and with its meta, after a
    ``keys`` array holding the fixture's keys of its rows.  The manifest's
    index block is the fixture's once the ten retired keys (the
    ``serve_*`` knobs and ``allow_updates``) are deleted from its config."""
    fixture = FIXTURES / "snapshots-v2" / name
    store = _fresh_save(tmp_path, name)
    old = load_snapshot(fixture, mmap=False).segments
    new = load_snapshot(store, mmap=False).segments
    fixture_keys, fixture_values = old["columns"][0]["keys"], old["columns"][0]["values"]
    if name == "single":
        columns = "epoch-00000000/columns.seg"
        assert (store / columns).read_bytes() == (fixture / columns).read_bytes()
        assert new.keys() == old.keys()
    else:
        assert new.keys() == (old.keys() - {"columns"}) | {"values"}
        (values,) = new["values"][0].values()
        assert values.tobytes() == fixture_values.tobytes()
    for segment, (arrays, meta) in old.items():
        if segment == "columns":
            continue
        legacy = LEGACY_ARRAYS.get(segment.split("-")[0], ())
        assert set(legacy) <= arrays.keys(), segment
        kept = {array: value for array, value in arrays.items() if array not in legacy}
        if segment.startswith("shard-"):
            kept = {"keys": fixture_keys[arrays["rows"]], **kept}
        written, written_meta = new[segment]
        assert list(written) == list(kept), segment
        for array, value in kept.items():
            got = written[array]
            assert (got.dtype, got.shape) == (value.dtype, value.shape), (segment, array)
            assert got.tobytes() == value.tobytes(), (segment, array)
        assert written_meta == meta, segment

    manifest = json.loads((fixture / "MANIFEST.json").read_text())
    assert len(RETIRED_CONFIG_KEYS) == 10
    for key in RETIRED_CONFIG_KEYS:
        del manifest["index"]["config"][key]
    fresh = json.loads((store / "MANIFEST.json").read_text())
    assert (manifest["format_version"], fresh["format_version"]) == (2, 3)
    assert {k: v for k, v in fresh.items() if k not in ("segments", "format_version")} == {
        k: v for k, v in manifest.items() if k not in ("segments", "format_version")
    }


#: SHA-256 of every segment file of the ``snapshots-v3`` fixtures, which a
#: fresh save of each fixture index writes.  The single tree's are the
#: bytes format 2 wrote too.  Any drift means the layout (or the segment
#: format) changed.
FRESH_SEGMENT_SHA256 = {
    "forest": {
        "epoch-00000000/shard-00000.seg": (
            "ebf53d1d351308320108c80060f970e995604fd1a2db00dd6e23d8fcbdf9e684"
        ),
        "epoch-00000000/shard-00004.seg": (
            "d8002fe6acb58bbb2f23bbab76c4e1d23adf7855e1e5f7d3ca99a093e9bb7fb8"
        ),
        "epoch-00000000/values.seg": (
            "bc0afab9cd6c6f415febb1b5770430994997972ea7e4a34f2eec2bcc35159a70"
        ),
    },
    "single": {
        "epoch-00000000/bvh.seg": (
            "ff7825a956f90d4f25ba76fd824d18de62b7674deb9257a3e7236e1c028ad7c1"
        ),
        "epoch-00000000/columns.seg": (
            "1aadb2ebfdf3b368f64a6c67d3c4b6d4379832182b411707ab4ed5c578479a64"
        ),
    },
}


@pytest.mark.parametrize("name", sorted(make_snapshots.CONFIGS))
def test_fresh_save_writes_the_v3_fixture(tmp_path, name):
    """A fresh build and save writes every file of the ``snapshots-v3``
    store byte for byte, manifest included, and the fixture's segments are
    the recorded ones."""
    fixture = FIXTURES / "snapshots-v3" / name
    expected = _digests(fixture)
    assert _digests(_fresh_save(tmp_path, name)) == expected
    del expected["MANIFEST.json"]
    assert expected == FRESH_SEGMENT_SHA256[name]


@pytest.mark.parametrize("name", sorted(make_snapshots.CONFIGS))
def test_v3_snapshot_loads_like_a_fresh_build(tmp_path, name):
    """Both load paths of a ``snapshots-v3`` store answer like a fresh build,
    hold its key column and remember every segment, so a save of the
    loaded index into a copy of the store hashes and writes nothing."""
    root = FIXTURES / "snapshots-v3" / name
    before = _digests(root)
    fresh = RXIndex(make_snapshots.CONFIGS[name]())
    fresh.build(make_snapshots.fixture_keys())
    expected = _lookups(fresh)
    for mmap in (True, False):
        loaded = RXIndex.load(root, mmap=mmap)
        assert loaded.stats()["persist"]["format_version"] == 3
        assert np.array_equal(loaded.keys, fresh.keys)
        assert not loaded.keys.flags.writeable and not loaded.values.flags.writeable
        assert _lookups(loaded) == expected, (name, mmap)
        store = tmp_path / f"copy-{mmap}"
        shutil.copytree(root, store)
        info = loaded.save(store)
        assert (info["segments_hashed"], info["segments_rewritten"], info["bytes_written"]) == (
            0,
            0,
            0,
        )
    assert _digests(root) == before


@pytest.mark.parametrize("name", sorted(make_snapshots.CONFIGS))
def test_save_over_a_format1_store_starts_afresh(tmp_path, name):
    """A save over a store the reader refuses commits format 3 as manifest
    version 1, rewrites every segment, and the store then loads and
    answers like the build that was saved."""
    store = tmp_path / name
    shutil.copytree(FIXTURES / "snapshots-v1" / name, store)
    index = RXIndex(make_snapshots.CONFIGS[name]())
    index.build(make_snapshots.fixture_keys())

    first = index.save(store)
    assert (first["format_version"], first["manifest_version"]) == (3, 1)
    assert first["segments_reused"] == 0
    assert first["segments_rewritten"] == first["segments_total"] >= 2
    manifest = json.loads((store / "MANIFEST.json").read_text())
    assert (manifest["format_version"], manifest["version"]) == (3, 1)
    for mmap in (True, False):
        assert _lookups(RXIndex.load(store, mmap=mmap)) == _lookups(index)

    second = index.save(store)
    assert (second["segments_rewritten"], second["segments_reused"]) == (
        0,
        second["segments_total"],
    )


@pytest.mark.parametrize("name", sorted(make_snapshots.CONFIGS))
def test_first_save_over_a_format2_store_starts_format3_afresh(tmp_path, name):
    """An index loaded from a format-2 store, saved over it, reuses no
    segment: it hashes and writes every one into a new epoch past the old
    one and commits format 3, and the prune then removes every format-2
    file.  The store then loads and answers like the fixture, and the next
    save reuses everything without hashing."""
    store = tmp_path / name
    shutil.copytree(FIXTURES / "snapshots-v2" / name, store)
    old_files = {path.relative_to(store) for path in store.rglob("*.seg")}
    loaded = RXIndex.load(store)
    expected = _lookups(loaded)

    first = loaded.save(store)
    assert (first["format_version"], first["manifest_version"], first["epoch"]) == (3, 2, 1)
    assert first["segments_reused"] == 0
    assert first["segments_hashed"] == first["segments_rewritten"] == first["segments_total"]
    assert first["bytes_written"] == first["bytes_on_disk"]
    assert not old_files & {path.relative_to(store) for path in store.rglob("*.seg")}
    for mmap in (True, False):
        reloaded = RXIndex.load(store, mmap=mmap)
        assert reloaded.stats()["persist"]["format_version"] == 3
        assert _lookups(reloaded) == expected

    second = loaded.save(store)
    assert (second["segments_hashed"], second["segments_rewritten"]) == (0, 0)
