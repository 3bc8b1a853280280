"""Snapshots written by older code must still load, bit-identically.

``tests/fixtures/`` holds a forest and a single-tree snapshot per manifest
format, written by ``tests/fixtures/make_snapshots.py``:

* ``snapshots-v1/`` — format 1 (CRC32C per segment), written when
  ``RXConfig`` still had the ``build_workers``, ``build_backend``,
  ``point_trace_mode`` and ``range_limit`` fields and the nine ``serve_*``
  serving knobs, so its manifests carry all of those keys;
* ``snapshots-v2/`` — format 2 (one SHA-256 per segment), written while
  ``RXConfig`` still had the ``serve_*`` knobs, so its manifests carry
  those nine keys.  Its segment files are byte-identical to format 1's.

Each must load through both load paths (memory-mapped and heap) and
answer point and range lookups — hits and counters — exactly like a fresh
build over the same keys, and a fresh build and save must still write the
format-2 segments byte for byte, and the manifest but for the ``serve_*``
keys.  Loads are read-only, so the checked-in fixtures stay
byte-identical.  A save over a copy of a format-1 store
migrates it: every segment is rewritten under format 2 and the format-1
files are pruned.
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
from repro.persist import load_snapshot

FIXTURES = Path(__file__).resolve().parent / "fixtures"
_spec = importlib.util.spec_from_file_location(
    "make_snapshots", FIXTURES / "make_snapshots.py"
)
make_snapshots = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_snapshots)

#: fixture directory -> the manifest format its snapshots were written in
FORMATS = {"snapshots-v1": 1, "snapshots-v2": 2}

#: the serving knobs both fixture eras' configs carry
SERVE_KEYS = [key for key in RETIRED_CONFIG_KEYS if key.startswith("serve_")]


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


@pytest.mark.parametrize("fixture", sorted(FORMATS))
@pytest.mark.parametrize("name", sorted(make_snapshots.CONFIGS))
def test_old_snapshot_loads_like_a_fresh_build(name, fixture):
    root = FIXTURES / fixture / name
    manifest = json.loads((root / "MANIFEST.json").read_text())
    assert manifest["format_version"] == FORMATS[fixture]
    # The fixture really is the old config: it carries the retired keys.
    carried = set(RETIRED_CONFIG_KEYS) & manifest["index"]["config"].keys()
    assert carried == (
        set(RETIRED_CONFIG_KEYS) if fixture == "snapshots-v1" else set(SERVE_KEYS)
    )
    before = _digests(root)

    config = make_snapshots.CONFIGS[name]()
    fresh = RXIndex(config)
    fresh.build(make_snapshots.fixture_keys())
    expected = _lookups(fresh)
    for mmap in (True, False):
        loaded = RXIndex.load(root, mmap=mmap)
        assert loaded.config == config
        assert loaded.stats()["persist"]["format_version"] == FORMATS[fixture]
        assert np.array_equal(loaded.keys, fresh.keys)
        assert _lookups(loaded) == expected, (name, mmap)

    assert _digests(root) == before


@pytest.mark.parametrize("name", sorted(make_snapshots.CONFIGS))
def test_fresh_save_is_byte_identical_to_the_format2_fixture(tmp_path, name):
    """Today's build and save write the checked-in format-2 store byte for
    byte: every segment (shard trees included), and the manifest once the
    nine retired ``serve_*`` keys are deleted from the fixture's config."""
    fixture = FIXTURES / "snapshots-v2" / name
    index = RXIndex(make_snapshots.CONFIGS[name]())
    index.build(make_snapshots.fixture_keys())
    index.save(tmp_path / name)
    written = _digests(tmp_path / name)
    expected = _digests(fixture)
    del written["MANIFEST.json"], expected["MANIFEST.json"]
    assert written == expected

    manifest = json.loads((fixture / "MANIFEST.json").read_text())
    assert len(SERVE_KEYS) == 9
    for key in SERVE_KEYS:
        del manifest["index"]["config"][key]
    # commit_manifest's encoding
    blob = (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode("utf-8")
    fresh = (tmp_path / name / "MANIFEST.json").read_bytes()
    assert fresh == blob
    assert (fixture / "MANIFEST.json").stat().st_size - len(fresh) == 289


@pytest.mark.parametrize("name", sorted(make_snapshots.CONFIGS))
def test_first_save_over_a_format1_store_rewrites_every_segment(tmp_path, name):
    store = tmp_path / name
    shutil.copytree(FIXTURES / "snapshots-v1" / name, store)
    format1_files = sorted(store.rglob("*.seg"))
    format1 = load_snapshot(store, mmap=False)
    loaded = RXIndex.load(store)
    expected = _lookups(loaded)

    first = loaded.save(store)
    # The payloads match the format-1 entries, but those entries carry no
    # file SHA-256 to reuse them by.
    assert first["segments_reused"] == 0
    assert first["segments_rewritten"] == first["segments_total"] == format1.segments_total
    assert first["format_version"] == 2
    assert json.loads((store / "MANIFEST.json").read_text())["format_version"] == 2
    assert not [path for path in format1_files if path.exists()]

    migrated = load_snapshot(store, mmap=False)
    for segment, (arrays, meta) in format1.segments.items():
        assert migrated.meta(segment) == meta
        for array_name, array in arrays.items():
            assert np.array_equal(migrated.arrays(segment)[array_name], array)
    reloaded = RXIndex.load(store)
    assert reloaded.stats()["persist"]["format_version"] == 2
    assert _lookups(reloaded) == expected

    second = reloaded.save(store)
    assert (second["segments_rewritten"], second["segments_reused"]) == (
        0,
        second["segments_total"],
    )
