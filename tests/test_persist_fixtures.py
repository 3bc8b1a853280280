"""Snapshots written by older code must still load, bit-identically.

``tests/fixtures/snapshots-v1/`` holds a forest and a single-tree snapshot
written by ``tests/fixtures/make_snapshots.py`` when ``RXConfig`` still had
the ``build_workers`` and ``build_backend`` fields, so their manifests carry
both keys.  Each must load through both load paths (memory-mapped and heap)
and answer point and range lookups — hits and counters — exactly like a
fresh build over the same keys.  Loads are read-only, so the checked-in
fixture stays byte-identical.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import RXIndex
from repro.core.config import RETIRED_CONFIG_KEYS

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
    root = FIXTURES / "snapshots-v1" / name
    manifest = json.loads((root / "MANIFEST.json").read_text())
    # The fixture really is the old format: it carries the retired keys.
    assert set(RETIRED_CONFIG_KEYS) <= manifest["index"]["config"].keys()
    before = _digests(root)

    config = make_snapshots.CONFIGS[name]()
    fresh = RXIndex(config)
    fresh.build(make_snapshots.fixture_keys())
    expected = _lookups(fresh)
    for mmap in (True, False):
        loaded = RXIndex.load(root, mmap=mmap)
        assert loaded.config == config
        assert np.array_equal(loaded.keys, fresh.keys)
        assert _lookups(loaded) == expected, (name, mmap)

    assert _digests(root) == before
