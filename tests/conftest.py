"""Shared fixtures for the test suite."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import rx_index
from repro.persist import SnapshotError, load_manifest, save_snapshot
from repro.persist import segments as segment_files
from repro.rtx import traversal
from repro.workloads import dense_shuffled_keys, point_lookups, range_lookups
from repro.workloads.table import SecondaryIndexWorkload


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def provenance_cross_check(monkeypatch):
    """Every save an index makes also builds and hashes each segment it
    reused, and fails the test unless that digest is the committed entry's.

    A save reuses a segment without hashing it when the index vouches for
    it (it committed or loaded that entry and has not changed the segment
    since).  A wrong voucher would leave a stale file in the store; here it
    fails the save instead, in every test, the crash matrix included.  The
    check hashes through ``repro.persist.segments`` directly, so a spy on
    the store's ``payload_digest`` counts only the save's own hashing.
    """
    save = rx_index.save_snapshot

    def checked_save(path, *, segments, **kwargs):
        try:
            prior = load_manifest(path)["segments"]
        except SnapshotError:
            prior = {}
        result = save(path, segments=segments, **kwargs)
        for name, entry in result.entries.items():
            if prior.get(name) != entry:
                continue  # rewritten by this save
            segment = segments[name]
            arrays, meta = segment() if callable(segment) else segment
            digest = segment_files.segment_sha256(
                segment_files.payload_digest(arrays),
                segment_files.header_region(name, entry["epoch"], arrays, meta),
            )
            if digest != entry["sha256"]:
                raise AssertionError(
                    f"provenance cross-check: the save reused segment {name} "
                    f"({entry['path']}), but its state now hashes to {digest}"
                )
        return result

    monkeypatch.setattr(rx_index, "save_snapshot", checked_save)


@pytest.fixture
def commit_as_format():
    """``commit(store, snap, segments)`` commits ``segments`` at ``store``
    under the index block and manifest format of the loaded snapshot
    ``snap``: the way a buggy writer of that format would.  A save writes
    the current format, so the manifest (which no digest covers) is then
    edited back to ``snap.format_version``."""

    def commit(store, snap, segments) -> None:
        save_snapshot(store, epoch=snap.epoch, segments=segments, index_meta=snap.index_meta)
        manifest = load_manifest(store)
        manifest["format_version"] = snap.format_version
        (store / "MANIFEST.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")

    return commit


@pytest.fixture
def frontier_block(monkeypatch):
    """``set_block(block)`` runs the rest of the test's traces with
    ``FRONTIER_BLOCK = block``; ``None`` keeps the module's own block."""

    def set_block(block: int | None) -> None:
        if block is not None:
            monkeypatch.setattr(traversal, "FRONTIER_BLOCK", block)

    return set_block


@pytest.fixture
def small_keys() -> np.ndarray:
    """A dense, shuffled key column of 512 keys."""
    return dense_shuffled_keys(512, seed=7)


@pytest.fixture
def small_workload(small_keys) -> SecondaryIndexWorkload:
    """Key column + value column + 256 point lookups + 32 range lookups."""
    queries = point_lookups(small_keys, 256, seed=8)
    lowers, uppers = range_lookups(small_keys, 32, span=8, seed=9)
    return SecondaryIndexWorkload.from_keys(
        small_keys,
        point_queries=queries,
        range_lowers=lowers,
        range_uppers=uppers,
    )


@pytest.fixture
def sparse_workload() -> SecondaryIndexWorkload:
    """Sparse 32-bit keys (as in Section 4 of the paper) with point lookups."""
    from repro.workloads import sparse_uniform_keys

    keys = sparse_uniform_keys(512, key_bits=32, seed=11)
    queries = point_lookups(keys, 256, seed=12)
    return SecondaryIndexWorkload.from_keys(keys, point_queries=queries)
