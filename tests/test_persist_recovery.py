"""Crash safety of the epoch store, proven by seeded fault injection.

The harness first *probes* a clean save to count how often each
``persist_*`` site is consulted, then re-runs the save with a scheduled
fault at every single (site, occurrence) pair — killing it mid segment
write, before an fsync, and before each atomic rename, including the
manifest commit itself.  After every interruption the store must still
open the *previous* committed epoch bit-identically (never a torn or
mixed-epoch state), and a subsequent clean save must succeed.

The verification side is exercised the destructive way: committed
segment files are byte-flipped, truncated and deleted, and the manifest's
epoch tags are tampered with — each must fail the load with an explicit
``SnapshotCorrupt`` / ``SnapshotTorn`` naming the bad segment, never
return wrong results.

``FAULT_SEED`` (env var, default 0) reseeds the injectors, mirroring the
chaos-bench convention; the scheduled ``at`` faults fire regardless of
the seed, so every boundary is covered in every run.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest

from repro.core.config import RXConfig, UpdatePolicy
from repro.core.rx_index import RXIndex
from repro.persist import (
    SnapshotCorrupt,
    SnapshotTorn,
    load_manifest,
    load_snapshot,
    save_snapshot,
)
from repro.persist.segments import TMP_PREFIX
from repro.rtx.bvh import bvh_arrays_diff
from repro.serve import FaultInjector, FaultSpec, InjectedFault

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))

#: the write-path durability boundaries (the read-path site is separate)
WRITE_SITES = ("persist_write", "persist_fsync", "persist_rename")


def _make_index(num_keys=1024, seed=7):
    rng = np.random.default_rng([seed, FAULT_SEED])
    keys = rng.integers(0, 1 << 18, size=num_keys, dtype=np.uint64)
    index = RXIndex()
    index.build(keys)
    return index, keys


def _point_probe(index, keys, seed=11):
    rng = np.random.default_rng([seed, FAULT_SEED])
    queries = rng.choice(keys, size=64)
    run = index.point_lookup(queries)
    return queries, run.result_rows.copy(), run.hits_per_lookup.copy()


class TestInterruptedSaves:
    def test_first_save_interruption_leaves_no_snapshot(self, tmp_path):
        index, _ = _make_index()
        injector = FaultInjector(
            seed=FAULT_SEED, specs={"persist_write": FaultSpec(at={0})}
        )
        with pytest.raises(InjectedFault):
            index.save(tmp_path, fault_injector=injector)
        with pytest.raises(SnapshotTorn, match="no committed snapshot"):
            RXIndex.load(tmp_path)
        # The wreckage does not poison a later clean save.
        index.save(tmp_path)
        assert not list(tmp_path.rglob(f"{TMP_PREFIX}*"))
        RXIndex.load(tmp_path)

    def test_every_boundary_preserves_the_committed_epoch(self, tmp_path):
        """Kill the save of epoch B at every (site, occurrence); epoch A
        must survive bit-identically every single time."""
        index, keys = _make_index()
        base = tmp_path / "base"
        index.save(base)
        golden = RXIndex.load(base)
        queries, golden_rows, golden_counts = _point_probe(golden, keys)

        # Move the index to state B (epoch bumped, different column).
        new_keys = keys.copy()
        new_keys[: len(new_keys) // 8] += 1
        index.update(new_keys)

        # Probe: how often does a clean save of B consult each site?
        probe_dir = tmp_path / "probe"
        shutil.copytree(base, probe_dir)
        probe = FaultInjector(seed=FAULT_SEED)
        index.save(probe_dir, fault_injector=probe)
        schedule = [
            (site, occurrence)
            for site in WRITE_SITES
            for occurrence in range(probe.occurrences[site])
        ]
        assert len(schedule) >= 6, "expected several durability boundaries"

        for trial, (site, occurrence) in enumerate(schedule):
            store = tmp_path / f"trial-{trial}"
            shutil.copytree(base, store)
            injector = FaultInjector(
                seed=FAULT_SEED, specs={site: FaultSpec(at={occurrence})}
            )
            with pytest.raises(InjectedFault) as excinfo:
                index.save(store, fault_injector=injector)
            assert excinfo.value.site == site

            survivor = RXIndex.load(store)
            label = f"{site}@{occurrence}"
            assert survivor.epoch == golden.epoch, label
            assert np.array_equal(survivor.keys, golden.keys), label
            assert bvh_arrays_diff(survivor.accel.bvh, golden.accel.bvh) is None, label
            rows = survivor.point_lookup(queries)
            assert np.array_equal(rows.result_rows, golden_rows), label
            assert np.array_equal(rows.hits_per_lookup, golden_counts), label

            # A clean retry fully publishes epoch B and garbage-collects
            # the interrupted save's temp files (loads are read-only).
            index.save(store)
            assert not list(store.rglob(f"{TMP_PREFIX}*")), label
            retried = RXIndex.load(store)
            assert bvh_arrays_diff(retried.accel.bvh, index.accel.bvh) is None, label

    def test_segments_published_before_the_crash_are_not_adopted(self, tmp_path):
        """A save that dies *after* renaming some segments but before the
        manifest commit must not leak those segments into a load."""
        index, keys = _make_index()
        index.save(tmp_path)
        before = load_snapshot(tmp_path)

        new_keys = keys.copy()
        new_keys[0] += 1
        index.update(new_keys)
        injector = FaultInjector(
            seed=FAULT_SEED,
            # The last rename is the manifest commit: every segment landed.
            specs={"persist_rename": FaultSpec(at={1})},
        )
        with pytest.raises(InjectedFault):
            index.save(tmp_path, fault_injector=injector)
        after = load_snapshot(tmp_path)
        assert after.manifest_version == before.manifest_version
        assert after.epoch == before.epoch
        assert np.array_equal(
            after.arrays("columns")["keys"], before.arrays("columns")["keys"]
        )

    def test_fresh_process_resave_never_clobbers_committed_epoch(self, tmp_path):
        """A new process restarts its in-memory epoch counter at zero, so a
        freshly built index saves with the same epoch number the store
        already committed.  The save must land in a *new* epoch directory —
        killed at any boundary, the committed snapshot survives untouched."""
        index_a, keys_a = _make_index(seed=7)
        base = tmp_path / "base"
        index_a.save(base)
        golden = RXIndex.load(base)
        queries, golden_rows, golden_counts = _point_probe(golden, keys_a)
        committed_files = {
            p: p.read_bytes() for p in sorted(base.rglob("*.seg"))
        }

        # "After a restart": a different index whose epoch counter collides
        # with the committed epoch.
        index_b, _ = _make_index(num_keys=768, seed=23)
        assert index_b.epoch == golden.epoch, "test needs the collision"

        probe_dir = tmp_path / "probe"
        shutil.copytree(base, probe_dir)
        probe = FaultInjector(seed=FAULT_SEED)
        index_b.save(probe_dir, fault_injector=probe)
        schedule = [
            (site, occurrence)
            for site in WRITE_SITES
            for occurrence in range(probe.occurrences[site])
        ]
        assert len(schedule) >= 6

        for trial, (site, occurrence) in enumerate(schedule):
            store = tmp_path / f"collision-{trial}"
            shutil.copytree(base, store)
            injector = FaultInjector(
                seed=FAULT_SEED, specs={site: FaultSpec(at={occurrence})}
            )
            with pytest.raises(InjectedFault):
                index_b.save(store, fault_injector=injector)
            label = f"{site}@{occurrence}"
            # Every committed segment file is byte-identical wreckage-proof:
            # the interrupted save never renamed over a referenced path.
            for path, blob in committed_files.items():
                relocated = store / path.relative_to(base)
                assert relocated.read_bytes() == blob, label
            survivor = RXIndex.load(store)
            assert survivor.epoch == golden.epoch, label
            rows = survivor.point_lookup(queries)
            assert np.array_equal(rows.result_rows, golden_rows), label
            assert np.array_equal(rows.hits_per_lookup, golden_counts), label

        # A completed save publishes B under a strictly newer epoch.
        done = tmp_path / "collision-done"
        shutil.copytree(base, done)
        result = index_b.save(done)
        assert result["epoch"] > golden.epoch
        reloaded = RXIndex.load(done)
        assert np.array_equal(reloaded.keys, index_b.keys)


class TestVerifiedLoads:
    def test_byte_flip_names_the_corrupt_segment(self, tmp_path):
        index, _ = _make_index()
        index.save(tmp_path)
        manifest_entries = load_snapshot(tmp_path)  # also proves it loads clean
        assert manifest_entries.segments_total >= 2
        for name in sorted(manifest_entries.segments):
            seg_files = sorted(tmp_path.rglob(f"{name}.seg"))
            assert seg_files, name
            target = seg_files[0]
            blob = bytearray(target.read_bytes())
            flip = len(blob) // 2
            blob[flip] ^= 0x40
            target.write_bytes(bytes(blob))
            with pytest.raises(SnapshotCorrupt, match="checksum") as excinfo:
                RXIndex.load(tmp_path)
            assert excinfo.value.segment == target.name
            blob[flip] ^= 0x40  # restore for the next segment's turn
            target.write_bytes(bytes(blob))
        RXIndex.load(tmp_path)

    def test_truncated_segment_is_torn(self, tmp_path):
        index, _ = _make_index()
        index.save(tmp_path)
        target = sorted(tmp_path.rglob("columns.seg"))[0]
        data = target.read_bytes()
        target.write_bytes(data[: len(data) // 2])
        with pytest.raises(SnapshotTorn, match="truncated") as excinfo:
            RXIndex.load(tmp_path)
        assert excinfo.value.segment == "columns.seg"

    def test_missing_segment_is_torn(self, tmp_path):
        index, _ = _make_index()
        index.save(tmp_path)
        sorted(tmp_path.rglob("bvh.seg"))[0].unlink()
        with pytest.raises(SnapshotTorn, match="missing") as excinfo:
            RXIndex.load(tmp_path)
        assert excinfo.value.segment == "bvh.seg"

    def test_mixed_epoch_manifest_is_torn(self, tmp_path):
        import json

        index, _ = _make_index()
        index.save(tmp_path)
        manifest_path = tmp_path / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        name = sorted(manifest["segments"])[0]
        manifest["segments"][name]["epoch"] += 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotTorn, match="mixed-epoch"):
            RXIndex.load(tmp_path)

    def test_injected_read_corruption(self, tmp_path):
        index, _ = _make_index()
        index.save(tmp_path)
        injector = FaultInjector(
            seed=FAULT_SEED, specs={"persist_read_corrupt": FaultSpec(at={0})}
        )
        with pytest.raises(SnapshotCorrupt, match="checksum"):
            RXIndex.load(tmp_path, fault_injector=injector)

    def test_orphan_temp_files_are_collected_by_saves_not_loads(self, tmp_path):
        index, _ = _make_index()
        index.save(tmp_path)
        orphan = tmp_path / f"{TMP_PREFIX}stale.seg"
        orphan.write_bytes(b"half a segment")
        # A load is strictly read-only: it must not unlink what could be a
        # concurrent writer's in-flight temp file.
        RXIndex.load(tmp_path)
        assert orphan.exists()
        # The next save (the store is single-writer) collects it.
        index.save(tmp_path)
        assert not orphan.exists()


def _swap_across_shards(rows, low, high):
    rows[low][0], rows[high][0] = rows[high][0], rows[low][0]


def _duplicate_within_shard(rows, low, high):
    rows[low][1] = rows[low][0]


def _drop_a_row(rows, low, high):
    rows[low] = rows[low][:-1]


class TestBuggyWriterShards:
    """Shard rows that checksum correctly but do not partition the column.

    A writer bug re-checksums whatever it writes, so the mutated segments
    below go through ``save_snapshot`` and pass every CRC; the load must
    still refuse them, naming the shard."""

    @pytest.mark.parametrize(
        "mutate, problem",
        [
            (_swap_across_shards, "belongs to another Morton bucket"),
            (_duplicate_within_shard, "appears more than once"),
            (_drop_a_row, "rows, but"),
        ],
        ids=["swap", "duplicate", "drop"],
    )
    def test_load_rejects_shard_rows_that_do_not_partition(
        self, tmp_path, mutate, problem
    ):
        rng = np.random.default_rng([5, FAULT_SEED])
        keys = rng.permutation(np.arange(4096, dtype=np.uint64))
        index = RXIndex(RXConfig.paper_default().with_delta_updates(shard_bits=4))
        index.build(keys)
        index.save(tmp_path / "good")
        snap = load_snapshot(tmp_path / "good", mmap=False)
        segments = {
            name: ({k: v.copy() for k, v in arrays.items()}, meta)
            for name, (arrays, meta) in snap.segments.items()
        }
        shard_names = sorted(name for name in segments if name.startswith("shard-"))
        assert len(shard_names) >= 2, "test needs a multi-shard forest"
        low, high = shard_names[0], shard_names[-1]

        # Control: an unmutated rewrite through the same path loads cleanly.
        save_snapshot(
            tmp_path / "control", epoch=snap.epoch, segments=segments,
            index_meta=snap.index_meta,
        )
        RXIndex.load(tmp_path / "control")

        rows = {name: segments[name][0]["rows"] for name in shard_names}
        mutate(rows, low, high)
        for name in shard_names:
            segments[name][0]["rows"] = rows[name]
        save_snapshot(
            tmp_path / "bad", epoch=snap.epoch, segments=segments,
            index_meta=snap.index_meta,
        )
        load_snapshot(tmp_path / "bad")  # every checksum passes
        for mmap in (True, False):
            with pytest.raises(SnapshotCorrupt, match=problem) as excinfo:
                RXIndex.load(tmp_path / "bad", mmap=mmap)
            assert excinfo.value.segment == low


class TestIncrementalSaves:
    def test_delta_update_save_rewrites_only_dirty_shards(self, tmp_path):
        rng = np.random.default_rng([3, FAULT_SEED])
        keys = rng.integers(0, 1 << 18, size=4096, dtype=np.uint64)
        config = RXConfig.paper_default()
        config.compaction = False
        config.allow_updates = True
        config.shard_bits = 4
        config.update_policy = UpdatePolicy.DELTA_SHARD
        index = RXIndex(config)
        index.build(keys)
        shards = index.accel.forest.non_empty_shards
        assert shards >= 3, "test needs a multi-shard forest"
        first = index.save(tmp_path)
        assert first["segments_total"] == shards + 1  # + the columns segment

        new_keys = keys.copy()
        new_keys[0] += 1  # dirties exactly the shard holding row 0
        outcome = index.update(new_keys)
        dirty = outcome.stats["dirty_shards"]
        assert dirty < shards

        second = index.save(tmp_path)
        # Dirty shards + the key column are rewritten; everything else is
        # referenced from the previous epoch's immutable files.
        assert second["segments_rewritten"] == dirty + 1
        assert second["segments_reused"] == (shards - dirty)
        assert second["epoch"] > first["epoch"]

        reloaded = RXIndex.load(tmp_path)
        assert bvh_arrays_diff(reloaded.accel.bvh, index.accel.bvh) is None

    def test_noop_resave_reuses_everything(self, tmp_path):
        index, _ = _make_index(num_keys=512)
        index.save(tmp_path)
        again = index.save(tmp_path)
        assert again["segments_rewritten"] == 0
        assert again["segments_reused"] == again["segments_total"]

    # Written segments record the CRC of their own write pass, not the
    # stub's 0, so this test no longer forces a collision; the
    # recorded-CRC test below does.
    def test_crc_collision_alone_never_reuses_a_changed_segment(
        self, tmp_path, monkeypatch
    ):
        """CRC32C is a corruption detector, not a content identity: when a
        changed payload collides with the committed entry's CRC (forced
        here by stubbing the CRC to a constant), the second independent
        digest must still force the rewrite — never silently persist stale
        data."""
        from repro.persist import store as store_mod

        monkeypatch.setattr(store_mod, "payload_crc", lambda arrays: 0)
        index, keys = _make_index(num_keys=512)
        index.save(tmp_path)

        new_keys = keys.copy()
        new_keys[0] += 1
        index.update(new_keys)
        result = index.save(tmp_path)
        assert result["segments_rewritten"] >= 1
        reloaded = RXIndex.load(tmp_path)
        assert np.array_equal(reloaded.keys, index.keys)

    def test_sha_collision_alone_never_reuses_a_changed_segment(
        self, tmp_path, monkeypatch
    ):
        """The mirror case: the SHA-256 is compared first and only a match
        computes the CRC32C, which must still force the rewrite when the
        SHA-256 collides (forced here by stubbing it to a constant)."""
        from repro.persist import store as store_mod

        monkeypatch.setattr(store_mod, "payload_sha256", lambda arrays: "0" * 64)
        index, keys = _make_index(num_keys=512)
        index.save(tmp_path)

        new_keys = keys.copy()
        new_keys[0] += 1
        index.update(new_keys)
        result = index.save(tmp_path)
        assert result["segments_rewritten"] >= 1
        reloaded = RXIndex.load(tmp_path)
        assert np.array_equal(reloaded.keys, index.keys)

    def test_recorded_crc_collision_never_reuses_a_changed_segment(
        self, tmp_path, monkeypatch
    ):
        """A real collision with the CRC the manifest recorded: written
        segments take their ``payload_crc32c`` from the write pass, not from
        ``store.payload_crc``, so the stub makes the changed key column's
        payload CRC equal its committed value.  Only the SHA-256 can then
        force the rewrite; reusing on the CRC would reload stale keys."""
        from repro.persist import store as store_mod

        index, keys = _make_index(num_keys=512)
        index.save(tmp_path)
        committed = load_manifest(tmp_path)["segments"]["columns"]
        monkeypatch.setattr(
            store_mod, "payload_crc", lambda arrays: int(committed["payload_crc32c"])
        )

        new_keys = keys.copy()
        new_keys[0] += 1
        index.update(new_keys)
        index.save(tmp_path)
        rewritten = load_manifest(tmp_path)["segments"]["columns"]
        assert rewritten["path"] != committed["path"]
        assert rewritten["payload_sha256"] != committed["payload_sha256"]
        reloaded = RXIndex.load(tmp_path)
        assert np.array_equal(reloaded.keys, new_keys)


class TestServiceRestart:
    def test_checkpoint_restore_retires_pinned_pages(self, tmp_path):
        from repro.serve import IndexService

        index, keys = _make_index()
        service = IndexService(index)
        lo = np.array([0], dtype=np.uint64)
        hi = np.array([1 << 17], dtype=np.uint64)
        service.submit_range(lo, hi, limit=8, order="key")
        page = service.drain()[0]
        assert page.next_cursor is not None

        service.checkpoint(tmp_path)
        pre_epoch = index.epoch
        service.restore(tmp_path)
        assert index.epoch > pre_epoch

        # A resume pinned to the pre-restore epoch fails explicitly...
        service.submit_range(
            lo, hi, limit=8, order="key",
            cursor=page.next_cursor, pin_epoch=page.epoch,
        )
        retired = service.drain()[0]
        assert retired.reason == "epoch_retired"

        # ...while a fresh scan serves bit-identically to the saved state.
        service.submit_range(lo, hi, limit=8, order="key")
        fresh = service.drain()[0]
        assert np.array_equal(fresh.hits.prim_indices, page.hits.prim_indices)

    def test_checkpoint_under_injected_faults_never_tears(self, tmp_path):
        from repro.serve import IndexService

        index, keys = _make_index()
        injector = FaultInjector(
            seed=FAULT_SEED,
            specs={"persist_rename": FaultSpec(probability=0.4)},
        )
        service = IndexService(index, fault_injector=injector)
        committed = 0
        expected_epoch = None
        expected_keys = None
        for round_index in range(6):
            new_keys = keys.copy()
            new_keys[: round_index + 1] += np.uint64(round_index + 1)
            index.update(new_keys)
            try:
                service.checkpoint(tmp_path)
                committed += 1
                expected_epoch = index.epoch
                expected_keys = index.keys.copy()
            except InjectedFault:
                pass
            if committed:
                # Whatever the fault pattern, the store always opens the
                # last epoch whose manifest commit actually landed — the
                # column state captured at that checkpoint, never a newer
                # or torn one.
                survivor = RXIndex.load(tmp_path)
                assert survivor.epoch == expected_epoch
                assert np.array_equal(survivor.keys, expected_keys)
        assert injector.fired["persist_rename"] >= 1
        assert committed >= 1
