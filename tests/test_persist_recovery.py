"""Crash safety of the epoch store, proven by seeded fault injection.

The harness first *probes* a clean save to count how often each
``persist_*`` site is consulted, then re-runs the save with a scheduled
fault at every single (site, occurrence) pair — killing it mid segment
write, before an fsync, and before each atomic rename, including the
manifest commit itself.  After every interruption the store must still
open the *previous* committed epoch bit-identically (never a torn or
mixed-epoch state), and a subsequent clean save must succeed.

The verification side is exercised the destructive way: committed
segment files are byte-flipped in every region (header length, header,
alignment padding, payload), truncated and deleted, and the manifest's
epoch tags are tampered with.  Segment headers and manifests that verify
but are malformed are forged too, and so are manifest index blocks that
do not describe their segments.  Each must fail the load with an explicit ``SnapshotCorrupt`` /
``SnapshotTorn`` naming the bad segment or field, never return wrong
results or escape as a raw error.

``FAULT_SEED`` (env var, default 0) reseeds the injectors and picks the
flipped bytes, mirroring the chaos-bench convention; the scheduled ``at``
faults fire regardless of the seed, so every boundary is covered in every
run.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import KeyMode, PrimitiveType, RangeRayMode, RXConfig, UpdatePolicy
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
from repro.rtx.pipeline import DeviceContext
from repro.serve import FaultInjector, FaultSpec, InjectedFault

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))

#: the write-path durability boundaries (the read-path site is separate)
WRITE_SITES = ("persist_write", "persist_fsync", "persist_rename")

FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: the regions of a segment file a byte flip must be caught in
REGIONS = ("header length", "header", "padding", "payload")


def _split(data: bytes) -> tuple[int, dict]:
    """A segment file's payload base and parsed JSON header."""
    (header_len,) = struct.unpack("<Q", data[8:16])
    return (16 + header_len + 63) // 64 * 64, json.loads(data[16 : 16 + header_len])


def _file_sha256(data: bytes) -> str:
    """The format-2 digest: SHA-256 of the payload region, then the header region."""
    base, _ = _split(data)
    return hashlib.sha256(data[base:] + data[:base]).hexdigest()


def _flip_offsets(data: bytes, rng) -> dict[str, int]:
    """One seeded byte offset per region of a segment file that has it.

    The header region is the magic, the header-length field and the JSON
    header; padding is every zero byte before the payload base and between
    arrays; payload is every array byte."""
    base, header = _split(data)
    region = np.full(len(data), REGIONS.index("padding"))
    region[: 16 + int.from_bytes(data[8:16], "little")] = REGIONS.index("header")
    region[8:16] = REGIONS.index("header length")
    for spec in header["arrays"]:
        lo = base + spec["offset"]
        region[lo : lo + spec["nbytes"]] = REGIONS.index("payload")
    return {
        name: int(rng.choice(np.flatnonzero(region == i)))
        for i, name in enumerate(REGIONS)
        if (region == i).any()
    }


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


def _flip_a_payload_byte(store):
    target = sorted(store.rglob("bvh.seg"))[0]
    data = bytearray(target.read_bytes())
    offset = _flip_offsets(bytes(data), np.random.default_rng(FAULT_SEED))["payload"]
    data[offset] ^= 0xFF
    target.write_bytes(bytes(data))


def _truncate_columns(store):
    target = sorted(store.rglob("columns.seg"))[0]
    data = target.read_bytes()
    target.write_bytes(data[: len(data) // 2])


def _delete_bvh(store):
    sorted(store.rglob("bvh.seg"))[0].unlink()


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
        """A flip in any region of any segment fails the SHA-256 verify; the
        header-length field's top byte also takes the bounds check that
        runs before the field splits the file."""
        index, _ = _make_index()
        index.save(tmp_path)
        snap = load_snapshot(tmp_path)  # also proves it loads clean
        assert snap.segments_total >= 2
        rng = np.random.default_rng(FAULT_SEED)
        flipped = set()
        for name in sorted(snap.segments):
            seg_files = sorted(tmp_path.rglob(f"{name}.seg"))
            assert seg_files, name
            target = seg_files[0]
            clean = target.read_bytes()
            offsets = {**_flip_offsets(clean, rng), "header length, top byte": 15}
            for region, offset in offsets.items():
                blob = bytearray(clean)
                blob[offset] ^= int(rng.integers(1, 256))
                target.write_bytes(bytes(blob))
                with pytest.raises(SnapshotCorrupt, match="checksum") as excinfo:
                    RXIndex.load(tmp_path)
                assert excinfo.value.segment == target.name, (name, region)
                if offset == 15:
                    assert "header-length field does not fit" in str(excinfo.value)
                flipped.add(region)
            target.write_bytes(clean)
        assert flipped >= set(REGIONS)
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

    @pytest.mark.parametrize(
        "damage, error, problem, segment",
        [
            (_flip_a_payload_byte, SnapshotCorrupt, "checksum", "bvh.seg"),
            (_truncate_columns, SnapshotTorn, "truncated", "columns.seg"),
            (_delete_bvh, SnapshotTorn, "missing", "bvh.seg"),
        ],
        ids=["flipped-bvh", "truncated-columns", "missing-bvh"],
    )
    def test_refused_restore_changes_nothing(
        self, tmp_path, damage, error, problem, segment
    ):
        """A segment that fails to verify refuses ``restore_from`` before
        the index adopts anything: it keeps its answers, counters, epoch
        and memory accounting, and updates and saves as before."""
        source, _ = _make_index(seed=3)
        source.save(tmp_path / "store")
        damage(tmp_path / "store")
        index, keys = _make_index()
        queries, rows, counts = _point_probe(index, keys)
        before = index.stats()
        memory = index.context.memory.current_bytes
        for mmap in (True, False):
            with pytest.raises(error, match=problem) as excinfo:
                index.restore_from(tmp_path / "store", mmap=mmap)
            assert excinfo.value.segment == segment
        assert index.stats() == before
        assert index.context.memory.current_bytes == memory
        run = index.point_lookup(queries)
        assert np.array_equal(run.result_rows, rows)
        assert np.array_equal(run.hits_per_lookup, counts)

        new_keys = keys.copy()
        new_keys[:8] += np.uint64(1)
        index.update(new_keys)
        assert index.epoch == before["epoch"] + 1
        index.save(tmp_path / "after")
        assert np.array_equal(RXIndex.load(tmp_path / "after").keys, new_keys)

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


def _float_rows(rows, low, high):
    rows[low] = rows[low].astype(np.float64)


def _unsigned_rows(rows, low, high):
    rows[low] = rows[low].astype(np.uint64)


def _narrow_rows(rows, low, high):
    rows[low] = rows[low].astype(np.int32)


def _rows_in_a_matrix(rows, low, high):
    rows[low] = rows[low].reshape(1, -1)


_NODE_ARRAYS = ("left", "right", "first_prim", "prim_count", "node_mins", "node_maxs")


def _short_node_arrays(tree):
    for name in _NODE_ARRAYS:
        tree[name] = tree[name][:-2]


def _left_child_past_the_end(tree):
    # An odd id with its successor, so only the bound catches it.
    inner = np.flatnonzero(tree["left"] >= 0)[-1]
    tree["left"][inner] = tree["left"].shape[0]
    tree["right"][inner] = tree["left"].shape[0] + 1


def _left_child_is_the_root(tree):
    tree["left"][np.flatnonzero(tree["left"] >= 0)[-1]] = 0


def _even_left_child(tree):
    # The root adopts nodes 2 and 3: node 1 loses its parent, node 3 gains one.
    tree["left"][0] += 1
    tree["right"][0] += 1


def _shared_children(tree):
    # Nodes 1 and 2 get the same children, orphaning node 2's own.
    tree["left"][2], tree["right"][2] = tree["left"][1], tree["right"][1]


def _leaf_past_the_rows(tree):
    tree["first_prim"][np.flatnonzero(tree["left"] < 0)[0]] = 10**6


def _leaf_range_overflows(tree):
    leaf = np.flatnonzero(tree["left"] < 0)[0]
    tree["first_prim"][leaf] = tree["prim_count"][leaf] = 2**62


def _short_node_mins(tree):
    tree["node_mins"] = tree["node_mins"][:-1]


def _overlapping_leaves(tree):
    tree["prim_count"][np.flatnonzero((tree["left"] < 0) & (tree["first_prim"] == 0))] += 1


def _leaves_in_row_order(tree):
    leaves = np.flatnonzero(tree["left"] < 0)
    return leaves[np.argsort(tree["first_prim"][leaves])]


def _leaf_one_row_short(tree):
    # A gap: the row after the shortened leaf is held by no leaf.
    leaves = _leaves_in_row_order(tree)
    tree["prim_count"][leaves[tree["prim_count"][leaves] >= 2][0]] -= 1


def _two_leaves_one_start(tree):
    # The second leaf moves onto the first one's start, keeping its length.
    first, second = _leaves_in_row_order(tree)[:2]
    tree["first_prim"][second] = tree["first_prim"][first]


def _leaf_ends_inside_the_next(tree):
    # A leaf grows by one row into a next leaf that holds two or more.
    leaves = _leaves_in_row_order(tree)
    i = np.flatnonzero(tree["prim_count"][leaves[1:]] >= 2)[0]
    tree["prim_count"][leaves[i]] += 1


def _drop_rows(segment, name):
    del segment[0]["rows"]


def _set_shard_meta(**fields):
    def mutate(segment, name):
        segment[1].update(fields)

    return mutate


def _drop_shard_meta(key):
    def mutate(segment, name):
        del segment[1][key]

    return mutate


def _next_bucket(segment, name):
    segment[1]["bucket"] += 1


class TestBuggyWriterShards:
    """Shard state that checksums correctly but is wrong.

    A writer bug re-checksums whatever it writes, so the mutated segments
    below go through ``save_snapshot`` and pass every digest; the load must
    still refuse them, naming the shard."""

    @staticmethod
    def _good_segments(tmp_path):
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
        # Control: an unmutated rewrite through the same path loads cleanly.
        save_snapshot(
            tmp_path / "control", epoch=snap.epoch, segments=segments,
            index_meta=snap.index_meta,
        )
        RXIndex.load(tmp_path / "control")
        return snap, segments

    @staticmethod
    def _assert_load_rejects(tmp_path, snap, segments, problem, segment):
        save_snapshot(
            tmp_path / "bad", epoch=snap.epoch, segments=segments,
            index_meta=snap.index_meta,
        )
        load_snapshot(tmp_path / "bad")  # every checksum passes
        for mmap in (True, False):
            with pytest.raises(SnapshotCorrupt, match=problem) as excinfo:
                RXIndex.load(tmp_path / "bad", mmap=mmap)
            assert excinfo.value.segment == segment

    @pytest.mark.parametrize(
        "mutate, problem",
        [
            (_swap_across_shards, "belongs to another Morton bucket"),
            (_duplicate_within_shard, "appears more than once"),
            (_drop_a_row, "rows, but"),
            (_float_rows, r"rows array is float64 \(\d+,\), not int64"),
            (_unsigned_rows, r"rows array is uint64 \(\d+,\), not int64"),
            (_narrow_rows, r"rows array is int32 \(\d+,\), not int64"),
            (_rows_in_a_matrix, r"rows array is int64 \(1, \d+\), not int64 \(\d+,\)"),
        ],
        ids=["swap", "duplicate", "drop", "float64", "uint64", "int32", "2-d"],
    )
    def test_load_rejects_shard_rows_that_do_not_partition(
        self, tmp_path, mutate, problem
    ):
        snap, segments = self._good_segments(tmp_path)
        shard_names = sorted(name for name in segments if name.startswith("shard-"))
        assert len(shard_names) >= 2, "test needs a multi-shard forest"
        low, high = shard_names[0], shard_names[-1]
        rows = {name: segments[name][0]["rows"] for name in shard_names}
        mutate(rows, low, high)
        for name in shard_names:
            segments[name][0]["rows"] = rows[name]
        self._assert_load_rejects(tmp_path, snap, segments, problem, low)

    @pytest.mark.parametrize(
        "mutate, problem",
        [
            (_short_node_arrays, r"tree has \d+ inner nodes, not \d+"),
            (_left_child_past_the_end, r"has children \(\d+, "),
            (_left_child_is_the_root, r"has children \(0, "),
            (_even_left_child, r"tree node 0 has children \(2, 3\)"),
            (_shared_children, r"tree node \d+ has 2 parents"),
            (_leaf_past_the_rows, r"holds rows \[1000000, "),
            (_leaf_range_overflows, r"holds rows \[4611686018427387904, "),
            (_short_node_mins, "tree array node_mins is float32"),
            (_overlapping_leaves, "2 tree leaves hold its row"),
            (_leaf_one_row_short, "0 tree leaves hold its row"),
            (_two_leaves_one_start, "2 tree leaves hold its row"),
            (_leaf_ends_inside_the_next, "2 tree leaves hold its row"),
        ],
        ids=[
            "short-node-arrays",
            "left-past-the-end",
            "left-is-the-root",
            "even-left-child",
            "shared-children",
            "leaf-past-the-rows",
            "leaf-range-overflows",
            "short-node-mins",
            "overlapping-leaves",
            "leaf-gap",
            "two-leaves-one-start",
            "leaf-ends-inside-the-next",
        ],
    )
    @pytest.mark.parametrize("which", [min, max], ids=["first", "last"])
    def test_load_rejects_malformed_shard_trees(self, tmp_path, mutate, problem, which):
        """A shard tree the splice would place into its neighbours' blocks,
        into a cycle, or over rows it does not hold."""
        snap, segments = self._good_segments(tmp_path)
        name = which(
            name
            for name, (_, meta) in segments.items()
            if name.startswith("shard-") and meta["delegated"]
        )
        mutate(segments[name][0])
        self._assert_load_rejects(tmp_path, snap, segments, problem, name)

    @pytest.mark.parametrize(
        "mutate, problem",
        [
            (_drop_rows, "holds no rows array"),
            (_drop_shard_meta("bucket"), r"bucket \(missing\) is not an int"),
            (_set_shard_meta(bucket="0"), "bucket '0' is not an int"),
            (_set_shard_meta(bucket=0.0), "bucket 0.0 is not an int"),
            (_set_shard_meta(bucket=False), "bucket False is not an int"),
            (_next_bucket, r"bucket \d+ does not match the name shard-\d{5}"),
            (_set_shard_meta(delegated="yes"), "delegated 'yes' is not a bool"),
            (_set_shard_meta(delegated=1), "delegated 1 is not a bool"),
            (_drop_shard_meta("delegated"), r"delegated \(missing\) is not a bool"),
        ],
        ids=[
            "no-rows", "no-bucket", "string-bucket", "float-bucket", "bool-bucket",
            "other-bucket", "string-delegated", "int-delegated", "no-delegated",
        ],
    )
    def test_malformed_shard_segment_is_refused(self, tmp_path, mutate, problem):
        """A shard segment whose meta or arrays a load cannot read fails
        both ways a snapshot enters an index, naming the segment, before
        any device memory is allocated; a refused restore changes
        nothing."""
        snap, segments = self._good_segments(tmp_path)
        name = min(name for name in segments if name.startswith("shard-"))
        mutate(segments[name], name)
        store = tmp_path / "bad"
        save_snapshot(store, epoch=snap.epoch, segments=segments, index_meta=snap.index_meta)
        load_snapshot(store)  # every checksum passes
        index, keys = _make_index()
        queries, rows, counts = _point_probe(index, keys)
        before = index.stats()
        memory = index.context.memory.current_bytes
        for mmap in (True, False):
            context = DeviceContext()
            with pytest.raises(SnapshotCorrupt, match=problem) as excinfo:
                RXIndex.load(store, mmap=mmap, context=context)
            assert excinfo.value.segment == name
            assert context.memory.peak_bytes == 0
            with pytest.raises(SnapshotCorrupt, match=problem) as excinfo:
                index.restore_from(store, mmap=mmap)
            assert excinfo.value.segment == name
        assert index.stats() == before
        assert index.context.memory.current_bytes == memory
        run = index.point_lookup(queries)
        assert np.array_equal(run.result_rows, rows)
        assert np.array_equal(run.hits_per_lookup, counts)


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

    @pytest.mark.parametrize("change", ["meta", "dtype", "shape"])
    def test_reuse_requires_the_same_header(self, tmp_path, change):
        """The file digest covers the header, so a segment whose payload
        bytes are unchanged but whose meta, dtype or shape changed is
        rewritten — reusing it would load the stale header."""
        keys = np.arange(16, dtype=np.uint64)
        save_snapshot(
            tmp_path, epoch=0, segments={"seg": ({"x": keys}, {"tag": 1})}, index_meta={}
        )
        arrays, meta = {
            "meta": ({"x": keys}, {"tag": 2}),
            "dtype": ({"x": keys.view(np.int64)}, {"tag": 1}),
            "shape": ({"x": keys.reshape(4, 4)}, {"tag": 1}),
        }[change]
        result = save_snapshot(
            tmp_path, epoch=1, segments={"seg": (arrays, meta)}, index_meta={}
        )
        assert (result.segments_rewritten, result.segments_reused) == (1, 0)
        for mmap in (True, False):
            snap = load_snapshot(tmp_path, mmap=mmap)
            assert snap.meta("seg") == meta
            loaded = snap.arrays("seg")["x"]
            assert (loaded.dtype, loaded.shape) == (arrays["x"].dtype, arrays["x"].shape)
            assert np.array_equal(loaded, arrays["x"])

    def test_crc_collision_alone_never_reuses_a_changed_segment(self, tmp_path):
        """Reuse is decided by the file SHA-256 alone: after an update, the
        incremental save rewrites the changed key column, and the store
        reloads the new keys."""
        index, keys = _make_index(num_keys=512)
        index.save(tmp_path)
        committed = load_manifest(tmp_path)["segments"]["columns"]

        new_keys = keys.copy()
        new_keys[0] += 1
        index.update(new_keys)
        result = index.save(tmp_path)
        assert result["segments_rewritten"] >= 1
        assert load_manifest(tmp_path)["segments"]["columns"]["path"] != committed["path"]
        reloaded = RXIndex.load(tmp_path)
        assert np.array_equal(reloaded.keys, new_keys)


def _forged_store(root: Path, mutate) -> None:
    """A one-segment store whose segment header ``mutate`` rewrote, with the
    manifest's digest recomputed over the bad bytes, so only the header
    checks stand between it and a load."""
    arrays = {"a": np.arange(3, dtype=np.int64) - 7, "b": np.arange(5, dtype=np.uint8)}
    save_snapshot(root, epoch=0, segments={"bad": (arrays, {"tag": 1})}, index_meta={})
    manifest = load_manifest(root)
    entry = manifest["segments"]["bad"]
    path = root / entry["path"]
    data = path.read_bytes()
    base, header = _split(data)
    header_len = int.from_bytes(data[8:16], "little")
    forged = json.dumps(mutate(header), separators=(",", ":")).encode()
    assert len(forged) <= header_len, "a forged header must fit the original"
    data = data[:16] + forged.ljust(header_len) + data[16 + header_len :]
    path.write_bytes(data)
    entry["sha256"] = _file_sha256(data)
    (root / "MANIFEST.json").write_text(json.dumps(manifest))


def _with_array(i, **fields):
    def mutate(header):
        header["arrays"][i].update(fields)
        return header

    return mutate


def _with_header(**fields):
    def mutate(header):
        header.update(fields)
        return header

    return mutate


def _without_arrays(header):
    del header["arrays"]
    return header


#: (case id, header mutation, the field the error must name)
_MALFORMED_HEADERS = [
    ("nbytes-vs-shape", _with_array(0, nbytes=16), "arrays[0].nbytes"),
    ("unknown-dtype", _with_array(0, dtype="<x9"), "arrays[0].dtype"),
    ("object-dtype", _with_array(0, dtype="|O"), "arrays[0].dtype"),
    ("no-arrays", _without_arrays, "arrays"),
    ("list-header", lambda header: [header], "header"),
    ("string-epoch", _with_header(epoch="seven"), "epoch"),
    ("bool-epoch", _with_header(epoch=False), "epoch"),
    ("negative-offset", _with_array(1, offset=-16), "arrays[1].offset"),
    ("unaligned-offset", _with_array(0, offset=8), "arrays[0].offset"),
    ("overlapping-spans", _with_array(1, offset=0), "arrays[1].offset"),
    ("span-past-the-end", _with_array(1, offset=4096), "arrays[1].offset"),
    ("negative-shape", _with_array(0, shape=[-1]), "arrays[0].shape"),
    ("float-shape", _with_array(0, shape=[3.0]), "arrays[0].shape"),
    ("unnamed-array", _with_array(0, name=7), "arrays[0].name"),
    ("duplicate-name", _with_array(1, name="a"), "arrays[1].name"),
    ("spec-not-object", _with_header(arrays=["a"]), "arrays[0]"),
    ("meta-not-object", _with_header(meta=[1]), "meta"),
]


class TestMalformedHeaders:
    """Segment headers that pass the digest but do not describe arrays
    inside the file (a writer bug re-digests whatever it wrote)."""

    @pytest.mark.parametrize(
        "mutate, field",
        [case[1:] for case in _MALFORMED_HEADERS],
        ids=[case[0] for case in _MALFORMED_HEADERS],
    )
    def test_header_is_validated_before_any_view(self, tmp_path, mutate, field):
        _forged_store(tmp_path, mutate)
        for mmap in (True, False):
            with pytest.raises(SnapshotCorrupt, match=re.escape(field)) as excinfo:
                load_snapshot(tmp_path, mmap=mmap)
            assert excinfo.value.segment == "bad.seg"
            assert "malformed header" in str(excinfo.value)

    def test_an_unforged_header_loads(self, tmp_path):
        _forged_store(tmp_path, lambda header: header)
        snap = load_snapshot(tmp_path)
        assert snap.format_version == 2
        assert snap.arrays("bad")["a"].tolist() == [-7, -6, -5]


def _set_entry(**fields):
    def mutate(manifest):
        manifest["segments"]["seg"].update(fields)

    return mutate


def _set_top(**fields):
    def mutate(manifest):
        manifest.update(fields)

    return mutate


#: (case id, mutation, regex the error must match, segment)
_MALFORMED_MANIFESTS = [
    ("segments-list", _set_top(segments=[]), "segments is not a JSON object", "MANIFEST.json"),
    ("index-list", _set_top(index=[]), "index is not a JSON object", "MANIFEST.json"),
    ("string-version", _set_top(version="1"), "version '1' is not", "MANIFEST.json"),
    ("bool-version", _set_top(version=True), "version True is not", "MANIFEST.json"),
    ("negative-epoch", _set_top(epoch=-1), "epoch -1 is not", "MANIFEST.json"),
    ("string-epoch", _set_top(epoch="0"), "epoch '0' is not", "MANIFEST.json"),
    ("format-1", _set_top(format_version=1), "format version 1 is not", "MANIFEST.json"),
    ("format-3", _set_top(format_version=3), "format version 3 is not", "MANIFEST.json"),
    ("bool-format", _set_top(format_version=True), "format version True is not", "MANIFEST.json"),
    ("entry-not-object", _set_top(segments={"seg": 7}), "is not a JSON object", "seg"),
    ("string-length", _set_entry(length="100"), "length '100' is not", "seg"),
    ("string-entry-epoch", _set_entry(epoch="0"), "epoch '0' is not", "seg"),
    ("int-path", _set_entry(path=7), "path 7 is not", "seg"),
    ("absolute-path", _set_entry(path="/etc/passwd"), "path '/etc/passwd' is not", "seg"),
    ("parent-path", _set_entry(path="../x.seg"), r"path '\.\./x\.seg' is not", "seg"),
    ("empty-path", _set_entry(path=""), "path '' is not", "seg"),
    ("short-sha256", _set_entry(sha256="ab" * 16), "sha256 'abab", "seg"),
    ("upper-sha256", _set_entry(sha256="AB" * 32), "sha256 'ABAB", "seg"),
    ("int-sha256", _set_entry(sha256=0), "sha256 0 is not", "seg"),
]


class TestMalformedManifests:
    """Manifest fields of the wrong type, and format versions other than 2,
    fail as ``SnapshotCorrupt`` naming the field, and a save over such a
    store starts afresh, as it does over a manifest that does not parse."""

    @pytest.mark.parametrize(
        "mutate, problem, segment",
        [case[1:] for case in _MALFORMED_MANIFESTS],
        ids=[case[0] for case in _MALFORMED_MANIFESTS],
    )
    def test_field_types_are_checked(self, tmp_path, mutate, problem, segment):
        arrays = {"x": np.arange(8, dtype=np.uint64)}
        save_snapshot(tmp_path, epoch=3, segments={"seg": (arrays, None)}, index_meta={})
        manifest = load_manifest(tmp_path)
        mutate(manifest)
        (tmp_path / "MANIFEST.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotCorrupt, match=problem) as excinfo:
            load_snapshot(tmp_path)
        assert excinfo.value.segment == segment

        result = save_snapshot(
            tmp_path, epoch=0, segments={"seg": (arrays, None)}, index_meta={}
        )
        assert (result.manifest_version, result.epoch) == (1, 0)
        assert (result.segments_rewritten, result.segments_reused) == (1, 0)
        assert np.array_equal(load_snapshot(tmp_path).arrays("seg")["x"], arrays["x"])


def _set_index(**fields):
    def mutate(index_meta):
        index_meta.update(fields)

    return mutate


def _drop_index(key):
    def mutate(index_meta):
        del index_meta[key]

    return mutate


def _set_config(**fields):
    def mutate(index_meta):
        index_meta["config"].update(fields)

    return mutate


_BOTH = ("forest", "single")
_MANIFEST = "MANIFEST.json"

#: (case id, fixture stores it applies to, mutation of the manifest's index
#: block or the name of a segment entry to delete, regex the error must
#: match, segment it must name)
_BAD_INDEX_BLOCKS = [
    ("no-config", _BOTH, _drop_index("config"), "no valid index config", _MANIFEST),
    ("config-list", _BOTH, _set_index(config=[]), r"\[\] is not a JSON object", _MANIFEST),
    (
        "config-retired-key", _BOTH, _set_config(build_workers=4),
        r"unknown keys \['build_workers'\]", _MANIFEST,
    ),
    (
        "config-string-shard-bits", ("forest",), _set_config(shard_bits="3"),
        "no valid index config", _MANIFEST,
    ),
    ("no-kind", _BOTH, _drop_index("kind"), r"kind \(missing\) is not", _MANIFEST),
    ("bvh-kind", ("forest",), _set_index(kind="bvh"), "kind 'bvh' is not 'forest'", _MANIFEST),
    (
        "forest-kind", ("single",), _set_index(kind="forest"),
        "kind 'forest' is not 'bvh'", _MANIFEST,
    ),
    ("no-num-keys", _BOTH, _drop_index("num_keys"), r"num_keys \(missing\)", _MANIFEST),
    ("more-num-keys", _BOTH, _set_index(num_keys=257), "num_keys 257 is not the 256", _MANIFEST),
    ("bool-num-keys", ("single",), _set_index(num_keys=True), "num_keys True is not", _MANIFEST),
    (
        "fewer-num-primitives", _BOTH, _set_index(num_primitives=255),
        "num_primitives 255 is not the 256", _MANIFEST,
    ),
    (
        "negative-refit-generation", _BOTH, _set_index(refit_generation=-1),
        "refit_generation -1 is not", _MANIFEST,
    ),
    (
        "string-refit-generation", ("single",), _set_index(refit_generation="0"),
        "refit_generation '0' is not", _MANIFEST,
    ),
    ("int-compacted", _BOTH, _set_index(compacted=1), "compacted 1 is not a bool", _MANIFEST),
    ("no-compacted", ("single",), _drop_index("compacted"), r"compacted \(missing\)", _MANIFEST),
    ("no-columns", _BOTH, "columns", "lists no columns segment", "columns"),
    ("no-bvh", ("single",), "bvh", "lists no bvh segment", "bvh"),
    # A config the keys encode under differently: the single tree's root
    # box is not their union, and the forest's partition moves.
    (
        "decomposition-4+4+8", ("single",), _set_config(decomposition="4+4+8"),
        r"tree root box .* is not the union", "bvh",
    ),
    (
        "decomposition-2+2+4", ("single",), _set_config(decomposition="2+2+4"),
        r"tree root box .* is not the union", "bvh",
    ),
    (
        "decomposition-4+4+8", ("forest",), _set_config(decomposition="4+4+8"),
        "shard set does not match the Morton partition", "shard-00002",
    ),
    (
        "decomposition-2+2+4", ("forest",), _set_config(decomposition="2+2+4"),
        "shard set does not match the Morton partition", "shard-00001",
    ),
]

_INDEX_BLOCK_CASES = [
    pytest.param(name, mutate, problem, segment, id=f"{name}-{case_id}")
    for case_id, names, mutate, problem, segment in _BAD_INDEX_BLOCKS
    for name in names
]


def _bad_index_block_store(tmp_path, name, mutate) -> Path:
    """A copy of the ``snapshots-v2`` fixture ``name`` with only its
    manifest edited: ``mutate`` rewrites the index block, or names a
    segment entry to delete."""
    store = tmp_path / name
    shutil.copytree(FIXTURES / "snapshots-v2" / name, store)
    manifest = json.loads((store / "MANIFEST.json").read_text())
    if isinstance(mutate, str):
        del manifest["segments"][mutate]
    else:
        mutate(manifest["index"])
    (store / "MANIFEST.json").write_text(json.dumps(manifest))
    load_snapshot(store)  # every segment still verifies
    return store


def _drop_array(segment, array):
    def mutate(segments):
        del segments[segment][0][array]

    return mutate


def _set_array(segment, array, change):
    def mutate(segments):
        arrays = segments[segment][0]
        arrays[array] = change(arrays[array])

    return mutate


def _short_values(segments):
    arrays = segments["columns"][0]
    arrays["values"] = arrays["values"][:-1]


class TestBadIndexBlocks:
    """A manifest whose index block does not describe its segments, or a
    segment without the arrays the index needs, fails both ways a snapshot
    enters an index with ``SnapshotCorrupt`` naming ``MANIFEST.json`` or
    the segment, and a refused ``restore_from`` leaves the index exactly
    as it was."""

    @pytest.mark.parametrize("name, mutate, problem, segment", _INDEX_BLOCK_CASES)
    def test_load_refuses(self, tmp_path, name, mutate, problem, segment):
        store = _bad_index_block_store(tmp_path, name, mutate)
        for mmap in (True, False):
            with pytest.raises(SnapshotCorrupt, match=problem) as excinfo:
                RXIndex.load(store, mmap=mmap)
            assert excinfo.value.segment == segment

    @pytest.mark.parametrize("name, mutate, problem, segment", _INDEX_BLOCK_CASES)
    def test_refused_restore_changes_nothing(
        self, tmp_path, name, mutate, problem, segment
    ):
        store = _bad_index_block_store(tmp_path, name, mutate)
        index, keys = _make_index()
        queries, rows, counts = _point_probe(index, keys)
        before = index.stats()
        memory = index.context.memory.current_bytes
        for mmap in (True, False):
            with pytest.raises(SnapshotCorrupt, match=problem) as excinfo:
                index.restore_from(store, mmap=mmap)
            assert excinfo.value.segment == segment
        assert index.stats() == before
        assert index.context.memory.current_bytes == memory
        run = index.point_lookup(queries)
        assert np.array_equal(run.result_rows, rows)
        assert np.array_equal(run.hits_per_lookup, counts)

        new_keys = keys.copy()
        new_keys[:8] += np.uint64(1)
        index.update(new_keys)
        assert index.epoch == before["epoch"] + 1
        index.save(tmp_path / "after")
        reloaded = RXIndex.load(tmp_path / "after")
        assert np.array_equal(reloaded.keys, new_keys)
        assert bvh_arrays_diff(reloaded.accel.bvh, index.accel.bvh) is None

    @pytest.mark.parametrize(
        "mutate, segment, problem",
        [
            (_drop_array("columns", "keys"), "columns", r"KeyError\('keys'\)"),
            (_drop_array("columns", "values"), "columns", r"KeyError\('values'\)"),
            (_short_values, "columns", "same shape as keys"),
            (_drop_array("bvh", "prim_indices"), "bvh", r"missing fields \['prim_indices'\]"),
            (
                _set_array("bvh", "node_mins", lambda a: a[:0]), "bvh",
                r"tree array node_mins is float32 \(0, 3\), not float32 \(k, 3\)",
            ),
            (
                _set_array("bvh", "node_maxs", lambda a: a.astype(np.float64)), "bvh",
                r"tree array node_maxs is float64 \(\d+, 3\)",
            ),
        ],
        ids=[
            "no-keys", "no-values", "short-values", "no-prim-indices", "no-node-boxes",
            "float64-node-boxes",
        ],
    )
    def test_segment_without_its_arrays_is_refused(
        self, tmp_path, mutate, segment, problem
    ):
        """A writer bug digests whatever it writes, so these stores pass
        every checksum."""
        snap = load_snapshot(FIXTURES / "snapshots-v2" / "single", mmap=False)
        segments = {
            name: ({k: v.copy() for k, v in arrays.items()}, meta)
            for name, (arrays, meta) in snap.segments.items()
        }
        mutate(segments)
        store = tmp_path / "bad"
        save_snapshot(store, epoch=snap.epoch, segments=segments, index_meta=snap.index_meta)
        index, _ = _make_index()
        before = index.stats()
        for mmap in (True, False):
            for enter in (lambda: RXIndex.load(store, mmap=mmap),
                          lambda: index.restore_from(store, mmap=mmap)):
                with pytest.raises(SnapshotCorrupt, match=problem) as excinfo:
                    enter()
                assert excinfo.value.segment == segment
        assert index.stats() == before

    @pytest.mark.parametrize("decomposition", [None, "22+23+19"], ids=["unedited", "22+23+19"])
    @pytest.mark.parametrize("name", ["forest", "single"])
    def test_config_the_keys_encode_alike_under_loads(self, tmp_path, name, decomposition):
        """Control for the decomposition edits: a config under which the
        stored keys encode to the same boxes loads, and answers every
        stored key like the unedited fixture."""
        edit = (lambda index_meta: None) if decomposition is None else _set_config(
            decomposition=decomposition
        )
        store = _bad_index_block_store(tmp_path, name, edit)
        unedited = RXIndex.load(FIXTURES / "snapshots-v2" / name)
        for mmap in (True, False):
            loaded = RXIndex.load(store, mmap=mmap)
            assert loaded.config.as_dict()["decomposition"] == (
                decomposition or unedited.config.as_dict()["decomposition"]
            )
            got, want = loaded.point_lookup(loaded.keys), unedited.point_lookup(unedited.keys)
            assert np.array_equal(got.result_rows, want.result_rows)
            assert np.array_equal(got.hits_per_lookup, want.hits_per_lookup)
            assert (got.hits_per_lookup > 0).all()

    @pytest.mark.parametrize(
        "make_config",
        [
            lambda: RXConfig.paper_default(),
            lambda: replace(RXConfig.paper_default(), compaction=False),
            lambda: replace(RXConfig.paper_default(), bvh_builder="sah"),
            lambda: replace(RXConfig.paper_default(), bvh_builder="median"),
            lambda: replace(RXConfig.paper_default(), primitive=PrimitiveType.SPHERE),
            lambda: replace(RXConfig.paper_default(), primitive=PrimitiveType.AABB),
            lambda: replace(
                RXConfig.paper_default(),
                key_mode=KeyMode.EXTENDED,
                range_ray_mode=RangeRayMode.PARALLEL_FROM_ZERO,
            ),
            lambda: RXConfig.paper_default().with_updates_enabled(),
        ],
        ids=["lbvh", "uncompacted", "sah", "median", "sphere", "aabb", "extended", "refit"],
    )
    def test_every_built_or_refitted_single_tree_passes_the_root_box_check(
        self, tmp_path, make_config
    ):
        config = make_config()
        keys = np.random.default_rng([9, FAULT_SEED]).permutation(
            np.arange(1, 1025, dtype=np.uint64) * np.uint64(3)
        )
        index = RXIndex(config)
        index.build(keys)
        if config.update_policy is UpdatePolicy.REFIT:
            index.update(keys[::-1].copy())
            assert index.accel.bvh.refit_generation == 1
        index.save(tmp_path)
        for mmap in (True, False):
            loaded = RXIndex.load(tmp_path, mmap=mmap)
            assert bvh_arrays_diff(loaded.accel.bvh, index.accel.bvh) is None
            queries = index.keys[::7]
            assert np.array_equal(
                loaded.point_lookup(queries).result_rows, index.point_lookup(queries).result_rows
            )

    @pytest.mark.parametrize("name", ["forest", "single"])
    def test_unedited_fixture_restores(self, tmp_path, name):
        """Control: the unedited copy restores, and the restored index
        answers like a fresh load of the same store."""
        store = _bad_index_block_store(tmp_path, name, lambda index_meta: None)
        index, _ = _make_index()
        epoch = index.epoch
        info = index.restore_from(store)
        assert info["epoch"] == index.epoch > epoch
        assert index.stats()["persist"]["loads"] == 1
        loaded = RXIndex.load(store)
        assert np.array_equal(index.keys, loaded.keys)
        assert bvh_arrays_diff(index.accel.bvh, loaded.accel.bvh) is None
        queries = loaded.keys[::5]
        assert np.array_equal(
            index.point_lookup(queries).result_rows, loaded.point_lookup(queries).result_rows
        )


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

    @pytest.mark.parametrize("name", ["forest", "single"])
    def test_refused_restore_keeps_pinned_pages(self, tmp_path, name):
        """A snapshot whose manifest miscounts its primitives (one the loader
        once adopted silently) fails ``IndexService.restore``; the epoch
        does not move, so a page pinned before the attempt still resumes."""
        from repro.serve import IndexService

        store = _bad_index_block_store(tmp_path, name, _set_index(num_primitives=255))
        index, keys = _make_index()
        service = IndexService(index)
        lo = np.array([0], dtype=np.uint64)
        hi = np.array([1 << 17], dtype=np.uint64)
        service.submit_range(lo, hi, limit=8, order="key")
        page = service.drain()[0]
        assert page.next_cursor is not None

        epoch = index.epoch
        with pytest.raises(SnapshotCorrupt, match="num_primitives 255") as excinfo:
            service.restore(store)
        assert excinfo.value.segment == "MANIFEST.json"
        assert index.epoch == epoch

        service.submit_range(
            lo, hi, limit=8, order="key",
            cursor=page.next_cursor, pin_epoch=page.epoch,
        )
        resumed = service.drain()[0]
        assert resumed.epoch == page.epoch == epoch
        solo, _ = index.range_lookup(lo, hi, limit=16, order="key")
        assert np.array_equal(
            np.concatenate([page.hits.prim_indices, resumed.hits.prim_indices]),
            solo.row_ids,
        )

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
