"""Save/load round-trip fidelity of the crash-safe epoch store.

Two layers of pinning:

* the on-disk format — a manifest entry's SHA-256 must equal ``hashlib``
  over the file's payload region, then its header region, and fixed
  segments must save to recorded bytes;
* the index itself — a randomised differential replay builds RX indexes
  across primitive types, sharding configs and both load paths
  (memory-mapped and heap), saves and reloads them, and requires every
  trace mode's hits *and counters* to be bit-identical to the in-memory
  index that was saved.

Reseed with ``DIFF_SEED`` (env var) to explore a different case set.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct

import numpy as np
import pytest

from repro.core.config import RXConfig, UpdatePolicy
from repro.core.rx_index import RXIndex
from repro.persist import SnapshotTorn, load_snapshot, save_snapshot, write_segment
from repro.persist.segments import TMP_PREFIX
from repro.rtx.bvh import bvh_arrays_diff
from repro.serve.faults import FaultInjector, FaultSpec, InjectedFault
from repro.workloads import dense_shuffled_keys

DIFF_SEED = int(os.environ.get("DIFF_SEED", "20260727"))

PRIMITIVES = ["triangle", "sphere", "aabb"]


def _file_sha256(data: bytes) -> str:
    """The format-2 digest, computed independently of the writer: SHA-256
    of the payload region ``[payload base, end)``, then the header region."""
    (header_len,) = struct.unpack("<Q", data[8:16])
    base = (16 + header_len + 63) // 64 * 64
    return hashlib.sha256(data[base:] + data[:base]).hexdigest()


SEGMENT_ARRAYS = pytest.mark.parametrize(
    "arrays",
    [
        {"empty": np.zeros(0, dtype=np.int64)},
        {"odd": np.arange(13, dtype=np.uint8)},
        {"grid": np.arange(35, dtype=np.float32).reshape(7, 5) / 3},
        {
            "odd": np.arange(7, dtype=np.int16),
            "empty": np.zeros(0, dtype=np.uint64),
            "grid": np.ones((3, 5), dtype=np.float32),
        },
        {"odd": np.arange(3, dtype=np.uint8), "long": np.arange(4096, dtype=np.int64)},
    ],
    ids=["zero-length", "odd-length", "2d-float32", "mixed", "payload-heavy"],
)


class TestStoreBasics:
    @SEGMENT_ARRAYS
    def test_write_segment_entry_digests(self, tmp_path, arrays):
        entry = write_segment(tmp_path / "s.seg", name="s", epoch=0, arrays=arrays)
        on_disk = (tmp_path / "s.seg").read_bytes()
        assert entry["length"] == len(on_disk)
        assert entry["sha256"] == _file_sha256(on_disk)

    @SEGMENT_ARRAYS
    def test_torn_write_lands_the_first_half_of_the_file(self, tmp_path, arrays):
        write_segment(tmp_path / "s.seg", name="s", epoch=0, arrays=arrays)
        whole = (tmp_path / "s.seg").read_bytes()
        injector = FaultInjector(seed=0, specs={"persist_write": FaultSpec(at={0})})
        with pytest.raises(InjectedFault):
            write_segment(
                tmp_path / "t.seg", name="s", epoch=0, arrays=arrays, fault_injector=injector
            )
        assert (tmp_path / f"{TMP_PREFIX}t.seg").read_bytes() == whole[: len(whole) // 2]

    def test_missing_store_is_torn(self, tmp_path):
        with pytest.raises(SnapshotTorn, match="no committed snapshot"):
            load_snapshot(tmp_path / "nowhere")

    def test_segments_survive_verbatim(self, tmp_path):
        rng = np.random.default_rng(DIFF_SEED)
        arrays = {
            "a": rng.standard_normal((7, 3)).astype(np.float32),
            "b": rng.integers(0, 1 << 31, size=11, dtype=np.int64),
        }
        save_snapshot(
            tmp_path,
            epoch=0,
            segments={"seg": (arrays, {"tag": 42})},
            index_meta={"kind": "raw"},
        )
        for mmap in (True, False):
            snap = load_snapshot(tmp_path, mmap=mmap)
            assert snap.meta("seg") == {"tag": 42}
            for name, expected in arrays.items():
                got = snap.arrays("seg")[name]
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected)

    def test_resave_reuses_every_clean_segment(self, tmp_path):
        arrays = {"x": np.arange(16, dtype=np.uint64)}
        save_snapshot(
            tmp_path, epoch=0, segments={"seg": (arrays, None)}, index_meta={}
        )
        again = save_snapshot(
            tmp_path, epoch=1, segments={"seg": (arrays, None)}, index_meta={}
        )
        assert again.segments_reused == 1
        assert again.segments_rewritten == 0
        assert again.manifest_version == 2


def _golden_segments(changed: bool):
    """Fixed synthetic segments: several dtypes, odd, zero and multi-chunk
    lengths, a 2-D and a negatively strided array.  Built from arithmetic
    only, so the bytes never depend on a random generator's version."""
    mix = np.uint64(0x9E3779B97F4A7C15)
    children = np.arange(13, dtype=np.int32) * 7919 - 40000
    if changed:
        children[6] += 1
    bounds = np.arange(37 * 3, dtype=np.float32).reshape(37, 3) / np.float32(7.0)
    return {
        "columns": (
            {
                "keys": np.arange(1001, dtype=np.uint64) * mix,
                "values": np.arange(1001, dtype=np.uint32)[::-1],
            },
            {"num_keys": 1001},
        ),
        "bvh": (
            {
                "bounds": bounds - np.float32(5.0),
                "children": children,
                "flags": np.arange(5, dtype=np.uint8) * 51,
                "empty": np.zeros(0, dtype=np.int64),
            },
            {"compacted": False},
        ),
        "shard-00001": (
            {"ids": np.arange(300_001, dtype=np.uint64) * mix},
            {"shard": 1},
        ),
        "misc": (
            {
                "weights": np.linspace(-1.0, 1.0, 9),
                "small": np.arange(-3, 4, dtype=np.int16),
                "mask": np.arange(11) % 3 == 0,
            },
            None,
        ),
    }


#: Per save: the manifest file's SHA-256, then per segment its manifest
#: entry ``(path, sha256, length)`` and the SHA-256 of its ``.seg`` file.
#: The file SHA-256s are the ones the segment format's original writer
#: recorded; any drift means the on-disk format changed.  The manifests
#: are format 3's, which differ from format 2's only in ``format_version``.
_GOLDEN = [
    (
        "d4a3b01502a4cb65e608fae9948db35828076de329b5621cfdb4e3f8d1ef51ef",
        {
            "bvh": (
                ("epoch-00000000/bvh.seg",
                 "c8b3d579805721970cb4595db705f637e5842f8f44cff4f7e91ace78043fc461",
                 1024),
                "d26bd0aa3295f6a027d1300d5c871f014208bce175fbbaba4575113aab258de8",
            ),
            "columns": (
                ("epoch-00000000/columns.seg",
                 "5862a2f15808d1d94dcc12df1592caf9b250d9fecd5f8c1554a4f731e9e6351f",
                 12324),
                "d07cb8dc4f0f5d085ac39ed6df30e6809b35bec0bc07f6fd11b4e6548b81f527",
            ),
            "misc": (
                ("epoch-00000000/misc.seg",
                 "e190f4926fd1cb0984c21a2c83112d87475c6f00aabab3cbee58a569a6c3eb7a",
                 523),
                "51cc55a1679a322bf8055eb3d7651409494109938df9141706f2d799e16c9e59",
            ),
            "shard-00001": (
                ("epoch-00000000/shard-00001.seg",
                 "b3c78b60d2f1388b1e2e12cfc9b0ac470005b62b6d63f036fe8dbcb4a6c7baf9",
                 2400200),
                "cf21c5006955dbdf99116688e71b54b7aea91af76f411db355cbead1c5edfdfe",
            ),
        },
    ),
    (
        "77fcead22e52278ece56e7d2fbd471a17299a5cdc9d84d26e112abfb4ac99f03",
        {
            "bvh": (
                ("epoch-00000001/bvh.seg",
                 "7a0884874929965663795fdebd3c82e134aa14d34c52ea8e5611c95959cabbad",
                 1024),
                "cff7944f7e84619e33fd4324a43bb9e9e261da5d07402912812b4efe674d7b86",
            ),
        },
    ),
]


class TestGoldenBytes:
    def test_saves_match_recorded_bytes(self, tmp_path):
        """A save and an incremental re-save with one segment changed
        produce exactly the recorded manifests and segment files."""

        def sha256_of(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        expected_entries = {}
        for step, (manifest_sha, changes) in enumerate(_GOLDEN):
            expected_entries.update(changes)
            save_snapshot(
                tmp_path,
                epoch=step,
                segments=_golden_segments(changed=bool(step)),
                index_meta={"kind": "golden"},
            )
            manifest_path = tmp_path / "MANIFEST.json"
            entries = json.loads(manifest_path.read_text())["segments"]
            assert entries.keys() == expected_entries.keys()
            for name, (entry, file_sha) in expected_entries.items():
                got = entries[name]
                assert (got["path"], got["sha256"], got["length"]) == entry, name
                data = (tmp_path / got["path"]).read_bytes()
                assert hashlib.sha256(data).hexdigest() == file_sha, name
                assert _file_sha256(data) == got["sha256"], name
            assert sha256_of(manifest_path) == manifest_sha


def _random_case(rng, case_index):
    """One randomised index configuration + workload."""
    primitive = PRIMITIVES[case_index % len(PRIMITIVES)]
    shard_bits = [0, 3][(case_index // len(PRIMITIVES)) % 2]
    config = RXConfig.paper_default()
    config.primitive = type(config.primitive)(primitive)
    config.compaction = False
    config.shard_bits = shard_bits
    if shard_bits:
        config.update_policy = UpdatePolicy.DELTA_SHARD
    num_keys = int(rng.integers(256, 2048))
    keys = rng.integers(0, 1 << 18, size=num_keys, dtype=np.uint64)
    if rng.random() < 0.5:
        # Inject duplicate runs so ordered paging crosses them.
        keys[: num_keys // 4] = keys[num_keys // 2 : num_keys // 2 + num_keys // 4]
    return config, keys


def _trace_all_modes(index, queries, lowers, uppers, limit):
    """Hits + counters of every trace mode, as comparable structures."""
    out = {}
    pipeline = index.pipeline
    point_rays = index.codec.point_ray_batch(queries, index.config.point_ray_mode)
    range_rays = index.codec.range_ray_batch(
        lowers, uppers, index.config.range_ray_mode,
        max_rays_per_range=index.config.max_rays_per_range,
    )
    for label, rays, mode, mode_limit in [
        ("all", point_rays, "all", None),
        ("first_k point", point_rays, "first_k", 1),
        ("first_k", range_rays, "first_k", limit),
        ("ordered_k", range_rays, "ordered_k", limit),
    ]:
        launch = pipeline.launch(rays, mode=mode, limit=mode_limit)
        out[label] = (
            launch.hits.ray_indices.copy(),
            launch.hits.prim_indices.copy(),
            launch.hits.lookup_ids.copy(),
            launch.counters.as_dict(),
        )
    return out


def _assert_identical(a, b, label):
    assert a.keys() == b.keys()
    for mode in a:
        ra, pa, la, ca = a[mode]
        rb, pb, lb, cb = b[mode]
        assert np.array_equal(ra, rb), f"{label}/{mode}: ray indices differ"
        assert np.array_equal(pa, pb), f"{label}/{mode}: prim indices differ"
        assert np.array_equal(la, lb), f"{label}/{mode}: lookup ids differ"
        assert ca == cb, f"{label}/{mode}: counters differ"


class TestDifferentialRoundtrip:
    @pytest.mark.parametrize("case_index", range(12))
    def test_loaded_index_traces_bit_identically(self, tmp_path, case_index):
        rng = np.random.default_rng([DIFF_SEED, case_index])
        config, keys = _random_case(rng, case_index)
        index = RXIndex(config)
        index.build(keys)

        queries = rng.choice(keys, size=64)
        lowers = rng.integers(0, 1 << 17, size=16, dtype=np.uint64)
        uppers = lowers + rng.integers(1, 1 << 14, size=16, dtype=np.uint64)
        limit = int(rng.integers(2, 17))
        golden = _trace_all_modes(index, queries, lowers, uppers, limit)

        index.save(tmp_path)
        mmap = bool(case_index % 2)
        loaded = RXIndex.load(tmp_path, mmap=mmap)

        assert bvh_arrays_diff(index.accel.bvh, loaded.accel.bvh) is None
        assert np.array_equal(index.keys, loaded.keys)
        assert np.array_equal(index.values, loaded.values)
        replay = _trace_all_modes(loaded, queries, lowers, uppers, limit)
        _assert_identical(golden, replay, f"case {case_index} (mmap={mmap})")

    def test_ordered_paging_resumes_identically_after_load(self, tmp_path):
        rng = np.random.default_rng(DIFF_SEED)
        keys = rng.integers(0, 1 << 16, size=1024, dtype=np.uint64)
        keys[:128] = keys[128:256]  # duplicate runs across page boundaries
        index = RXIndex()
        index.build(keys)
        index.save(tmp_path)
        loaded = RXIndex.load(tmp_path)

        lo = np.array([0], dtype=np.uint64)
        hi = np.array([1 << 15], dtype=np.uint64)

        def pages(idx):
            cursor, out = None, []
            while True:
                run, cursor = idx.range_lookup(
                    lo, hi, limit=7, order="key", cursor=cursor
                )
                out.append(run.row_ids.copy())
                if cursor is None:
                    return out

        for a, b in zip(pages(index), pages(loaded), strict=True):
            assert np.array_equal(a, b)

    def test_compacted_snapshot_round_trips(self, tmp_path):
        rng = np.random.default_rng(DIFF_SEED)
        keys = rng.integers(0, 1 << 16, size=512, dtype=np.uint64)
        config = RXConfig.paper_default()
        assert config.compaction
        index = RXIndex(config)
        index.build(keys)
        index.save(tmp_path)
        loaded = RXIndex.load(tmp_path)
        assert loaded.accel.compacted
        assert bvh_arrays_diff(index.accel.bvh, loaded.accel.bvh) is None

    def test_loaded_forest_stays_delta_updatable(self, tmp_path):
        rng = np.random.default_rng(DIFF_SEED)
        keys = rng.integers(0, 1 << 18, size=2048, dtype=np.uint64)
        config = RXConfig.paper_default()
        config.compaction = False
        config.shard_bits = 4
        config.update_policy = UpdatePolicy.DELTA_SHARD
        index = RXIndex(config)
        index.build(keys)
        index.save(tmp_path)
        loaded = RXIndex.load(tmp_path)

        new_keys = keys.copy()
        new_keys[7] += 3
        index.update(new_keys)
        loaded.update(new_keys)
        assert bvh_arrays_diff(index.accel.bvh, loaded.accel.bvh) is None

    @pytest.mark.parametrize(
        "make_config",
        [
            RXConfig.paper_default,
            lambda: RXConfig.paper_default().with_updates_enabled(),
            lambda: RXConfig.paper_default().with_delta_updates(shard_bits=4),
        ],
        ids=["single", "single-refit", "forest"],
    )
    def test_loaded_accel_keeps_the_build_options(self, tmp_path, make_config):
        # Build and load both take their options from the config
        # (RXConfig.bvh_options), so they compare equal.
        index = RXIndex(make_config())
        index.build(dense_shuffled_keys(1024, seed=DIFF_SEED % 1000))
        index.save(tmp_path)
        for mmap in (True, False):
            loaded = RXIndex.load(tmp_path, mmap=mmap)
            assert loaded.accel.bvh.options == index.accel.bvh.options

    @pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "heap"])
    def test_refit_index_survives_save_load_and_update(self, tmp_path, mmap):
        # REFIT implies the update flag: no stored key carries it, and the
        # loaded tree is refittable like the built one.
        keys = dense_shuffled_keys(1024, seed=DIFF_SEED % 1000)
        index = RXIndex(RXConfig.paper_default().with_updates_enabled())
        index.build(keys)
        index.save(tmp_path)
        manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
        assert "allow_updates" not in manifest["index"]["config"]
        loaded = RXIndex.load(tmp_path, mmap=mmap)
        assert loaded.config == index.config
        assert loaded.accel.bvh.options.allow_update

        new_keys = np.random.default_rng(DIFF_SEED).permutation(keys)
        queries = keys[::5]
        for live in (index, loaded):
            live.update(new_keys)
        assert bvh_arrays_diff(index.accel.bvh, loaded.accel.bvh) is None
        want, got = index.point_lookup(queries), loaded.point_lookup(queries)
        assert np.array_equal(got.result_rows, want.result_rows)
        assert got.stats == want.stats

    def test_stats_persist_block(self, tmp_path):
        rng = np.random.default_rng(DIFF_SEED)
        keys = rng.integers(0, 1 << 16, size=256, dtype=np.uint64)
        index = RXIndex()
        index.build(keys)
        assert index.stats()["persist"]["saves"] == 0
        assert index.stats()["persist"]["format_version"] is None
        save_info = index.save(tmp_path)
        block = index.stats()["persist"]
        assert block["saves"] == 1
        assert block["bytes_on_disk"] == save_info["bytes_on_disk"] > 0
        assert block["segments_rewritten"] == save_info["segments_rewritten"]
        assert block["format_version"] == save_info["format_version"] == 3
        assert block["segments_hashed"] == save_info["segments_hashed"] == 2
        assert block["bytes_written"] == save_info["bytes_written"] == save_info["bytes_on_disk"]

        loaded = RXIndex.load(tmp_path)
        block = loaded.stats()["persist"]
        assert block["loads"] == 1
        assert block["format_version"] == 3
        assert block["last_load_seconds"] > 0
        assert block["checksum_verify_seconds"] > 0
        assert block["segments_total"] == save_info["segments_total"]

    @pytest.mark.parametrize("shard_bits", [0, 4])
    def test_loaded_index_reports_the_build_block_it_was_saved_with(
        self, tmp_path, shard_bits
    ):
        # 4,096 dense keys fill only 4 of the 16 buckets at shard_bits=4, so
        # the non-empty count and 2**shard_bits disagree.
        keys = dense_shuffled_keys(4096, seed=DIFF_SEED % 1000)
        config = RXConfig.paper_default()
        if shard_bits:
            config = config.with_delta_updates(shard_bits=shard_bits)
        index = RXIndex(config)
        index.build(keys)
        index.save(tmp_path)
        live = index.stats()
        assert live["build"]["shards"] == live["shard_count"]
        assert live["build"]["wall_seconds"] > 0
        if shard_bits:
            assert live["shard_count"] < 2**shard_bits
            assert live["build"]["delegated_shards"] >= 1
        else:
            assert (live["build"]["shards"], live["build"]["delegated_shards"]) == (1, 0)

        for mmap in (True, False):
            loaded = RXIndex.load(tmp_path, mmap=mmap).stats()
            assert loaded["shard_count"] == live["shard_count"]
            assert loaded["build"]["wall_seconds"] is None
            assert loaded["build"].keys() == live["build"].keys()
            for key in live["build"].keys() - {"wall_seconds"}:
                assert loaded["build"][key] == live["build"][key], (mmap, key)
