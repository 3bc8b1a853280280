"""Property-based tests (hypothesis) for the core invariants.

These target the parts of the system where a single wrong edge case silently
corrupts results: the key codecs, the order-preserving type mappings, the BVH
+ traversal pair, and the cross-index agreement on arbitrary workloads.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import GpuBPlusTree, SortedArrayIndex, WarpCoreHashTable
from repro.core import KeyDecomposition, KeyMode, RXConfig, RXIndex
from repro.core.keycodec import ExtendedCodec, NaiveCodec, ThreeDCodec
from repro.core.typemap import float64_to_uint64
from repro.rtx.bvh import BvhBuildOptions, build_bvh
from repro.rtx.geometry import RayBatch, TriangleBuffer, make_triangle_vertices
from repro.rtx.traversal import TraversalEngine
from repro.workloads.table import SecondaryIndexWorkload

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


key_arrays = st.lists(
    st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=200
).map(lambda values: np.array(values, dtype=np.uint64))

unique_key_arrays = st.lists(
    st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=200, unique=True
).map(lambda values: np.array(values, dtype=np.uint64))


class TestTypemapProperties:
    @SETTINGS
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=2,
            max_size=100,
        )
    )
    def test_float64_mapping_preserves_order(self, values):
        arr = np.array(values, dtype=np.float64)
        mapped = float64_to_uint64(arr)
        # Strictly: a smaller double maps to a smaller key, and distinct bit
        # patterns (-0.0 is not 0.0) to distinct keys, so the map is injective.
        assert (mapped[:, None] < mapped[None, :])[arr[:, None] < arr[None, :]].all()
        assert np.unique(mapped).size == np.unique(arr.view(np.uint64)).size
        sorted_by_map = arr[np.argsort(mapped, kind="stable")]
        assert np.all(np.diff(sorted_by_map) >= 0)


class TestCodecProperties:
    @SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=2**23 - 1), min_size=1, max_size=100))
    def test_naive_codec_is_exact_below_limit(self, keys):
        arr = np.array(keys, dtype=np.uint64)
        points, _ = NaiveCodec().encode_points(arr)
        assert np.array_equal(points[:, 0].astype(np.uint64), arr)

    @SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=2**29 - 1), min_size=2, max_size=100, unique=True))
    def test_extended_codec_is_order_preserving_and_injective(self, keys):
        arr = np.array(sorted(keys), dtype=np.uint64)
        coords = ExtendedCodec().encode_points(arr)[0][:, 0].astype(np.float64)
        assert np.all(np.diff(coords) > 0)

    @SETTINGS
    @given(
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=100),
        st.sampled_from([(23, 23, 18), (20, 22, 22), (23, 0, 0), (16, 23, 23)]),
    )
    def test_three_d_codec_round_trips(self, keys, split):
        x_bits, y_bits, z_bits = split
        decomposition = KeyDecomposition(x_bits, y_bits, z_bits)
        arr = np.array(keys, dtype=np.uint64) & np.uint64(decomposition.max_key)
        codec = ThreeDCodec(decomposition)
        assert np.array_equal(codec.recompose(*codec.decompose(arr)), arr)


class TestBvhTraversalProperties:
    @SETTINGS
    @given(unique_key_arrays, st.sampled_from(["lbvh", "sah", "median"]))
    def test_point_rays_find_exactly_the_existing_keys(self, keys, builder):
        # Build a scene from arbitrary unique keys (clipped to the naive range
        # so coordinates are exact) and fire one perpendicular ray per key
        # plus one per definitely-absent key.
        keys = np.unique(keys % np.uint64(2**23))
        points = np.column_stack([keys, np.zeros_like(keys), np.zeros_like(keys)]).astype(np.float64)
        buffer = TriangleBuffer(make_triangle_vertices(points))
        bvh = build_bvh(buffer, BvhBuildOptions(builder=builder))
        engine = TraversalEngine(bvh, buffer)

        absent = keys.astype(np.float64) + 0.5
        xs = np.concatenate([keys.astype(np.float64), absent])
        rays = RayBatch(
            origins=np.column_stack([xs, np.zeros_like(xs), np.full_like(xs, -0.5)]),
            directions=np.tile([0.0, 0.0, 1.0], (xs.shape[0], 1)),
            tmin=0.0,
            tmax=1.0,
        )
        result = engine.trace(rays)
        hits_per_ray = np.bincount(result.ray_indices, minlength=result.num_rays)
        assert np.all(hits_per_ray[: keys.shape[0]] == 1)
        assert np.all(hits_per_ray[keys.shape[0]:] == 0)
        # And every reported hit maps the ray back to its own key's rowID.
        for ray, prim in zip(result.ray_indices, result.prim_indices):
            if ray < keys.shape[0]:
                assert keys[prim] == keys[ray]


class TestIndexAgreementProperties:
    @SETTINGS
    @given(key_arrays, st.integers(min_value=1, max_value=64))
    def test_rx_equals_sorted_array_on_point_lookups(self, keys, num_queries):
        rng = np.random.default_rng(0)
        queries = np.concatenate(
            [
                keys[rng.integers(0, keys.shape[0], size=num_queries)],
                rng.integers(0, 2**32, size=4, dtype=np.uint64),
            ]
        )
        workload = SecondaryIndexWorkload.from_keys(keys, point_queries=queries)
        rx = RXIndex()
        sa = SortedArrayIndex(key_bytes=8)
        rx.build(workload.keys, workload.values)
        sa.build(workload.keys, workload.values)
        rx_run = rx.point_lookup(queries)
        sa_run = sa.point_lookup(queries)
        assert rx_run.aggregate == sa_run.aggregate == workload.reference_point_aggregate()
        assert np.array_equal(rx_run.hits_per_lookup, sa_run.hits_per_lookup)

    @SETTINGS
    @given(unique_key_arrays, st.integers(min_value=1, max_value=32), st.integers(min_value=1, max_value=64))
    def test_rx_equals_btree_on_range_lookups(self, keys, num_queries, span):
        rng = np.random.default_rng(1)
        lowers = keys[rng.integers(0, keys.shape[0], size=num_queries)]
        uppers = np.minimum(lowers + np.uint64(span), np.uint64(2**32 - 1))
        workload = SecondaryIndexWorkload.from_keys(keys, range_lowers=lowers, range_uppers=uppers)
        rx = RXIndex()
        btree = GpuBPlusTree()
        rx.build(workload.keys, workload.values)
        btree.build(workload.keys, workload.values)
        rx_run = rx.range_lookup(lowers, uppers)
        bt_run = btree.range_lookup(lowers, uppers)
        assert rx_run.aggregate == bt_run.aggregate == workload.reference_range_aggregate()
        assert np.array_equal(rx_run.hits_per_lookup, bt_run.hits_per_lookup)

    @SETTINGS
    @given(key_arrays)
    def test_hash_table_equals_reference_on_hits_and_misses(self, keys):
        rng = np.random.default_rng(2)
        queries = np.concatenate([keys[:32], rng.integers(0, 2**32, size=8, dtype=np.uint64)])
        workload = SecondaryIndexWorkload.from_keys(keys, point_queries=queries)
        table = WarpCoreHashTable(key_bytes=8)
        table.build(workload.keys, workload.values)
        run = table.point_lookup(queries)
        assert run.aggregate == workload.reference_point_aggregate()
        assert np.array_equal(run.hits_per_lookup, workload.reference_point_hits())


class TestConfigProperties:
    @SETTINGS
    @given(
        st.integers(min_value=1, max_value=23),
        st.integers(min_value=0, max_value=23),
        st.integers(min_value=0, max_value=18),
    )
    def test_any_valid_decomposition_round_trips(self, x_bits, y_bits, z_bits):
        decomposition = KeyDecomposition(x_bits, y_bits, z_bits)
        codec = ThreeDCodec(decomposition)
        keys = np.array([0, decomposition.max_key // 2, decomposition.max_key], dtype=np.uint64)
        assert np.array_equal(codec.recompose(*codec.decompose(keys)), keys)

    def test_rx_rejects_keys_beyond_decomposition(self):
        config = RXConfig(decomposition=KeyDecomposition(8, 8, 0))
        index = RXIndex(config)
        with pytest.raises(ValueError):
            index.build(np.array([2**20], dtype=np.uint64))

    def test_naive_mode_config_round_trip(self):
        index = RXIndex(RXConfig(key_mode=KeyMode.NAIVE))
        keys = np.array([1, 2, 3], dtype=np.uint64)
        index.build(keys)
        run = index.point_lookup(keys)
        assert run.hits_per_lookup.tolist() == [1, 1, 1]
