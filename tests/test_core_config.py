"""Tests for RXConfig and the key decomposition."""

import re
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import (
    KeyDecomposition,
    KeyMode,
    PointRayMode,
    PrimitiveType,
    RangeRayMode,
    RXConfig,
    UpdatePolicy,
)
from repro.core.rx_index import RXIndex


class TestKeyDecomposition:
    def test_default_is_paper_split(self):
        decomposition = KeyDecomposition()
        assert (decomposition.x_bits, decomposition.y_bits, decomposition.z_bits) == (23, 23, 18)
        assert decomposition.total_bits == 64

    def test_max_key_full_range(self):
        assert KeyDecomposition().max_key == (1 << 64) - 1

    def test_max_key_partial_range(self):
        assert KeyDecomposition(16, 10, 0).max_key == (1 << 26) - 1

    def test_component_limited_to_23_bits(self):
        with pytest.raises(ValueError):
            KeyDecomposition(x_bits=24)

    def test_x_component_required(self):
        with pytest.raises(ValueError):
            KeyDecomposition(x_bits=0, y_bits=23, z_bits=18)

    def test_label_round_trip(self):
        decomposition = KeyDecomposition(20, 6, 0)
        assert decomposition.label() == "20+6+0"
        assert KeyDecomposition.from_label("20+6+0") == decomposition

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            KeyDecomposition.from_label("20+6")


class TestRXConfigValidation:
    def test_paper_default_is_valid(self):
        RXConfig.paper_default().validate()

    def test_default_matches_selected_configuration(self):
        config = RXConfig.paper_default()
        assert config.key_mode is KeyMode.THREE_D
        assert config.primitive is PrimitiveType.TRIANGLE
        assert config.point_ray_mode is PointRayMode.PERPENDICULAR
        assert config.range_ray_mode is RangeRayMode.PARALLEL_FROM_OFFSET
        assert config.compaction is True
        assert config.update_policy is UpdatePolicy.REBUILD

    def test_extended_mode_rejects_spheres(self):
        config = RXConfig(
            key_mode=KeyMode.EXTENDED,
            primitive=PrimitiveType.SPHERE,
            point_ray_mode=PointRayMode.PERPENDICULAR,
            range_ray_mode=RangeRayMode.PARALLEL_FROM_ZERO,
        )
        with pytest.raises(ValueError):
            config.validate()

    def test_extended_mode_rejects_offset_rays(self):
        with pytest.raises(ValueError):
            RXConfig(
                key_mode=KeyMode.EXTENDED,
                point_ray_mode=PointRayMode.PARALLEL_FROM_OFFSET,
            ).validate()
        with pytest.raises(ValueError):
            RXConfig(
                key_mode=KeyMode.EXTENDED,
                range_ray_mode=RangeRayMode.PARALLEL_FROM_OFFSET,
            ).validate()

    def test_compaction_conflicts_with_updates(self):
        config = RXConfig(update_policy=UpdatePolicy.REFIT, compaction=True)
        with pytest.raises(ValueError, match="update_policy=REFIT.*compaction=True"):
            config.validate()
        with pytest.raises(ValueError, match="compaction"):
            RXIndex(config)

    @pytest.mark.parametrize("policy", list(UpdatePolicy))
    def test_refit_implies_the_update_flag(self, policy):
        # REFIT builds its trees with the update flag a refit needs; the
        # other policies build without it.
        config = RXConfig(
            update_policy=policy,
            compaction=policy is not UpdatePolicy.REFIT,
            shard_bits=2 if policy is UpdatePolicy.DELTA_SHARD else 0,
        )
        index = RXIndex(config)
        index.build(np.arange(64, dtype=np.uint64))
        assert index.accel.bvh.options.allow_update is (policy is UpdatePolicy.REFIT)

    def test_refit_rejects_a_sharded_build(self):
        # A refit keeps each row in the shard it was built in, so a saved
        # forest would no longer partition the column.
        config = RXConfig.paper_default().with_delta_updates(shard_bits=4)
        config = config.with_updates_enabled()
        with pytest.raises(ValueError, match="update_policy=REFIT.*shard_bits"):
            config.validate()
        with pytest.raises(ValueError, match="update_policy=REFIT.*shard_bits"):
            RXIndex(config)

    def test_with_updates_enabled_helper(self):
        config = RXConfig.paper_default().with_updates_enabled()
        config.validate()
        assert not config.compaction
        assert config.update_policy is UpdatePolicy.REFIT

    def test_sphere_radius_bounds(self):
        with pytest.raises(ValueError):
            RXConfig(sphere_radius=0.6).validate()

    @pytest.mark.parametrize("radius", [0.0, 0.5, float("nan"), float("inf")])
    def test_sphere_radius_outside_open_interval_rejected(self, radius):
        config = RXConfig(primitive=PrimitiveType.SPHERE, sphere_radius=radius)
        with pytest.raises(ValueError, match="sphere_radius"):
            config.validate()
        with pytest.raises(ValueError, match="sphere_radius"):
            RXIndex(config)

    def test_value_bytes_restricted(self):
        with pytest.raises(ValueError):
            RXConfig(value_bytes=2).validate()

    def test_max_rays_per_range_positive(self):
        with pytest.raises(ValueError):
            RXConfig(max_rays_per_range=0).validate()

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            ("bvh_builder", "nope", "unknown BVH builder 'nope'"),
            ("morton_bits", 30, r"morton_bits must be in \[1, 21\]"),
            ("max_leaf_size", 0, "max_leaf_size must be >= 1"),
            ("shard_bits", 17, r"shard_bits must be in \[0, 16\]"),
            ("compaction", "no", "compaction must be a bool, got 'no'"),
            ("compaction", 1, "compaction must be a bool, got 1"),
            ("max_leaf_size", 4.5, "max_leaf_size must be an int, got 4.5"),
            ("shard_bits", True, "shard_bits must be an int, got True"),
            ("value_bytes", "4", "value_bytes must be an int, got '4'"),
        ],
    )
    def test_builder_knobs_and_field_types_are_checked(self, field, value, problem):
        # The builder knobs are BvhBuildOptions.validate()'s; bool fields
        # must hold a bool and int fields an int that is not a bool.
        config = replace(RXConfig(), **{field: value})
        with pytest.raises(ValueError, match=problem):
            config.validate()
        with pytest.raises(ValueError, match=problem):
            RXConfig.from_dict({**RXConfig().as_dict(), field: value})

    @pytest.mark.parametrize(
        "field, value, others",
        [
            ("key_mode", "3d", {}),
            ("primitive", "sphere", {}),
            ("point_ray_mode", "perpendicular", {}),
            ("range_ray_mode", "parallel_from_offset", {}),
            ("update_policy", "refit", {"compaction": False}),
            ("update_policy", "delta_shard", {"shard_bits": 2}),
            ("decomposition", "23+23+18", {}),
        ],
    )
    def test_enum_and_decomposition_fields_are_type_checked(self, field, value, others):
        # A string used to pass validate() and fail later, naming no field:
        # at the first update (built without the update flag), the first
        # build, or inside RXIndex(...).
        config = RXConfig(**{field: value}, **others)
        with pytest.raises(ValueError, match=f"^{field} must be a .*, got '{re.escape(value)}'$"):
            config.validate()
        with pytest.raises(ValueError, match=f"^{field} must be a "):
            RXIndex(config)


class TestSerialisation:
    def test_retired_pool_keys_are_refused(self):
        # Only format-1 manifests carry the forest build pools' two keys,
        # and the reader refuses format 1, so they are unknown keys now.
        data = RXConfig.paper_default().as_dict()
        data.update(build_workers=4, build_backend="shm")
        with pytest.raises(ValueError, match=r"unknown keys \['build_backend', 'build_workers'\]"):
            RXConfig.from_dict(data)

    @pytest.mark.parametrize("mode", ["auto", "any_hit", "all"])
    def test_retired_point_trace_mode_is_refused(self, mode):
        # Likewise the point-trace-mode and range-limit knobs, whatever
        # they hold.
        data = RXConfig.paper_default().as_dict()
        data.update(point_trace_mode=mode, range_limit=None)
        with pytest.raises(ValueError, match=r"unknown keys \['point_trace_mode', 'range_limit'\]"):
            RXConfig.from_dict(data)

    @pytest.mark.parametrize(
        "name, stored",
        [
            # The serving policy moved to IndexService's arguments; manifests
            # written before that carry it.  Default, non-default and values
            # the old validate() refused are all dropped.
            ("serve_max_batch", (4096, 7, 0)),
            ("serve_max_wait", (1e-3, 0.25, float("nan"))),
            ("serve_cache_capacity", (4096, 3, -1)),
            ("serve_deadline", (None, 0.5, -1.0)),
            ("serve_max_queue", (None, 64, 0)),
            ("serve_retry_max", (3, 0, -1)),
            ("serve_retry_backoff", (1e-3, 0.0, float("nan"))),
            ("serve_retry_factor", (2.0, 1.5, 0.5)),
            ("serve_retry_jitter", (0.1, 0.0, 1.5)),
        ],
    )
    def test_retired_serve_knobs_are_dropped(self, name, stored):
        assert name not in RXConfig.paper_default().as_dict()
        for value in stored:
            data = RXConfig.paper_default().as_dict()
            data[name] = value
            assert RXConfig.from_dict(data) == RXConfig.paper_default()

    @pytest.mark.parametrize("stored", [False, True])
    def test_retired_update_flag_is_dropped(self, stored):
        # update_policy=REFIT implies the flag now; manifests written before
        # carry it, true beside REFIT and false otherwise.
        for config in (RXConfig.paper_default(), RXConfig().with_updates_enabled()):
            data = config.as_dict()
            assert "allow_updates" not in data
            data["allow_updates"] = stored
            assert RXConfig.from_dict(data) == config

    def test_retired_range_limit_must_be_null(self):
        # A stored default limit capped every range_lookup(lo, hi); dropping
        # it silently would change what those calls return.
        data = RXConfig.paper_default().as_dict()
        data.update(point_trace_mode="auto", range_limit=8)
        with pytest.raises(ValueError, match="range_limit"):
            RXConfig.from_dict(data)

    def test_unknown_key_is_rejected(self):
        data = RXConfig.paper_default().as_dict()
        data["build_threads"] = 2
        with pytest.raises(ValueError, match="malformed RXConfig dict"):
            RXConfig.from_dict(data)

    def test_stored_refit_with_shard_bits_is_refused(self):
        data = RXConfig.paper_default().with_updates_enabled().as_dict()
        data["shard_bits"] = 4
        with pytest.raises(ValueError, match="update_policy=REFIT.*shard_bits"):
            RXConfig.from_dict(data)

    def test_with_delta_updates_accepts_only_one_worker(self):
        assert RXConfig.paper_default().with_delta_updates(shard_bits=3, workers=1).shard_bits == 3
        with pytest.raises(ValueError, match="workers"):
            RXConfig.paper_default().with_delta_updates(shard_bits=3, workers=2)
