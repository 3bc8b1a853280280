"""Configuration of the RX index: the five design dimensions of Section 3.

The defaults encode the *selected configuration* the paper arrives at after
evaluating every option: 3D key mode with the 23+23+18 decomposition,
triangle primitives, perpendicular rays for point lookups, offset-origin
parallel rays for range lookups, BVH compaction enabled, and full rebuilds
instead of refits for updates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, replace

from repro.rtx.bvh import BvhBuildOptions


class KeyMode(enum.Enum):
    """How integer keys are expressed as float32 scene coordinates (Sec 3.2)."""

    NAIVE = "naive"
    EXTENDED = "extended"
    THREE_D = "3d"


class PrimitiveType(enum.Enum):
    """Scene primitive used to represent one key (Sec 3.5)."""

    TRIANGLE = "triangle"
    SPHERE = "sphere"
    AABB = "aabb"


class PointRayMode(enum.Enum):
    """Ray shape used for point lookups (Sec 3.3, Figure 6)."""

    PERPENDICULAR = "perpendicular"
    PARALLEL_FROM_OFFSET = "parallel_from_offset"
    PARALLEL_FROM_ZERO = "parallel_from_zero"


class RangeRayMode(enum.Enum):
    """Ray shape used for range lookups (Sec 3.3, Table 3)."""

    PARALLEL_FROM_OFFSET = "parallel_from_offset"
    PARALLEL_FROM_ZERO = "parallel_from_zero"


class UpdatePolicy(enum.Enum):
    """How an existing index absorbs key updates (Sec 3.6, Table 4).

    ``DELTA_SHARD`` is the forest-backed middle ground: partition the key
    space by Morton prefix (``RXConfig.shard_bits``), re-sort and rebuild
    only the shards an update actually touched, and splice them back into
    the tree beside the clean ones — full-rebuild
    lookup quality at a cost that scales with the dirty shards instead of
    the total key count.
    """

    REBUILD = "rebuild"
    REFIT = "refit"
    DELTA_SHARD = "delta_shard"


@dataclass(frozen=True)
class KeyDecomposition:
    """Bit split of a 64-bit key onto the x, y and z axes (Sec 3.4).

    The paper's default assigns the 23 least significant bits to x, the next
    23 to y and the remaining 18 to z.  Every component must stay within 23
    bits so the resulting integer coordinate is exactly representable as a
    float32 together with its ±0.5 gap.
    """

    x_bits: int = 23
    y_bits: int = 23
    z_bits: int = 18

    def __post_init__(self) -> None:
        for name, bits in (("x", self.x_bits), ("y", self.y_bits), ("z", self.z_bits)):
            if not 0 <= bits <= 23:
                raise ValueError(
                    f"{name}_bits must be in [0, 23] to stay float32-exact, got {bits}"
                )
        if self.x_bits == 0:
            raise ValueError("the x component must receive at least one bit")
        if self.total_bits > 64:
            raise ValueError(
                f"decomposition covers {self.total_bits} bits; at most 64 are allowed"
            )

    @property
    def total_bits(self) -> int:
        return self.x_bits + self.y_bits + self.z_bits

    @property
    def max_key(self) -> int:
        """Largest key representable under this decomposition."""
        if self.total_bits >= 64:
            return (1 << 64) - 1
        return (1 << self.total_bits) - 1

    def label(self) -> str:
        """Human-readable form used in the paper's figures, e.g. ``"23+23+18"``."""
        return f"{self.x_bits}+{self.y_bits}+{self.z_bits}"

    @staticmethod
    def from_label(label: str) -> "KeyDecomposition":
        """Parse a ``"x+y+z"`` label back into a decomposition."""
        parts = label.split("+")
        if len(parts) != 3:
            raise ValueError(f"expected a 'x+y+z' label, got {label!r}")
        x, y, z = (int(p) for p in parts)
        return KeyDecomposition(x_bits=x, y_bits=y, z_bits=z)


#: Field types :meth:`RXConfig.validate` checks with ``isinstance``, by name.
_TYPED_FIELDS = {
    cls.__name__: cls
    for cls in (KeyMode, PrimitiveType, PointRayMode, RangeRayMode, UpdatePolicy, KeyDecomposition)
}

#: ``RXConfig.as_dict`` keys of retired fields: the build-time update flag,
#: which ``update_policy=REFIT`` now implies, and the serving layer's policy
#: fields, which :class:`repro.serve.IndexService` now takes as arguments.
#: Format-2 snapshot manifests written before they retired still carry
#: them, so :meth:`RXConfig.from_dict` drops exactly these.
RETIRED_CONFIG_KEYS = (
    "allow_updates",
    "serve_max_batch",
    "serve_max_wait",
    "serve_cache_capacity",
    "serve_deadline",
    "serve_max_queue",
    "serve_retry_max",
    "serve_retry_backoff",
    "serve_retry_factor",
    "serve_retry_jitter",
)


@dataclass
class RXConfig:
    """Full configuration of an RX index instance."""

    key_mode: KeyMode = KeyMode.THREE_D
    primitive: PrimitiveType = PrimitiveType.TRIANGLE
    point_ray_mode: PointRayMode = PointRayMode.PERPENDICULAR
    range_ray_mode: RangeRayMode = RangeRayMode.PARALLEL_FROM_OFFSET
    decomposition: KeyDecomposition = field(default_factory=KeyDecomposition)
    compaction: bool = True
    #: REFIT builds every tree with the OptiX update flag a refit needs,
    #: which rules out compaction; the other policies build without it
    update_policy: UpdatePolicy = UpdatePolicy.REBUILD
    #: software-BVH builder knobs (passed through to the rtx substrate)
    bvh_builder: str = "lbvh"
    max_leaf_size: int = 4
    morton_bits: int = 21
    #: Morton-prefix sharding of the accel build: 0 builds one tree, ``b > 0``
    #: builds the same tree and keeps it cut into ``2**b`` shards (requires
    #: the lbvh builder).  Enables the DELTA_SHARD update policy and
    #: incremental (dirty-shard-only) saves; REFIT needs ``shard_bits=0``.
    shard_bits: int = 0
    sphere_radius: float = 0.25
    #: safety cap for the ray fan-out of wide range lookups in 3D Mode
    max_rays_per_range: int = 64
    #: bytes per entry of the projected value column (used for costing)
    value_bytes: int = 4

    def validate(self) -> None:
        """Reject configurations the hardware (or float32) cannot express.

        Bool fields must hold a bool, int fields an int (not a bool), enum
        fields their enum and ``decomposition`` a :class:`KeyDecomposition`;
        the builder knobs must pass :meth:`BvhBuildOptions.validate`.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "bool" and not isinstance(value, bool):
                raise ValueError(f"{f.name} must be a bool, got {value!r}")
            if f.type == "int" and (not isinstance(value, int) or isinstance(value, bool)):
                raise ValueError(f"{f.name} must be an int, got {value!r}")
            kind = _TYPED_FIELDS.get(f.type)
            if kind is not None and not isinstance(value, kind):
                raise ValueError(f"{f.name} must be a {f.type}, got {value!r}")
        if self.key_mode is KeyMode.EXTENDED:
            if self.primitive is PrimitiveType.SPHERE:
                raise ValueError(
                    "Extended Mode cannot use sphere primitives: the fixed "
                    "radius is not representable between adjacent float keys "
                    "(Table 1)"
                )
            if self.point_ray_mode is PointRayMode.PARALLEL_FROM_OFFSET:
                raise ValueError(
                    "Extended Mode does not support offsetting the ray origin "
                    "(float32 precision); use perpendicular or from-zero rays"
                )
            if self.range_ray_mode is RangeRayMode.PARALLEL_FROM_OFFSET:
                raise ValueError(
                    "Extended Mode does not support offsetting the ray origin "
                    "(float32 precision); use from-zero range rays"
                )
        if self.update_policy is UpdatePolicy.REFIT and self.compaction:
            raise ValueError(
                "update_policy=REFIT cannot be combined with compaction=True: a "
                "refit needs the OptiX update flag at build time, and compaction "
                "has no effect on accels built with it; use compaction=False "
                "(the paper chooses rebuilds + compaction)"
            )
        self.bvh_options().validate()
        if self.update_policy is UpdatePolicy.REFIT and self.shard_bits:
            raise ValueError(
                "update_policy=REFIT cannot be combined with shard_bits >= 1: a "
                "refit moves keys without moving their rows between shards, "
                "which breaks the Morton-prefix partition a saved forest "
                "needs; use shard_bits=0 or update_policy=DELTA_SHARD"
            )
        if self.update_policy is UpdatePolicy.DELTA_SHARD and self.shard_bits < 1:
            raise ValueError(
                "delta-shard updates require shard_bits >= 1: the update "
                "granularity is the Morton-prefix shard"
            )
        if self.max_rays_per_range < 1:
            raise ValueError("max_rays_per_range must be positive")
        if not 0 < self.sphere_radius < 0.5:  # NaN-proof: NaN fails every compare
            raise ValueError(
                f"sphere_radius must lie in (0, 0.5) to keep gaps, got {self.sphere_radius}"
            )
        if self.value_bytes not in (4, 8):
            raise ValueError("value_bytes must be 4 or 8")

    def bvh_options(self) -> BvhBuildOptions:
        """The options every tree of an index with this config is built and
        loaded with: the builder knobs, and the update flag exactly under
        REFIT."""
        return BvhBuildOptions(
            builder=self.bvh_builder,
            max_leaf_size=self.max_leaf_size,
            morton_bits=self.morton_bits,
            allow_update=self.update_policy is UpdatePolicy.REFIT,
            shard_bits=self.shard_bits,
        )

    def with_updates_enabled(self) -> "RXConfig":
        """Copy of this config prepared for refit-style updates."""
        return replace(self, compaction=False, update_policy=UpdatePolicy.REFIT)

    def with_delta_updates(self, shard_bits: int = 6, workers: int = 1) -> "RXConfig":
        """Copy of this config prepared for forest-backed delta-shard updates.

        Unlike refits, delta updates rebuild (and recompact) the dirty
        subtrees, so neither the OptiX update flag nor disabling compaction
        is required.  Shards are always built serially, in-process.
        """
        # ``workers`` stays only so existing callers passing workers=1 keep working.
        if workers != 1:
            raise ValueError(f"forest builds are serial; workers must be 1, got {workers}")
        return replace(
            self,
            shard_bits=shard_bits,
            update_policy=UpdatePolicy.DELTA_SHARD,
        )

    @staticmethod
    def paper_default() -> "RXConfig":
        """The configuration the paper selects for its main evaluation."""
        return RXConfig()

    def as_dict(self) -> dict:
        """JSON-safe form of the full configuration (enums by value, the
        decomposition by its ``"x+y+z"`` label) — what the persistent epoch
        store records in its manifest so ``RXIndex.load`` can reconstruct
        the index exactly as configured at save time."""
        return {
            "key_mode": self.key_mode.value,
            "primitive": self.primitive.value,
            "point_ray_mode": self.point_ray_mode.value,
            "range_ray_mode": self.range_ray_mode.value,
            "decomposition": self.decomposition.label(),
            "compaction": self.compaction,
            "update_policy": self.update_policy.value,
            "bvh_builder": self.bvh_builder,
            "max_leaf_size": self.max_leaf_size,
            "morton_bits": self.morton_bits,
            "shard_bits": self.shard_bits,
            "sphere_radius": self.sphere_radius,
            "max_rays_per_range": self.max_rays_per_range,
            "value_bytes": self.value_bytes,
        }

    @staticmethod
    def from_dict(data: dict) -> "RXConfig":
        """Inverse of :meth:`as_dict`; validates the reconstructed config.

        Keys of retired fields (:data:`RETIRED_CONFIG_KEYS`) that older
        snapshot manifests still carry are dropped; any other key that
        :meth:`as_dict` does not write is rejected, naming it.
        """
        data = {k: v for k, v in data.items() if k not in RETIRED_CONFIG_KEYS}
        unknown = sorted(data.keys() - {f.name for f in fields(RXConfig)})
        if unknown:
            raise ValueError(f"malformed RXConfig dict: unknown keys {unknown}")
        try:
            config = RXConfig(
                key_mode=KeyMode(data.pop("key_mode")),
                primitive=PrimitiveType(data.pop("primitive")),
                point_ray_mode=PointRayMode(data.pop("point_ray_mode")),
                range_ray_mode=RangeRayMode(data.pop("range_ray_mode")),
                decomposition=KeyDecomposition.from_label(data.pop("decomposition")),
                update_policy=UpdatePolicy(data.pop("update_policy")),
                **data,
            )
            config.validate()
        except (KeyError, TypeError, AttributeError) as exc:
            # A missing field, or a field of the wrong type for its parser
            # or for validate()'s comparisons.
            raise ValueError(f"malformed RXConfig dict: {exc!r}") from exc
        return config
