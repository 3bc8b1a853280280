"""The paper's contribution: RX, a raytracing-backed secondary index.

Public entry points:

* :class:`repro.core.config.RXConfig` — the five configuration dimensions of
  Section 3 (key mode, primitive type, ray modes, key decomposition, update
  policy) plus builder knobs,
* :class:`repro.core.rx_index.RXIndex` — build / point lookup / range lookup /
  update, implementing the common :class:`repro.baselines.base.GpuIndex`
  interface,
* :mod:`repro.core.keycodec` — the three key-to-coordinate conversions of
  Table 1,
* :mod:`repro.core.typemap` — order-preserving mapping of other data types to
  uint64 keys.
"""

from repro.core.config import (
    KeyDecomposition,
    KeyMode,
    PointRayMode,
    PrimitiveType,
    RangeRayMode,
    RXConfig,
    UpdatePolicy,
)
from repro.core.keycodec import (
    ExtendedCodec,
    KeyCodec,
    NaiveCodec,
    ThreeDCodec,
    make_codec,
)
from repro.core.rx_index import RXIndex
from repro.core.typemap import (
    composite_to_uint64,
    float64_to_uint64,
    string_to_uint64,
)

__all__ = [
    "ExtendedCodec",
    "KeyCodec",
    "KeyDecomposition",
    "KeyMode",
    "NaiveCodec",
    "PointRayMode",
    "PrimitiveType",
    "RangeRayMode",
    "RXConfig",
    "RXIndex",
    "ThreeDCodec",
    "UpdatePolicy",
    "composite_to_uint64",
    "float64_to_uint64",
    "make_codec",
    "string_to_uint64",
]
