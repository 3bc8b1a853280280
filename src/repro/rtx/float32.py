"""float32 helpers mirroring the restrictions of the OptiX coordinate space.

OptiX only accepts single-precision floating-point vertex coordinates and ray
parameters.  The paper's key-encoding schemes (Section 3.2) therefore have to
reason carefully about which integers are exactly representable as float32,
how to move to the next representable float (``nextafter``), and how to
re-interpret integer bit patterns as floats (``bit_cast``).  This module
collects those primitives so the rest of the code never touches raw NumPy
casting rules directly.
"""

from __future__ import annotations

import numpy as np

#: Largest integer N such that every integer in [0, N] is exactly
#: representable as an IEEE-754 float32 (24-bit significand).
MAX_CONSECUTIVE_INT_F32 = 2**24

#: The paper conservatively restricts Naive Mode to 2**23 distinct keys so
#: that ``k + 0.5`` remains exactly representable for every key ``k``.
NAIVE_MODE_KEY_LIMIT = 2**23

#: Extended Mode maps key ``k`` to the float32 whose bit pattern is
#: ``2 * k + EXTENDED_MODE_OFFSET``; the paper found this offset constant to
#: produce correct results for all keys up to 2**29.
EXTENDED_MODE_OFFSET = int(np.float32(0.5).view(np.uint32))
EXTENDED_MODE_KEY_LIMIT = 2**29


def to_f32_array(values) -> np.ndarray:
    """Convert an array-like of numbers to a float32 NumPy array."""
    return np.asarray(values, dtype=np.float32)


def bit_cast_u32_to_f32(bits) -> np.ndarray:
    """Reinterpret unsigned 32-bit integer bit patterns as float32 values.

    Mirrors C++ ``bit_cast<float>(uint32_t)`` used by Extended Mode.
    """
    arr = np.asarray(bits, dtype=np.uint32)
    return arr.view(np.float32)


def bit_cast_f32_to_u32(values) -> np.ndarray:
    """Reinterpret float32 values as their unsigned 32-bit bit patterns."""
    arr = np.asarray(values, dtype=np.float32)
    return arr.view(np.uint32)


def nextafter_f32(values, direction) -> np.ndarray:
    """Return the next representable float32 after ``values`` toward ``direction``.

    Extended Mode uses this (instead of ``k ± 0.5``) to find the gap value
    next to a key, because consecutive keys are mapped to every second
    representable float.
    """
    vals = np.asarray(values, dtype=np.float32)
    toward = np.asarray(direction, dtype=np.float32)
    return np.nextafter(vals, toward, dtype=np.float32)


def ulp_f32(values) -> np.ndarray:
    """Unit-in-the-last-place of each float32 value (distance to next float)."""
    vals = np.asarray(values, dtype=np.float32)
    return np.abs(np.nextafter(vals, np.float32(np.inf), dtype=np.float32) - vals)


def is_exact_int_f32(values) -> np.ndarray:
    """True where the integer ``values`` survive a round-trip through float32."""
    arr = np.asarray(values, dtype=np.uint64)
    as_float = arr.astype(np.float32)
    back = as_float.astype(np.uint64)
    return back == arr


def is_half_offset_exact_f32(values) -> np.ndarray:
    """True where ``value + 0.5`` is exactly representable as float32.

    Naive Mode needs both ``k`` and ``k ± 0.5`` to be representable: the ray
    of a lookup starts and ends half a unit away from the key coordinate.
    """
    arr = np.asarray(values, dtype=np.uint64).astype(np.float64)
    shifted = arr + 0.5
    as_float = shifted.astype(np.float32)
    return as_float.astype(np.float64) == shifted


def value_range_ratio(values) -> float:
    """Ratio ``q`` between the largest and smallest strictly positive value.

    The paper identifies this ratio (not the magnitude of individual keys) as
    the quantity that degrades Extended-Mode BVHs once it exceeds ~2**26.
    """
    arr = np.asarray(values, dtype=np.float64)
    positive = arr[arr > 0]
    if positive.size == 0:
        return 1.0
    return float(positive.max() / positive.min())


def float_span(values) -> tuple[float, float]:
    """Minimum and maximum of ``values`` after conversion to float32."""
    arr = to_f32_array(values)
    if arr.size == 0:
        return (0.0, 0.0)
    return (float(arr.min()), float(arr.max()))
