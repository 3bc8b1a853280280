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

#: The paper conservatively restricts Naive Mode to 2**23 distinct keys so
#: that ``k + 0.5`` remains exactly representable for every key ``k``.
NAIVE_MODE_KEY_LIMIT = 2**23

#: Extended Mode maps key ``k`` to the float32 whose bit pattern is
#: ``2 * k + EXTENDED_MODE_OFFSET``; the paper found this offset constant to
#: produce correct results for all keys up to 2**29.
EXTENDED_MODE_OFFSET = int(np.float32(0.5).view(np.uint32))
EXTENDED_MODE_KEY_LIMIT = 2**29


def bit_cast_u32_to_f32(bits) -> np.ndarray:
    """Reinterpret unsigned 32-bit integer bit patterns as float32 values.

    Mirrors C++ ``bit_cast<float>(uint32_t)`` used by Extended Mode.
    """
    arr = np.asarray(bits, dtype=np.uint32)
    return arr.view(np.float32)


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
