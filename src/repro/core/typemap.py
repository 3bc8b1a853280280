"""Order-preserving mappings from native data types to uint64 keys.

Section 3.2 ("Handling other data types"): RX indexes unsigned 64-bit
integers, but every native C data type can be mapped to a uint64 while
preserving its ordering — the classic radix-sort trick — and composite types
with lexicographic ordering can pack their leading components into 64 bits
for hardware-accelerated prefiltering.

Floating-point values in particular should *always* be remapped and never be
indexed directly: their raw value range ratio can be astronomically large,
which is exactly the situation that slows the BVH down (see the Extended-Mode
experiments in Figure 3).
"""

from __future__ import annotations

import numpy as np

_SIGN_BIT_64 = np.uint64(1) << np.uint64(63)


def float64_to_uint64(values) -> np.ndarray:
    """Map IEEE-754 doubles to uint64, preserving their total order.

    Positive floats only need their sign bit flipped; negative floats are
    bitwise inverted so that more-negative values map to smaller integers.
    NaNs are not supported (their order is undefined).
    """
    arr = np.asarray(values, dtype=np.float64)
    if np.isnan(arr).any():
        raise ValueError("NaN values cannot be mapped order-preservingly")
    bits = arr.view(np.uint64)
    negative = bits >> np.uint64(63) == 1
    flipped = np.where(negative, ~bits, bits ^ _SIGN_BIT_64)
    return flipped.astype(np.uint64)


def string_to_uint64(values, num_chars: int = 8) -> np.ndarray:
    """Pack the first ``num_chars`` bytes of each string into a uint64.

    The packing is big-endian so that the integer order equals the
    lexicographic order of the prefixes.  Strings sharing a 64-bit prefix
    compare equal here and must be disambiguated in software, exactly as the
    paper describes.
    """
    if not 1 <= num_chars <= 8:
        raise ValueError("num_chars must be between 1 and 8")
    out = np.zeros(len(values), dtype=np.uint64)
    for i, value in enumerate(values):
        raw = value.encode("utf-8")[:num_chars] if isinstance(value, str) else bytes(value)[:num_chars]
        padded = raw.ljust(8, b"\x00")
        out[i] = np.uint64(int.from_bytes(padded, byteorder="big"))
    return out


def composite_to_uint64(components: list[np.ndarray], bits: list[int]) -> np.ndarray:
    """Densely pack several integer components into one uint64 key.

    ``components[0]`` becomes the most significant part, so the packed key
    orders lexicographically — e.g. ``composite_to_uint64([year, month, day],
    [16, 8, 8])``.
    """
    if len(components) != len(bits):
        raise ValueError("components and bits must have the same length")
    if sum(bits) > 64:
        raise ValueError(f"total bit width {sum(bits)} exceeds 64")
    arrays = [np.asarray(c, dtype=np.uint64) for c in components]
    length = arrays[0].shape[0]
    result = np.zeros(length, dtype=np.uint64)
    for component, width in zip(arrays, bits):
        if component.shape[0] != length:
            raise ValueError("all components must have the same length")
        limit = np.uint64(1) << np.uint64(width)
        if np.any(component >= limit):
            raise ValueError(f"a component exceeds its allotted {width} bits")
        result = (result << np.uint64(width)) | component
    return result
