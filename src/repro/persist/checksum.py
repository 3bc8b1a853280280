"""Vectorised CRC32C (Castagnoli) — no third-party dependencies.

Format-1 manifests record a whole-file CRC32C per segment, so loading a
store no format-2 save has rewritten yet verifies every byte through this
kernel; saves never call it (format 2 digests with SHA-256, see
:mod:`repro.persist.segments`).  A pure-Python per-byte loop is far too
slow for multi-megabyte array segments, and a native ``crc32c`` package
is not a dependency, so the computation is vectorised with NumPy over
~1 MiB chunks (a chunk's temporaries stay cache-resident):

* **per-lane slicing-by-64** — a chunk is viewed as 64-byte blocks, one
  row per block.  Lane ``i`` (byte ``i`` of every block) goes through one
  ``take`` from its own 256-entry table, and XOR-accumulating the 64 lane
  gathers yields every block's *raw* CRC contribution in parallel.  A
  chunk whose length is not a multiple of 64 contributes its leading
  bytes as one zero-padded block in front.
* **table combine** — the raw CRC remainder (init 0, no final xor) is
  linear over GF(2), and advancing a state across ``2**k`` zero bytes is a
  32x32 bit-matrix multiply.  Each such matrix is precomputed at import as
  4 byte tables (``T[j][b]`` = the matrix applied to ``b << 8j``), so one
  advance is 4 gathers and 3 XORs.  Per-block raws are folded pairwise in
  a log-depth tree, one table level per tree level; an odd count gets a
  zero block in front, which is the identity.

``_TABLE[0] == 0`` makes leading zero bytes the identity under a zero
state, which is what lets a short first block be zero-padded and a tree
level be front-padded.  The standard CRC32C conditioning (init
``0xFFFFFFFF``, final xor) is applied once at digest time through one
extra advance over the total length.  The check value
``crc32c(b"123456789") == 0xE3069283`` and the canonical per-byte loop
(``crc32c_reference``) pin the implementation in
``tests/test_persist_roundtrip.py``.
"""

from __future__ import annotations

import numpy as np

#: Reflected Castagnoli polynomial (the iSCSI/ext4 CRC32C).
_POLY = 0x82F63B78

#: Bytes per block of the slicing pass (one lane per byte).
_SLICE_WIDTH = 64

#: Chunk size of the streaming fold.  1 MiB measured fastest on a 2-vCPU
#: x86 host: 2 MiB chunks ran ~1.8x slower (the lane gathers fall out of
#: cache), 256 KiB chunks ~1.3x slower (per-chunk overhead).
_CHUNK_BYTES = 1 << 20

#: Zero-byte advances are tabled for every power of two below ``2**64``.
_SHIFT_LEVELS = 64


def _make_byte_table() -> np.ndarray:
    table = np.empty(256, dtype=np.uint32)
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        table[byte] = crc
    return table


_TABLE = _make_byte_table()


def _make_slice_tables() -> np.ndarray:
    """``tables[i][b]``: contribution of byte ``b`` sitting ``63 - i`` bytes
    before the end of its 64-byte block (slicing-by-64)."""
    tables = np.empty((_SLICE_WIDTH, 256), dtype=np.uint32)
    tables[_SLICE_WIDTH - 1] = _TABLE
    for i in range(_SLICE_WIDTH - 2, -1, -1):
        later = tables[i + 1]
        tables[i] = (later >> np.uint32(8)) ^ _TABLE[later & np.uint32(0xFF)]
    return tables


_SLICE_TABLES = _make_slice_tables()
_LANES = np.arange(_SLICE_WIDTH, dtype=np.intp)


# --------------------------------------------------------------------- #
# zero-byte advances as byte tables
# --------------------------------------------------------------------- #

def _one_byte_matrix() -> np.ndarray:
    """Matrix (32 uint32 columns) advancing a raw state across one zero byte."""
    cols = np.empty(32, dtype=np.uint32)
    for j in range(32):
        state = 1 << j
        cols[j] = (state >> 8) ^ int(_TABLE[state & 0xFF])
    return cols


def _byte_tables(cols: np.ndarray) -> np.ndarray:
    """The matrix as 4 byte tables: ``tables[j][b]`` = matrix · ``(b << 8j)``."""
    tables = np.zeros((4, 256), dtype=np.uint32)
    per_byte = cols.reshape(4, 8)
    for bit in range(8):
        tables[:, 1 << bit : 2 << bit] = tables[:, : 1 << bit] ^ per_byte[:, bit : bit + 1]
    return tables


def _apply(tables: np.ndarray, states):
    """Advance a state (or a uint32 vector of states) through one level."""
    return (
        tables[0][states & 0xFF]
        ^ tables[1][(states >> 8) & 0xFF]
        ^ tables[2][(states >> 16) & 0xFF]
        ^ tables[3][states >> 24]
    )


def _make_shift_tables() -> np.ndarray:
    """``tables[k]`` advances a raw state across ``2**k`` zero bytes."""
    tables = np.empty((_SHIFT_LEVELS, 4, 256), dtype=np.uint32)
    cols = _one_byte_matrix()
    for k in range(_SHIFT_LEVELS):
        tables[k] = _byte_tables(cols)
        cols = _apply(tables[k], cols)  # square: 2**k -> 2**(k+1) bytes
    return tables


_SHIFT_TABLES = _make_shift_tables()


def _advance_state(state: int, nbytes: int) -> int:
    """Advance a raw CRC state across ``nbytes`` zero bytes."""
    k = 0
    while nbytes:
        if nbytes & 1:
            state = int(_apply(_SHIFT_TABLES[k], state))
        nbytes >>= 1
        k += 1
    return state


# --------------------------------------------------------------------- #
# the vectorised kernel
# --------------------------------------------------------------------- #

def _raw_crc_chunk(data: np.ndarray) -> int:
    """Raw (init 0, no final xor) CRC of one contiguous uint8 chunk."""
    head = data.shape[0] % _SLICE_WIDTH
    body = data[head:].reshape(-1, _SLICE_WIDTH)
    per_block = np.zeros(body.shape[0] + 1, dtype=np.uint32)
    # The head's bytes occupy the last lanes of a zero-padded first block.
    per_block[0] = np.bitwise_xor.reduce(
        _SLICE_TABLES[_LANES[_SLICE_WIDTH - head :], data[:head]]
    )
    if body.shape[0]:
        blocks = per_block[1:]
        for lane, table in enumerate(_SLICE_TABLES):
            blocks ^= table.take(body[:, lane])
    level = _SLICE_WIDTH.bit_length() - 1  # each block spans 2**level bytes
    while per_block.shape[0] > 1:
        if per_block.shape[0] & 1:
            per_block = np.concatenate((np.zeros(1, dtype=np.uint32), per_block))
        per_block = _apply(_SHIFT_TABLES[level], per_block[0::2]) ^ per_block[1::2]
        level += 1
    return int(per_block[0])


def _as_u8(data) -> np.ndarray:
    if isinstance(data, np.ndarray):
        return np.ascontiguousarray(data).reshape(-1).view(np.uint8)
    view = memoryview(data)
    if view.format != "B":
        view = view.cast("B")
    return np.frombuffer(view, dtype=np.uint8)


class Crc32c:
    """Incremental CRC32C over a sequence of buffers (bytes-likes or arrays)."""

    def __init__(self) -> None:
        self._raw = 0
        self._length = 0

    def update(self, data) -> "Crc32c":
        buf = _as_u8(data)
        for lo in range(0, buf.shape[0], _CHUNK_BYTES):
            chunk = buf[lo : lo + _CHUNK_BYTES]
            self._raw = _advance_state(self._raw, chunk.shape[0]) ^ _raw_crc_chunk(chunk)
            self._length += chunk.shape[0]
        return self

    def digest(self) -> int:
        # Conditioning: seed 0xFFFFFFFF advanced across the whole length,
        # xored with the raw remainder, then the final inversion.
        return (self._raw ^ _advance_state(0xFFFFFFFF, self._length) ^ 0xFFFFFFFF) & 0xFFFFFFFF


def crc32c(data) -> int:
    """Standard CRC32C of one buffer (bytes-like or NumPy array)."""
    return Crc32c().update(data).digest()


def crc32c_reference(data: bytes) -> int:
    """Canonical per-byte CRC32C loop — the test oracle for the kernel."""
    crc = 0xFFFFFFFF
    for byte in bytes(data):
        crc = (crc >> 8) ^ int(_TABLE[(crc ^ byte) & 0xFF])
    return crc ^ 0xFFFFFFFF
