"""Immutable, checksummed segment files — the unit of the epoch store.

A segment is one self-describing file holding a set of named NumPy arrays
(the persisted form of one accel component: the key column, a single-tree
BVH, or one forest shard).  Layout::

    +------------------+  offset 0
    | magic "RXSEG001" |  8 bytes
    | header length    |  8 bytes, little-endian uint64
    | JSON header      |  name, epoch tag, array table, free-form meta
    +------------------+  payload base = align64(16 + header length)
    | array payloads   |  each 64-byte aligned, offsets relative to base
    +------------------+

Array offsets are relative to the payload base so the header can be
serialised before the offsets are final (no offset/header-length
circularity), and the 64-byte alignment keeps memory-mapped views aligned
for every dtype in use.

Segments are **immutable**: they are assembled fully in memory, then
published with the write-temp → fsync → atomic-rename protocol shared with
the manifest.  The three durability boundaries of that protocol — and the
verification read — are fault-injection sites (``persist_write``,
``persist_fsync``, ``persist_rename``, ``persist_read_corrupt``) so the
crash harness can kill a save at every step and flip bits on the read
path.  Temp files carry a ``.tmp.`` prefix so interrupted saves leave
orphans that :func:`repro.persist.store` can garbage-collect.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from repro.persist.checksum import Crc32c, crc32c, crc32c_combine
from repro.persist.errors import SnapshotCorrupt, SnapshotTorn

MAGIC = b"RXSEG001"
_PREFIX_BYTES = len(MAGIC) + 8
_ALIGN = 64

#: Prefix of in-flight temp files (the orphan-GC marker).
TMP_PREFIX = ".tmp."


def _align_up(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def fsync_dir(path: Path) -> None:
    """Flush a directory entry (the rename's durability half) where supported."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform without dir fsync
        pass
    finally:
        os.close(fd)


def atomic_write(path: Path, blob, fault_injector=None) -> None:
    """Publish ``blob`` at ``path`` via write-temp → fsync → atomic rename.

    ``blob`` is any bytes-like (including a uint8 array).  With a fault
    injector attached, the three durability boundaries consult their sites:
    ``persist_write`` fires a *torn* write (half the bytes land, then the
    save dies), ``persist_fsync`` dies before the data reaches the platter,
    ``persist_rename`` dies before the temp file is published — each leaves
    exactly the wreckage a real crash at that boundary would.
    """
    path = Path(path)
    tmp = path.parent / (TMP_PREFIX + path.name)
    view = memoryview(blob)
    with open(tmp, "wb") as handle:
        if fault_injector is not None and fault_injector.fires("persist_write"):
            # Imported lazily: the persist layer only needs the serving
            # stack's exception type when an injector is actually attached,
            # and the deferred import keeps repro.persist importable without
            # dragging in (or cycling with) the serving package.
            from repro.serve.faults import InjectedFault

            handle.write(view[: len(view) // 2])
            handle.flush()
            raise InjectedFault(
                "persist_write", fault_injector.occurrences["persist_write"] - 1
            )
        handle.write(view)
        handle.flush()
        if fault_injector is not None:
            fault_injector.check("persist_fsync")
        os.fsync(handle.fileno())
    if fault_injector is not None:
        fault_injector.check("persist_rename")
    os.replace(tmp, path)


def payload_crc(arrays: dict[str, np.ndarray]) -> int:
    """CRC32C over the concatenated array payloads (order-sensitive).

    The second reuse digest of incremental saves: the store computes it
    only for a segment whose payload SHA-256 already matches the committed
    entry, and reuses the previous epoch's immutable file only when this
    CRC matches too.
    """
    crc = Crc32c()
    for array in arrays.values():
        crc.update(np.ascontiguousarray(array))
    return crc.digest()


def payload_sha256(arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 over the concatenated array payloads (order-sensitive).

    The content identity of incremental reuse, checked first: CRC32C is
    a corruption detector, not a content fingerprint (a changed payload
    collides with probability 2^-32 per save), so the reuse decision
    requires *both* digests to match before referencing the previous
    epoch's file instead of rewriting.  Hashes zero-copy byte views.
    """
    digest = hashlib.sha256()
    for array in arrays.values():
        digest.update(np.ascontiguousarray(array).reshape(-1).view(np.uint8))
    return digest.hexdigest()


def assemble_segment(
    name: str, epoch: int, arrays: dict[str, np.ndarray], meta: dict | None = None
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Serialise one segment into a single uint8 array (the full file image).

    Returns the image and the ``[lo, hi)`` byte range each array's payload
    occupies in it, in array order.
    """
    table = []
    payloads = []
    offset = 0
    for array_name, array in arrays.items():
        arr = np.ascontiguousarray(array)
        offset = _align_up(offset)
        table.append(
            {
                "name": array_name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": int(arr.nbytes),
            }
        )
        payloads.append((offset, arr))
        offset += arr.nbytes
    header = {
        "name": name,
        "epoch": int(epoch),
        "arrays": table,
        "meta": meta or {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload_base = _align_up(_PREFIX_BYTES + len(header_bytes))
    blob = np.zeros(payload_base + offset, dtype=np.uint8)
    blob[: len(MAGIC)] = np.frombuffer(MAGIC, dtype=np.uint8)
    blob[len(MAGIC) : _PREFIX_BYTES] = np.frombuffer(
        struct.pack("<Q", len(header_bytes)), dtype=np.uint8
    )
    blob[_PREFIX_BYTES : _PREFIX_BYTES + len(header_bytes)] = np.frombuffer(
        header_bytes, dtype=np.uint8
    )
    spans = []
    for rel, arr in payloads:
        lo = payload_base + rel
        blob[lo : lo + arr.nbytes] = arr.reshape(-1).view(np.uint8)
        spans.append((lo, lo + arr.nbytes))
    return blob, spans


def _segment_crcs(blob: np.ndarray, spans: list[tuple[int, int]]) -> tuple[int, int]:
    """Whole-file and payload CRC32C of a file image, reading each byte once.

    Every part — the header, each alignment gap and each array payload in
    ``spans`` — is CRCed once; :func:`crc32c_combine` joins all parts into
    the file's CRC and the array parts alone into the payload CRC (equal
    to :func:`payload_crc` of the arrays).
    """
    file_crc = payload = end = 0
    # An empty sentinel part covers the bytes after the last array (the
    # whole image of a segment without arrays).
    for lo, hi in [*spans, (blob.shape[0], blob.shape[0])]:
        file_crc = crc32c_combine(file_crc, crc32c(blob[end:lo]), lo - end)
        part = crc32c(blob[lo:hi])
        file_crc = crc32c_combine(file_crc, part, hi - lo)
        payload = crc32c_combine(payload, part, hi - lo)
        end = hi
    return file_crc, payload


def write_segment(
    path: Path,
    name: str,
    epoch: int,
    arrays: dict[str, np.ndarray],
    meta: dict | None = None,
    fault_injector=None,
    sha256: str | None = None,
) -> dict:
    """Assemble, checksum and atomically publish one segment.

    Returns the manifest entry for the segment (sans the relative path,
    which the store fills in): whole-file CRC, both payload identity
    digests, length and the segment's own epoch tag.  Both CRCs come from
    one pass over the file image (:func:`_segment_crcs`); ``sha256`` lets
    the store pass the payload SHA-256 it already computed for the reuse
    decision instead of hashing the payload twice.
    """
    blob, spans = assemble_segment(name, epoch, arrays, meta)
    file_crc, payload_crc32c = _segment_crcs(blob, spans)
    entry = {
        "crc32c": file_crc,
        "payload_crc32c": payload_crc32c,
        "payload_sha256": payload_sha256(arrays) if sha256 is None else sha256,
        "length": int(blob.shape[0]),
        "epoch": int(epoch),
    }
    atomic_write(Path(path), blob, fault_injector)
    return entry


def read_segment(
    path: Path,
    *,
    mmap: bool = True,
    expected: dict | None = None,
    fault_injector=None,
) -> tuple[dict[str, np.ndarray], dict]:
    """Open one segment, optionally verifying it against a manifest entry.

    With ``mmap=True`` the file is memory-mapped read-only and every array
    is a zero-copy view into the mapping.  ``expected`` (a manifest entry)
    drives verification: length and whole-file CRC32C first, then the
    segment's own epoch tag against the manifest's — a reused clean segment
    legitimately carries an *older* epoch than the manifest it appears in,
    so the entry records which epoch wrote it.  Failures raise
    :class:`SnapshotTorn` / :class:`SnapshotCorrupt` naming the segment.

    Returns ``(arrays, meta)``.
    """
    path = Path(path)
    segment = path.name
    try:
        if mmap:
            blob = np.memmap(path, dtype=np.uint8, mode="r")
        else:
            blob = np.fromfile(path, dtype=np.uint8)
    except (OSError, ValueError) as exc:
        raise SnapshotTorn(
            f"segment {segment} is missing or unreadable: {exc}", segment=segment
        ) from exc
    if expected is not None:
        if int(blob.shape[0]) != int(expected["length"]):
            raise SnapshotTorn(
                f"segment {segment} is truncated: {int(blob.shape[0])} bytes on "
                f"disk, manifest records {int(expected['length'])}",
                segment=segment,
            )
        actual = crc32c(blob)
        if fault_injector is not None and fault_injector.fires("persist_read_corrupt"):
            actual ^= 0x1  # a flipped bit on the read path
        if actual != int(expected["crc32c"]):
            raise SnapshotCorrupt(
                f"segment {segment} failed checksum verification "
                f"(crc32c {actual:#010x} != recorded {int(expected['crc32c']):#010x})",
                segment=segment,
            )
    if blob.shape[0] < _PREFIX_BYTES or not np.array_equal(
        blob[: len(MAGIC)], np.frombuffer(MAGIC, dtype=np.uint8)
    ):
        raise SnapshotCorrupt(
            f"segment {segment} does not start with the segment magic",
            segment=segment,
        )
    (header_len,) = struct.unpack("<Q", blob[len(MAGIC) : _PREFIX_BYTES].tobytes())
    if _PREFIX_BYTES + header_len > blob.shape[0]:
        raise SnapshotTorn(
            f"segment {segment} is truncated inside its header", segment=segment
        )
    try:
        header = json.loads(
            blob[_PREFIX_BYTES : _PREFIX_BYTES + header_len].tobytes().decode("utf-8")
        )
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotCorrupt(
            f"segment {segment} holds an unparseable header: {exc}", segment=segment
        ) from exc
    if expected is not None and int(header.get("epoch", -1)) != int(expected["epoch"]):
        raise SnapshotTorn(
            f"segment {segment} carries epoch tag {header.get('epoch')} but the "
            f"manifest entry records epoch {int(expected['epoch'])} — "
            "mixed-epoch snapshot",
            segment=segment,
        )
    payload_base = _align_up(_PREFIX_BYTES + header_len)
    arrays: dict[str, np.ndarray] = {}
    for spec in header["arrays"]:
        lo = payload_base + int(spec["offset"])
        hi = lo + int(spec["nbytes"])
        if hi > blob.shape[0]:
            raise SnapshotTorn(
                f"segment {segment} is truncated inside array {spec['name']!r}",
                segment=segment,
            )
        arrays[spec["name"]] = (
            blob[lo:hi].view(np.dtype(spec["dtype"])).reshape(spec["shape"])
        )
    return arrays, header.get("meta", {})
