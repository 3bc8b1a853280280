"""Immutable, digest-verified segment files — the unit of the epoch store.

A segment is one self-describing file holding a set of named NumPy arrays
(the persisted form of one index component: a column segment, a
single-tree BVH, or one forest shard).  Layout::

    +------------------+  offset 0             -+
    | magic "RXSEG001" |  8 bytes               |
    | header length    |  8 bytes, LE uint64    |  header region
    | JSON header      |  name, epoch tag,      |
    |                  |  array table, meta     |
    | zero padding     |  up to the payload base|
    +------------------+  payload base = align64(16 + header length)
    | array payloads   |  each 64-byte aligned, |  payload region
    |                  |  zero gaps between     |
    +------------------+                       -+

Array offsets are relative to the payload base so the header can be
serialised before the offsets are final (no offset/header-length
circularity), and the 64-byte alignment keeps memory-mapped views aligned
for every dtype in use.

Digest: one SHA-256 over every byte of the file, the payload region first
and the header region after it (:func:`segment_sha256`).  SHA-256 states
cannot be combined, so the order is what lets a save read each payload
byte once: it hashes the payload region of a segment's arrays over
zero-copy views (:func:`payload_digest`), then finishes copies of that one
state with whichever header regions it needs — the header the committed
file carries, to decide reuse, or the header of the file it is about to
write.  Both come from :func:`header_region`, the function
:func:`write_segment` writes with.

Segments are **immutable**: the header and each array's bytes, behind
their zero alignment gaps, are streamed from the arrays themselves into a
temp file, with no file image assembled, then published with the
write-temp → fsync → atomic-rename protocol shared with the manifest.  The
three durability boundaries of that protocol — and the verification read
— are fault-injection sites (``persist_write``,
``persist_fsync``, ``persist_rename``, ``persist_read_corrupt``) so the
crash harness can kill a save at every step and flip bits on the read
path.  Temp files carry a ``.tmp.`` prefix so interrupted saves leave
orphans that :func:`repro.persist.store` can garbage-collect.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from repro.persist.errors import SnapshotCorrupt, SnapshotTorn

MAGIC = b"RXSEG001"
_PREFIX_BYTES = len(MAGIC) + 8
_ALIGN = 64

#: dtype kinds a segment array may hold: bool, int, uint, float, complex.
_ARRAY_KINDS = "biufc"

#: Prefix of in-flight temp files (the orphan-GC marker).
TMP_PREFIX = ".tmp."


def _align_up(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def is_count(value) -> bool:
    """A non-negative int that is not a bool (JSON ``true`` loads as one)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


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


def atomic_write(path: Path, parts, fault_injector=None) -> None:
    """Publish the bytes of ``parts``, in order, at ``path`` via write-temp
    → fsync → atomic rename.

    ``parts`` is a sequence of bytes-likes (uint8 arrays included), each
    written from its own buffer.  With a fault injector attached, the three
    durability boundaries consult their sites: ``persist_write`` fires a
    *torn* write (the first half of the file's bytes land, then the save
    dies), ``persist_fsync`` dies before the data reaches the platter,
    ``persist_rename`` dies before the temp file is published — each leaves
    exactly the wreckage a real crash at that boundary would.
    """
    path = Path(path)
    tmp = path.parent / (TMP_PREFIX + path.name)
    views = [memoryview(part) for part in parts]
    with open(tmp, "wb") as handle:
        if fault_injector is not None and fault_injector.fires("persist_write"):
            # Imported lazily: the persist layer only needs the serving
            # stack's exception type when an injector is actually attached,
            # and the deferred import keeps repro.persist importable without
            # dragging in (or cycling with) the serving package.
            from repro.serve.faults import InjectedFault

            torn = sum(view.nbytes for view in views) // 2
            for view in views:
                handle.write(view[: min(view.nbytes, torn)])
                torn -= min(view.nbytes, torn)
            handle.flush()
            raise InjectedFault(
                "persist_write", fault_injector.occurrences["persist_write"] - 1
            )
        for view in views:
            handle.write(view)
        handle.flush()
        if fault_injector is not None:
            fault_injector.check("persist_fsync")
        os.fsync(handle.fileno())
    if fault_injector is not None:
        fault_injector.check("persist_rename")
    os.replace(tmp, path)


def _layout(arrays: dict[str, np.ndarray]) -> list[tuple[str, np.ndarray, int]]:
    """``(name, C-contiguous array, payload-relative offset)`` per array, in
    order, each starting at the first 64-byte boundary after the last."""
    placed = []
    end = 0
    for name, array in arrays.items():
        arr = np.ascontiguousarray(array)
        offset = _align_up(end)
        placed.append((name, arr, offset))
        end = offset + arr.nbytes
    return placed


def header_region(
    name: str, epoch: int, arrays: dict[str, np.ndarray], meta: dict | None = None
) -> bytes:
    """Bytes ``[0, payload base)`` of the segment file holding ``arrays``:
    magic, header length, JSON header, and zero padding to the payload base.
    """
    table = [
        {
            "name": array_name,
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": int(arr.nbytes),
        }
        for array_name, arr, offset in _layout(arrays)
    ]
    header = {"name": name, "epoch": int(epoch), "arrays": table, "meta": meta or {}}
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    prefix = MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes
    return prefix + bytes(_align_up(len(prefix)) - len(prefix))


def _payload(arrays: dict[str, np.ndarray]):
    """The payload region of the segment holding ``arrays``, in file order:
    per array, its zero alignment gap and a zero-copy uint8 view of its
    bytes."""
    end = 0
    for _name, arr, offset in _layout(arrays):
        yield bytes(offset - end), arr.reshape(-1).view(np.uint8)
        end = offset + arr.nbytes


def payload_digest(arrays: dict[str, np.ndarray]):
    """SHA-256 state after the payload region of the segment holding
    ``arrays``, hashed over zero-copy views.  Finish it with
    :func:`segment_sha256`."""
    state = hashlib.sha256()
    for gap, data in _payload(arrays):
        state.update(gap)
        state.update(data)
    return state


def segment_sha256(payload, header: bytes) -> str:
    """The digest of a segment file: its payload region's
    :func:`payload_digest` state (copied, not consumed) extended by its
    header region."""
    state = payload.copy()
    state.update(header)
    return state.hexdigest()


def write_segment(
    path: Path,
    name: str,
    epoch: int,
    arrays: dict[str, np.ndarray],
    meta: dict | None = None,
    fault_injector=None,
    payload=None,
) -> dict:
    """Digest and atomically publish one segment, streaming its header and
    each array's bytes, behind its zero alignment gap, into the file.

    Returns the manifest entry for the segment (sans the relative path,
    which the store fills in): the file's SHA-256, its length and the
    segment's own epoch tag.  ``payload`` is the :func:`payload_digest` of
    ``arrays`` when the caller already has it (the store does, from its
    reuse decision); without it the payload region is hashed here.
    """
    header = header_region(name, epoch, arrays, meta)
    parts = [header]
    for gap, data in _payload(arrays):
        parts += [gap, data]
    if payload is None:
        payload = payload_digest(arrays)
    entry = {
        "sha256": segment_sha256(payload, header),
        "length": sum(len(part) for part in parts),
        "epoch": int(epoch),
    }
    atomic_write(Path(path), parts, fault_injector)
    return entry


def _sha256(blob: np.ndarray, segment: str) -> bytes:
    """The digest :func:`segment_sha256` records for the file ``blob``:
    SHA-256 of its payload region, then its header region."""
    # The header-length field splits the file, so bound it before slicing
    # (a file shorter than the field fails the bound too).
    size = int(blob.shape[0])
    header_len = int.from_bytes(blob[len(MAGIC) : _PREFIX_BYTES].tobytes(), "little")
    base = _align_up(_PREFIX_BYTES + header_len)
    if base > size:
        raise SnapshotCorrupt(
            f"segment {segment} failed checksum verification: its header-length "
            f"field does not fit the {size}-byte file",
            segment=segment,
        )
    state = hashlib.sha256(blob[base:])
    state.update(blob[:base])
    return state.digest()


def _malformed(segment: str, field: str, problem: str) -> SnapshotCorrupt:
    return SnapshotCorrupt(
        f"segment {segment} holds a malformed header: {field} {problem}",
        segment=segment,
    )


def _array_specs(header, segment: str, room: int) -> list[tuple[str, np.dtype, list, int, int]]:
    """Check a parsed header's structure and return ``(name, dtype, shape,
    offset, nbytes)`` per array: a unique name, a known dtype, a shape of
    non-negative ints, ``nbytes`` equal to the shape's size, and a 64-byte
    aligned span that starts after the previous array's and ends inside
    the ``room`` bytes of the payload region."""
    if not isinstance(header, dict):
        raise _malformed(segment, "header", "is not a JSON object")
    epoch = header.get("epoch")
    if isinstance(epoch, bool) or not isinstance(epoch, int):
        raise _malformed(segment, "epoch", f"{epoch!r} is not an int")
    if not isinstance(header.get("meta", {}), dict):
        raise _malformed(segment, "meta", "is not a JSON object")
    table = header.get("arrays")
    if not isinstance(table, list):
        raise _malformed(segment, "arrays", f"{table!r} is not a list")
    specs = []
    names = set()
    end = 0
    for i, spec in enumerate(table):
        field = f"arrays[{i}]"
        if not isinstance(spec, dict):
            raise _malformed(segment, field, "is not a JSON object")
        name = spec.get("name")
        if not isinstance(name, str) or name in names:
            raise _malformed(segment, f"{field}.name", f"{name!r} is not a unique str")
        names.add(name)
        dtype_str = spec.get("dtype")
        try:
            dtype = np.dtype(dtype_str) if isinstance(dtype_str, str) else None
        except (TypeError, ValueError):
            dtype = None
        if dtype is None or dtype.kind not in _ARRAY_KINDS:
            raise _malformed(segment, f"{field}.dtype", f"{dtype_str!r} is not a known dtype")
        shape = spec.get("shape")
        if not isinstance(shape, list) or not all(is_count(dim) for dim in shape):
            raise _malformed(segment, f"{field}.shape", f"{shape!r} is not non-negative ints")
        nbytes = spec.get("nbytes")
        size = math.prod(shape) * dtype.itemsize
        if not is_count(nbytes) or nbytes != size:
            raise _malformed(
                segment, f"{field}.nbytes", f"{nbytes!r} is not the {size} bytes its shape holds"
            )
        offset = spec.get("offset")
        if not is_count(offset) or offset % _ALIGN:
            raise _malformed(
                segment, f"{field}.offset",
                f"{offset!r} is not a non-negative multiple of {_ALIGN}",
            )
        if not end <= offset <= room - nbytes:
            raise _malformed(
                segment, f"{field}.offset",
                f"{offset} places bytes [{offset}, {offset + nbytes}) outside "
                f"[{end}, {room}), after the previous array and inside the payload region",
            )
        specs.append((name, dtype, shape, offset, nbytes))
        end = offset + nbytes
    return specs


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
    drives verification before any view is made: the length first, then
    the entry's ``sha256`` over every byte, then, after the header checks,
    the segment's own epoch tag against the manifest's — a reused clean
    segment legitimately carries an *older* epoch than the manifest it
    appears in, so the entry records which epoch wrote it.  Failures raise
    :class:`SnapshotTorn` / :class:`SnapshotCorrupt` naming the segment,
    as does a header that verifies but does not describe arrays inside the
    file.

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
        actual = _sha256(blob, segment)
        if fault_injector is not None and fault_injector.fires("persist_read_corrupt"):
            actual = bytes([actual[0] ^ 0x1]) + actual[1:]  # a flipped bit on the read path
        if actual.hex() != expected["sha256"]:
            raise SnapshotCorrupt(
                f"segment {segment} failed checksum verification "
                f"(sha256 {actual.hex()} != recorded {expected['sha256']})",
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
    payload_base = _align_up(_PREFIX_BYTES + header_len)
    specs = _array_specs(header, segment, int(blob.shape[0]) - payload_base)
    if expected is not None and header["epoch"] != int(expected["epoch"]):
        raise SnapshotTorn(
            f"segment {segment} carries epoch tag {header['epoch']} but the "
            f"manifest entry records epoch {int(expected['epoch'])} — "
            "mixed-epoch snapshot",
            segment=segment,
        )
    arrays: dict[str, np.ndarray] = {}
    for name, dtype, shape, offset, nbytes in specs:
        lo = payload_base + offset
        arrays[name] = blob[lo : lo + nbytes].view(dtype).reshape(shape)
    return arrays, header.get("meta", {})
