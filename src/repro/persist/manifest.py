"""The versioned manifest — the epoch store's single commit point.

``MANIFEST.json`` at the store root is the *only* mutable file in the
store.  It records the format version, the committed epoch, a
monotonically increasing manifest version, the index metadata needed to
reconstruct an :class:`~repro.core.rx_index.RXIndex` (config, key count,
compaction flag), and one entry per segment: a store-relative path (which
may point into an *older* epoch directory when an incremental save reused
a clean segment), the byte length, the epoch that wrote the segment, and
its digest.

Formats 2 and 3 (:data:`READ_FORMATS`) record one SHA-256 per segment
over every byte of its file; a load verifies it.  They differ in the
segments an index's store holds (:mod:`repro.core.layout`).  Saves write
format 3 (``FORMAT_VERSION``).  :func:`load_manifest` refuses any other
format version, so a load of such a store fails and a save over it starts
afresh.

Commit protocol: the manifest is serialised, written to a temp file,
fsynced, and atomically renamed over ``MANIFEST.json``, then the store
directory entry is fsynced.  A snapshot is visible **iff** that rename
landed — an interrupted save leaves either the previous manifest (whose
segments are immutable and untouched) or no manifest at all, never a torn
or mixed-epoch view.
"""

from __future__ import annotations

import json
import re
from pathlib import Path, PurePosixPath

from repro.persist.errors import SnapshotCorrupt, SnapshotTorn
from repro.persist.segments import atomic_write, fsync_dir, is_count

MANIFEST_NAME = "MANIFEST.json"

#: The manifest format saves write.
FORMAT_VERSION = 3
#: The manifest formats loads accept.
READ_FORMATS = (2, 3)

_REQUIRED_KEYS = ("format_version", "version", "epoch", "index", "segments")
#: the keys every segment entry carries
_REQUIRED_ENTRY_KEYS = ("path", "sha256", "length", "epoch")
_SHA256_HEX = re.compile(r"[0-9a-f]{64}")


def commit_manifest(root: Path, manifest: dict, fault_injector=None) -> Path:
    """Atomically publish ``manifest`` at the store root (the commit point)."""
    root = Path(root)
    blob = (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode("utf-8")
    path = root / MANIFEST_NAME
    atomic_write(path, [blob], fault_injector)
    fsync_dir(root)
    return path


def _entry_problem(entry: dict) -> str | None:
    """What is wrong with the fields of one segment entry, if anything."""
    path = entry["path"]
    pure = PurePosixPath(path if isinstance(path, str) else "")
    if not pure.parts or pure.is_absolute() or ".." in pure.parts:
        return f"path {path!r} is not a relative path inside the store"
    for key in ("length", "epoch"):
        if not is_count(entry[key]):
            return f"{key} {entry[key]!r} is not a non-negative int"
    if not isinstance(entry["sha256"], str) or not _SHA256_HEX.fullmatch(entry["sha256"]):
        return f"sha256 {entry['sha256']!r} is not 64 lowercase hex digits"
    return None


def load_manifest(root: Path) -> dict:
    """Read and validate the committed manifest, if any.

    Every field a load or a save uses is type-checked; anything else fails
    with :class:`SnapshotCorrupt` naming the field (and the segment, for an
    entry's fields).
    """
    root = Path(root)
    path = root / MANIFEST_NAME
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise SnapshotTorn(
            f"no committed snapshot at {root} (missing {MANIFEST_NAME})",
            segment=MANIFEST_NAME,
        ) from exc
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SnapshotCorrupt(
            f"manifest at {root} is not valid JSON: {exc}", segment=MANIFEST_NAME
        ) from exc
    if not isinstance(manifest, dict):
        raise SnapshotCorrupt(
            f"manifest at {root} is not a JSON object", segment=MANIFEST_NAME
        )
    missing = [key for key in _REQUIRED_KEYS if key not in manifest]
    if missing:
        raise SnapshotCorrupt(
            f"manifest at {root} is missing required keys {missing}",
            segment=MANIFEST_NAME,
        )
    format_version = manifest["format_version"]
    if not is_count(format_version) or format_version not in READ_FORMATS:
        raise SnapshotCorrupt(
            f"manifest format version {format_version!r} is not supported "
            f"(expected one of {list(READ_FORMATS)})",
            segment=MANIFEST_NAME,
        )
    problems = [
        f"{key} {manifest[key]!r} is not a non-negative int"
        for key in ("version", "epoch")
        if not is_count(manifest[key])
    ]
    for key in ("index", "segments"):
        if not isinstance(manifest[key], dict):
            problems.append(f"{key} is not a JSON object")
    if problems:
        raise SnapshotCorrupt(
            f"manifest at {root}: {'; '.join(problems)}", segment=MANIFEST_NAME
        )
    for name, entry in manifest["segments"].items():
        if not isinstance(entry, dict):
            raise SnapshotCorrupt(
                f"manifest entry for segment {name} is not a JSON object", segment=name
            )
        entry_missing = [key for key in _REQUIRED_ENTRY_KEYS if key not in entry]
        if entry_missing:
            raise SnapshotCorrupt(
                f"manifest entry for segment {name} is missing keys {entry_missing}",
                segment=name,
            )
        problem = _entry_problem(entry)
        if problem is not None:
            raise SnapshotCorrupt(
                f"manifest entry for segment {name}: {problem}", segment=name
            )
    return manifest
