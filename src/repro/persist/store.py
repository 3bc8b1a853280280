"""Epoch-store orchestration: durable saves, verified loads, orphan GC.

On-disk layout of one store (``path`` handed to ``RXIndex.save``)::

    path/
      MANIFEST.json            <- the only mutable file; atomic-rename commit
      epoch-00000000/          <- immutable segments written by epoch 0
        columns.seg            (single-tree builds: keys and values,
        bvh.seg                 and the tree)
        values.seg             (forest builds: the values, and one
        shard-00012.seg ...     segment per shard holding its keys)
      epoch-00000001/          <- an incremental save writes only changed
        shard-00012.seg           segments here; its manifest references
                                  the clean ones from epoch-00000000

Which segments and arrays an index's store holds is the business of
:mod:`repro.core.layout`; this module stores whatever segments it is given.

Reuse — a save decides, per segment, whether the committed file can be
referenced instead of rewritten:

* **By provenance.**  The caller may *vouch* for segments: a vouched entry
  is the manifest entry the caller last committed or loaded for a segment
  whose state it has not changed since.  A segment is reused without
  building or hashing its arrays when the vouched entry equals the
  committed manifest's entry for it and the entry's file exists.  After a
  ``DELTA_SHARD`` update only the dirty shards lose their voucher, so a
  checkpoint hashes and writes exactly those.
* **By content.**  Every other segment is built and its payload region
  hashed once, over zero-copy views of its arrays.  A copy of that state,
  extended by the header region the segment would carry under the
  committed entry's epoch tag, must equal the committed entry's digest,
  and the committed file must exist.  The digest covers the header, so
  reuse also requires equal meta, dtypes and shapes.
* **Rewrite.**  Otherwise another copy of the state, extended by the new
  file's header region, is the new entry's digest.

A load verifies each referenced segment's digest once, over every byte,
before any array view is made (see :mod:`repro.persist.segments`).  The
tests cross-check provenance against content: every segment a save
reuses is also built and hashed, and must match its entry.

A store whose manifest :func:`~repro.persist.manifest.load_manifest`
refuses — one that does not parse, holds a field of the wrong type, or
records a format version outside ``READ_FORMATS`` — fails every load
with :class:`~repro.persist.errors.SnapshotCorrupt` naming
``MANIFEST.json``, and a save over it starts afresh: manifest version 1,
every segment rewritten, and the prune after its commit removes the old
files.  A save over a store of an older format it can read (format 2)
reuses nothing either; it commits ``FORMAT_VERSION`` in a new epoch past
the old one, and the prune then removes the old segments.

Crash safety: segments and the manifest are published with write-temp →
fsync → atomic rename (with the containing directories fsynced before the
commit so the renames are durable when the manifest is), and a snapshot
is visible iff the manifest rename landed.  The save epoch is forced past
the committed manifest's epoch whenever anything must be rewritten, so a
save never replaces a file the committed manifest references — even when
a fresh process restarts its in-memory epoch counter at zero.  A save
killed at any boundary therefore leaves the previous committed epoch
fully intact; the next *save* garbage-collects the orphaned ``.tmp.*``
files, and a committed save prunes segment files no longer referenced by
the new manifest.

Concurrency: the store assumes a **single writer** per directory (saves
GC each other's temp files and prune each other's segments), and readers
that hold a loaded snapshot across a concurrent save keep their mapped
segments alive via the open mappings even if a later save unlinks the
files — but a reader must not cache a *manifest* across saves and resolve
its paths later.  Loads never delete anything.  A second writer that
commits between two of a first writer's saves changes the committed
entries, so the first writer's vouchers no longer match and its next save
decides by content.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Callable

import numpy as np

from repro.persist.errors import SnapshotError
from repro.persist.manifest import (
    FORMAT_VERSION,
    commit_manifest,
    load_manifest,
)
from repro.persist.segments import (
    TMP_PREFIX,
    fsync_dir,
    header_region,
    payload_digest,
    read_segment,
    segment_sha256,
    write_segment,
)


def gc_orphans(root: Path) -> int:
    """Remove ``.tmp.*`` files an interrupted save left behind.

    Called from the save path only (the store is single-writer): a load
    must never unlink another process's in-flight temp file.
    """
    root = Path(root)
    removed = 0
    if not root.is_dir():
        return 0
    for path in sorted(root.rglob(f"{TMP_PREFIX}*")):
        try:
            path.unlink()
            removed += 1
        except OSError:  # pragma: no cover - racing cleanup
            pass
    return removed


def _prune_unreferenced(root: Path, manifest: dict) -> int:
    """Drop committed-but-unreferenced segment files (torn-save leftovers and
    segments the newest manifest no longer references).  Manifest paths are
    validated store-relative paths, so they compare as pure paths, which
    also equates spellings such as ``epoch-00000000/./bvh.seg``; nothing is
    resolved on disk."""
    referenced = {PurePosixPath(entry["path"]) for entry in manifest["segments"].values()}
    removed = 0
    for epoch_dir in sorted(root.glob("epoch-*")):
        if not epoch_dir.is_dir():
            continue
        for path in sorted(epoch_dir.iterdir()):
            if path.is_file() and PurePosixPath(epoch_dir.name, path.name) not in referenced:
                try:
                    path.unlink()
                    removed += 1
                except OSError:  # pragma: no cover - racing cleanup
                    pass
        try:
            epoch_dir.rmdir()  # only succeeds once fully empty
        except OSError:
            pass
    return removed


#: One segment handed to a save: its ``(arrays, meta)``, or a zero-argument
#: callable returning them, which the save calls only when it needs the
#: segment's bytes (a segment reused by provenance is never built).
Segment = tuple | Callable[[], tuple]


@dataclass
class SaveResult:
    """Accounting of one committed save (feeds ``stats()["persist"]``)."""

    epoch: int
    manifest_version: int
    format_version: int
    save_seconds: float
    bytes_on_disk: int
    segments_total: int
    segments_rewritten: int
    segments_reused: int
    #: segments whose payload the save hashed (every segment not reused by
    #: provenance)
    segments_hashed: int
    #: bytes of the segment files the save wrote (the manifest excluded)
    bytes_written: int
    orphans_removed: int
    #: the committed manifest's entry per segment
    entries: dict[str, dict] = field(repr=False)

    def as_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "manifest_version": self.manifest_version,
            "format_version": self.format_version,
            "save_seconds": self.save_seconds,
            "bytes_on_disk": self.bytes_on_disk,
            "segments_total": self.segments_total,
            "segments_rewritten": self.segments_rewritten,
            "segments_reused": self.segments_reused,
            "segments_hashed": self.segments_hashed,
            "bytes_written": self.bytes_written,
            "orphans_removed": self.orphans_removed,
        }


@dataclass
class LoadedSnapshot:
    """A verified snapshot: manifest metadata plus per-segment array views."""

    epoch: int
    manifest_version: int
    #: the manifest's format (one of ``READ_FORMATS``)
    format_version: int
    index_meta: dict
    #: segment name -> (arrays, segment meta); arrays are zero-copy views
    #: into the memory-mapped files when the load ran with ``mmap=True``.
    segments: dict[str, tuple[dict[str, np.ndarray], dict]]
    #: the manifest's entry per segment
    entries: dict[str, dict]
    bytes_on_disk: int
    load_seconds: float
    checksum_verify_seconds: float
    segments_total: int = field(init=False)

    def __post_init__(self) -> None:
        self.segments_total = len(self.segments)

    def arrays(self, name: str) -> dict[str, np.ndarray]:
        return self.segments[name][0]

    def meta(self, name: str) -> dict:
        return self.segments[name][1]


def save_snapshot(
    path: Path,
    *,
    epoch: int,
    segments: dict[str, Segment],
    index_meta: dict,
    fault_injector=None,
    vouched: dict[str, dict] | None = None,
) -> SaveResult:
    """Write one epoch's segments and commit a new manifest.

    ``segments`` maps segment names to ``(arrays, meta)`` or to a callable
    returning them.  ``vouched`` maps segment names to the manifest entries
    the caller vouches are still its segments' state.  A segment is
    referenced from its existing epoch directory instead of rewritten when
    its vouched entry is the committed manifest's and that file exists
    (the segment is then neither built nor hashed), or else when its file
    digest — payload and header, so arrays, meta, dtypes and shapes alike
    — matches the committed entry.  Everything else is published under
    ``epoch-{epoch:08d}/`` with the atomic write protocol.  The manifest
    commit is the single visibility point.  A committed manifest of an
    older format offers nothing for reuse.

    The caller's ``epoch`` is advisory: whenever any segment must be
    rewritten, the effective epoch is forced past the committed manifest's
    so new files always land in a fresh epoch directory — a caller whose
    in-memory epoch counter restarted at zero (a new process re-saving
    into an existing store) must never ``os.replace`` a file the committed
    manifest references, or a crash between that rename and the manifest
    commit corrupts the last committed snapshot.
    """
    start = time.perf_counter()
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    orphans_removed = gc_orphans(root)

    try:
        prior = load_manifest(root)
    except SnapshotError:
        prior = None
    reusable = (
        prior["segments"] if prior and prior["format_version"] == FORMAT_VERSION else {}
    )
    vouched = vouched or {}

    # Phase 1 — the reuse decision for every segment, before any path is
    # chosen.  A segment not vouched for is built and its payload hashed
    # once; the state is kept for the rewrite's digest.
    plans: dict[str, tuple] = {}
    hashed = 0
    for name, segment in segments.items():
        prior_entry = reusable.get(name)
        present = prior_entry is not None and (root / prior_entry["path"]).is_file()
        if present and vouched.get(name) == prior_entry:
            plans[name] = ("reuse", dict(prior_entry))
            continue
        arrays, meta = segment() if callable(segment) else segment
        payload = payload_digest(arrays)
        hashed += 1
        if present and segment_sha256(
            payload, header_region(name, prior_entry["epoch"], arrays, meta)
        ) == prior_entry["sha256"]:
            plans[name] = ("reuse", dict(prior_entry))
        else:
            plans[name] = ("rewrite", (arrays, meta, payload))
    any_rewrite = any(kind == "rewrite" for kind, _ in plans.values())

    epoch = int(epoch)
    if prior is not None:
        prior_epoch = int(prior["epoch"])
        # Committed manifests only ever reference epoch dirs <= their own
        # epoch, so prior_epoch + 1 is guaranteed collision-free; with
        # nothing to rewrite the epoch merely stays monotone.
        epoch = max(epoch, prior_epoch + 1) if any_rewrite else max(epoch, prior_epoch)
    epoch_dir = f"epoch-{epoch:08d}"
    if any_rewrite:
        (root / epoch_dir).mkdir(exist_ok=True)
        fsync_dir(root)  # the new epoch directory entry, durably

    # Phase 2 — publish the rewrites and assemble the manifest.
    manifest_entries: dict[str, dict] = {}
    rewritten = 0
    bytes_written = 0
    for name in segments:
        kind, plan = plans[name]
        if kind == "reuse":
            manifest_entries[name] = plan
            continue
        arrays, meta, payload = plan
        rel = f"{epoch_dir}/{name}.seg"
        entry = write_segment(
            root / rel,
            name=name,
            epoch=epoch,
            arrays=arrays,
            meta=meta,
            fault_injector=fault_injector,
            payload=payload,
        )
        entry["path"] = rel
        manifest_entries[name] = entry
        rewritten += 1
        bytes_written += entry["length"]
    if any_rewrite:
        # Make the segment renames durable before the manifest that
        # references them can commit: a power cut must never preserve the
        # manifest rename while losing the epoch dir's entries.
        fsync_dir(root / epoch_dir)

    manifest = {
        "format_version": FORMAT_VERSION,
        "version": int(prior["version"]) + 1 if prior else 1,
        "epoch": epoch,
        "index": index_meta,
        "segments": manifest_entries,
    }
    commit_manifest(root, manifest, fault_injector)
    _prune_unreferenced(root, manifest)
    return SaveResult(
        epoch=epoch,
        manifest_version=manifest["version"],
        format_version=FORMAT_VERSION,
        save_seconds=time.perf_counter() - start,
        bytes_on_disk=sum(int(entry["length"]) for entry in manifest_entries.values()),
        segments_total=len(manifest_entries),
        segments_rewritten=rewritten,
        segments_reused=len(manifest_entries) - rewritten,
        segments_hashed=hashed,
        bytes_written=bytes_written,
        orphans_removed=orphans_removed,
        entries=manifest_entries,
    )


def load_snapshot(
    path: Path, *, mmap: bool = True, fault_injector=None
) -> LoadedSnapshot:
    """Open the last committed epoch, verifying every referenced segment.

    Every segment is checked for existence, length, the SHA-256 its
    manifest entry records, a well-formed header and its own epoch tag
    against the manifest entry before any array view is handed out — a
    failure raises :class:`SnapshotTorn` / :class:`SnapshotCorrupt` naming
    the segment, and no partially-verified state escapes.  Loads are strictly
    read-only: orphaned temp files from interrupted saves are left for the
    next *save* to garbage-collect, so a load can never unlink a
    concurrent writer's in-flight temp file.
    """
    start = time.perf_counter()
    root = Path(path)
    manifest = load_manifest(root)
    segments: dict[str, tuple[dict[str, np.ndarray], dict]] = {}
    verify_seconds = 0.0
    for name in sorted(manifest["segments"]):
        entry = manifest["segments"][name]
        verify_start = time.perf_counter()
        arrays, meta = read_segment(
            root / entry["path"],
            mmap=mmap,
            expected=entry,
            fault_injector=fault_injector,
        )
        verify_seconds += time.perf_counter() - verify_start
        segments[name] = (arrays, meta)
    return LoadedSnapshot(
        epoch=int(manifest["epoch"]),
        manifest_version=int(manifest["version"]),
        format_version=int(manifest["format_version"]),
        index_meta=manifest["index"],
        segments=segments,
        entries=manifest["segments"],
        bytes_on_disk=sum(
            int(entry["length"]) for entry in manifest["segments"].values()
        ),
        load_seconds=time.perf_counter() - start,
        checksum_verify_seconds=verify_seconds,
    )
