"""Crash-safe persistent epoch store for the RX index.

Immutable segment files per epoch, each verified by one SHA-256 its
manifest entry records, plus one atomically swapped manifest
(WAL-flavoured: readers of a committed snapshot never observe a writer's
partial work).  ``RXIndex.save(path)`` /
``RXIndex.load(path, mmap=True)`` are the public entry points; this
package supplies the file formats, the commit protocol, the verification
reads and the recovery error taxonomy underneath them.

Modules
-------
``segments``   immutable segment files, their SHA-256 digest, atomic
               publish, verified reads
``manifest``   the versioned manifest — the single commit/visibility point,
               and the one place that decides which format loads
``store``      save/load orchestration, incremental reuse, orphan GC
``errors``     ``SnapshotError`` / ``SnapshotTorn`` / ``SnapshotCorrupt``
"""

from repro.persist.errors import SnapshotCorrupt, SnapshotError, SnapshotTorn
from repro.persist.manifest import MANIFEST_NAME, commit_manifest, load_manifest
from repro.persist.segments import read_segment, write_segment
from repro.persist.store import (
    LoadedSnapshot,
    SaveResult,
    gc_orphans,
    load_snapshot,
    save_snapshot,
)

__all__ = [
    "SnapshotCorrupt",
    "SnapshotError",
    "SnapshotTorn",
    "MANIFEST_NAME",
    "commit_manifest",
    "load_manifest",
    "read_segment",
    "write_segment",
    "LoadedSnapshot",
    "SaveResult",
    "gc_orphans",
    "load_snapshot",
    "save_snapshot",
]
