"""Error taxonomy of the persistent epoch store.

Recovery distinguishes two failure classes, both naming the offending
segment so operators (and the seeded crash harness) can see exactly what
broke:

* :class:`SnapshotTorn` — the on-disk state is *structurally* incomplete:
  a referenced segment file is missing or truncated, its epoch tag does
  not match the manifest entry (a mixed-epoch store), or no manifest was
  ever committed.  Torn states are what interrupted saves leave behind
  when the manifest rename did not land — by construction they are never
  visible through a committed manifest.
* :class:`SnapshotCorrupt` — the structure is intact but the bytes are
  wrong: a segment's SHA-256 does not match the manifest, a segment header
  that verifies does not describe arrays inside its file, or the manifest
  itself fails to parse, records a format version the reader does not
  support, holds a field of the wrong type, or describes an index its
  segments do not hold.  Corruption is latent (bit rot, torn sector
  writes under a committed manifest) and must surface as an explicit
  error, never as silently wrong query results.
"""

from __future__ import annotations


class SnapshotError(RuntimeError):
    """Base error of the persistent epoch store."""

    def __init__(self, message: str, segment: str | None = None) -> None:
        super().__init__(message)
        #: Name of the offending segment (or manifest), when one is known.
        self.segment = segment


class SnapshotTorn(SnapshotError):
    """The snapshot is structurally incomplete (missing/truncated segment,
    epoch-tag mismatch, or no committed manifest)."""


class SnapshotCorrupt(SnapshotError):
    """A committed segment or manifest holds bytes that fail verification."""
