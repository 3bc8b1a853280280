"""Keyset cursors for resumable ordered range scans.

A paged ``ORDER BY key LIMIT k`` scan resumes from an opaque cursor token
``"{key}|{row_id}"`` naming the last row the previous page returned (the
keyset-pagination idiom).  Resuming is a plain range lookup whose lower
bound is clamped to the cursor key — the ray origin starts *at* the cursor
key, not past it, because duplicate keys may straddle the page boundary —
plus an exclusive any-hit filter that rejects every primitive at or before
``(key, row_id)``.  The filter runs before budget accounting, so rows the
previous page already paid for never consume the new page's budget (the
duplicate-run boundary case: a cursor landing in the middle of a run of
equal keys must re-scan the run's primitives but re-emit none of them).

The serving layer coalesces many paged lookups into one launch, so the
filter builder is vectorised per lookup: each lookup carries its own
``(cursor_key, cursor_row)`` pair, and lookups without a cursor pass
everything through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Cursor",
    "encode_cursor",
    "parse_cursor",
    "make_cursor_filter",
    "next_cursor_token",
    "resume_after",
]


@dataclass(frozen=True)
class Cursor:
    """The last row a page returned: resume strictly after ``(key, row_id)``."""

    key: int
    row_id: int

    def encode(self) -> str:
        return f"{self.key}|{self.row_id}"


def encode_cursor(key: int, row_id: int) -> str:
    """Opaque keyset token for the row ``(key, row_id)``."""
    return Cursor(int(key), int(row_id)).encode()


def parse_cursor(
    token: "str | Cursor | None", max_key: int | None = None
) -> Cursor | None:
    """Decode a cursor token; ``None`` (first page) passes through.

    Every way a client-supplied token can be malformed — wrong field count,
    non-integer parts, negative values, a key or rowID too large for the
    engine's fixed-width arithmetic, or (with ``max_key``) a key outside
    the codec's representable range — raises a single clean ``ValueError``
    here at the API boundary, never an internal overflow from deep inside
    the codec or the filter builder.
    """
    if token is None:
        return None
    if isinstance(token, Cursor):
        cursor = token
    else:
        if not isinstance(token, str):
            raise ValueError(f"cursor must be a 'key|row_id' string, got {token!r}")
        key_part, sep, row_part = token.partition("|")
        if not sep:
            raise ValueError(f"malformed cursor {token!r}: expected 'key|row_id'")
        try:
            key = int(key_part)
            row_id = int(row_part)
        except ValueError as exc:
            raise ValueError(
                f"malformed cursor {token!r}: expected 'key|row_id'"
            ) from exc
        cursor = Cursor(key, row_id)
    if cursor.key < 0 or cursor.row_id < 0:
        raise ValueError(f"malformed cursor {token!r}: key and row_id must be >= 0")
    # The engine stores keys as uint64 and rowIDs as int64; anything wider
    # would overflow far from the API boundary.
    if cursor.key >= 1 << 64:
        raise ValueError(
            f"malformed cursor {token!r}: key does not fit an unsigned 64-bit key"
        )
    if cursor.row_id >= 1 << 63:
        raise ValueError(
            f"malformed cursor {token!r}: row_id does not fit a 64-bit rowID"
        )
    if max_key is not None and cursor.key > int(max_key):
        raise ValueError(
            f"malformed cursor {token!r}: key {cursor.key} exceeds the codec's "
            f"maximum representable key {int(max_key)}"
        )
    return cursor


def make_cursor_filter(keys: np.ndarray, cursors):
    """Exclusive per-lookup resume filter as an any-hit program.

    ``keys`` is the indexed key column (``keys[row_id]`` is the key of that
    row); ``cursors`` holds one ``Cursor | None`` per lookup.  The returned
    callable has the any-hit signature ``(ray_indices, prim_indices,
    lookup_ids) -> bool mask`` and keeps a candidate row iff its lookup has
    no cursor or the row orders strictly after the cursor under the scan
    order ``(key, row_id)`` — so a cursor sitting on the first, middle or
    last primitive of a duplicate-key run excludes exactly the rows already
    paid out.

    Returns ``None`` when no lookup carries a cursor — the first page must
    trace bit-identically to a plain ordered lookup.
    """
    cursors = list(cursors)
    if not any(c is not None for c in cursors):
        return None

    keys = np.asarray(keys, dtype=np.uint64)
    has_cursor = np.array([c is not None for c in cursors], dtype=bool)
    cursor_keys = np.array(
        [c.key if c is not None else 0 for c in cursors], dtype=np.uint64
    )
    cursor_rows = np.array(
        [c.row_id if c is not None else -1 for c in cursors], dtype=np.int64
    )

    def cursor_any_hit(ray_indices, prim_indices, lookup_ids):
        prim_keys = keys[prim_indices]
        ck = cursor_keys[lookup_ids]
        return (
            ~has_cursor[lookup_ids]
            | (prim_keys > ck)
            | ((prim_keys == ck) & (prim_indices > cursor_rows[lookup_ids]))
        )

    return cursor_any_hit


def resume_after(keys: np.ndarray, lowers: np.ndarray, uppers: np.ndarray, cursors):
    """Lower bounds and any-hit filter that resume each lookup past its cursor.

    Each lookup with a cursor starts *at* the cursor key, not past it,
    because duplicates may straddle the page boundary; the exclusive filter
    of :func:`make_cursor_filter` then rejects the rows the previous page
    already paid out.  Clamping to the upper bound keeps the ray batch
    well-formed when the cursor ran past the range.  Returns
    ``(lowers, any_hit)``; ``lowers`` is a copy.
    """
    lowers = np.array(lowers, dtype=np.uint64)
    for i, cur in enumerate(cursors):
        if cur is not None:
            lowers[i] = min(max(int(lowers[i]), cur.key), int(uppers[i]))
    return lowers, make_cursor_filter(keys, cursors)


def next_cursor_token(keys: np.ndarray, page_rows: np.ndarray, limit: int) -> str | None:
    """Cursor resuming after an ordered page, or ``None`` when exhausted.

    ``page_rows`` are one lookup's returned rowIDs in ``(key, row_id)``
    order.  A short page means the scan ran off the end of the range —
    there is nothing left to resume into.
    """
    if page_rows.size < limit:
        return None
    last_row = int(page_rows[-1])
    return encode_cursor(int(np.asarray(keys, dtype=np.uint64)[last_row]), last_row)
