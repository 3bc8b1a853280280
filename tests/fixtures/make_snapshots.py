"""Write the on-disk snapshot fixtures that ``tests/test_persist_fixtures.py`` loads.

Two tiny indexes over the same 256 dense shuffled keys: a sharded forest
(``with_delta_updates(shard_bits=3)``, one segment per non-empty shard) and
a single tree (``paper_default()``, one ``bvh`` segment).

Three checked-in sets pin three eras:

* ``snapshots-v1/`` was written by this script at commit c27a4eb: manifest
  format 1 (a whole-file and a payload CRC32C plus a payload SHA-256 per
  segment), and an ``RXConfig`` that still had the ``build_workers`` and
  ``build_backend`` fields and the nine ``serve_*`` serving knobs.  The
  reader no longer holds format 1, so these stores are the input of the
  test that every load and restore refuses them.
* ``snapshots-v2/`` was written by this script when manifest format 2 (one
  SHA-256 per segment, over every byte of its file) replaced format 1,
  while ``RXConfig`` still had the ``serve_*`` knobs and the
  ``allow_updates`` flag.  Segment files did
  not change, so its ``.seg`` files are byte-identical to
  ``snapshots-v1/``'s.  They hold the legacy tree layout: every tree
  stores a ``right`` array and every delegated shard a ``prim_indices``
  array, which saves no longer write, and the forest keeps its keys in a
  ``columns`` segment.  The current code must load them, check each
  legacy ``right`` against ``left + 1``, and, building the same indexes,
  write the same single-tree key column and the same tree arrays but
  those two.  Do not regenerate ``snapshots-v2/``: it is the legacy-layout
  input.
* ``snapshots-v3/`` was written by this script when manifest format 3
  gave forest stores their per-shard keys: the forest holds a ``values``
  segment and shard segments whose ``keys`` array holds their rows' keys,
  and no ``columns`` segment; the single tree keeps ``columns`` and
  ``bvh``.  A fresh build and save of the current code must write these
  files byte for byte.

Run against newer code, the script writes the *current* layout, so point
it at a fresh directory rather than over a fixture::

    PYTHONPATH=src python tests/fixtures/make_snapshots.py /tmp/snapshots
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.core import RXConfig, RXIndex
from repro.workloads import dense_shuffled_keys

NUM_KEYS = 256
SEED = 15

#: fixture name -> the config its index is built with
CONFIGS = {
    "forest": lambda: RXConfig.paper_default().with_delta_updates(shard_bits=3),
    "single": RXConfig.paper_default,
}


def fixture_keys():
    return dense_shuffled_keys(NUM_KEYS, seed=SEED)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__)
        return 2
    out = Path(argv[0])
    for name, make_config in CONFIGS.items():
        target = out / name
        if target.exists():
            print(f"{target} exists; refusing to overwrite a fixture")
            return 1
        index = RXIndex(make_config())
        index.build(fixture_keys())
        index.save(target)
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
