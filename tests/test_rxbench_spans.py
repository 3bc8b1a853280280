"""The benchmark's view of the stack: the boundaries ``rxbench/spans.py`` wraps.

``spans.layer_hooks()`` silently drops a hook whose owner no longer defines
the name, so a renamed or moved function would make its span (and the
per-layer seconds built from it) read 0 without any error.  These tests pin
the span names that resolve and check that one traced build, update, save,
load and lookup records every build, persist and query stage.
"""

import importlib.util
from pathlib import Path

from repro.core import RXConfig, RXIndex
from repro.workloads import dense_shuffled_keys
from repro.workloads.updates import clustered_key_swaps

SPANS_PATH = Path(__file__).resolve().parent.parent / "rxbench" / "spans.py"

#: Every span name whose hooks resolve.  ``persist.checksum`` is not here:
#: none of its hooks names a function the persist layer still defines.
RESOLVED_SPANS = {
    "serve.admit",
    "serve.flush",
    "serve.update",
    "serve.checkpoint",
    "serve.cache",
    "serve.launch_window",
    "serve.epoch",
    "query.rays",
    "query.trace",
    "query.intersect",
    "query.lookup",
    "build.index",
    "build.update",
    "build.encode",
    "build.morton",
    "build.bvh",
    "build.compact",
    "build.delta",
    "build.bind",
    "persist.save",
    "persist.write",
    "persist.fsync",
    "persist.load",
    "persist.install",
}


def _spans():
    spec = importlib.util.spec_from_file_location("rxbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_pinned_span_resolves():
    # A superset: a hook that comes back (persist.checksum) may join.
    names = {name for name, _, _ in _spans().layer_hooks()}
    assert names >= RESOLVED_SPANS, sorted(RESOLVED_SPANS - names)


def test_a_traced_run_records_every_stage(tmp_path):
    keys = dense_shuffled_keys(1 << 12, seed=5)
    config = RXConfig.paper_default().with_delta_updates(shard_bits=4)
    assert config.compaction
    tracer = _spans().Tracer()
    tracer.enable()
    try:
        index = RXIndex(config)
        index.build(keys)
        index.update(clustered_key_swaps(index.keys, 64, seed=5))
        index.save(tmp_path / "store")
        loaded = RXIndex.load(tmp_path / "store")
        run = loaded.point_lookup(keys[:64])
    finally:
        tracer.disable()
    assert run.total_hits == 64
    _, _, calls = tracer.span_totals()
    stages = (
        "build.compact",
        "build.bind",
        "build.bvh",
        "build.delta",
        "persist.save",
        "persist.load",
        "persist.install",
        "query.trace",
    )
    assert [stage for stage in stages if stage not in calls] == []
