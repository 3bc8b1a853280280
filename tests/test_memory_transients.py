"""Builds, forest loads, saves and key encodes free their transients.

tracemalloc counts every NumPy buffer, so each test compares the high-water
mark of one call with the bytes it leaves behind: a build peaks at no more
than twice what it keeps, a forest load and its first query at 1.4 times,
a save streams array views into its files instead of a copy of them, and
3D Mode's encode holds one uint64 column beside the anchors it returns.
All run at 2^14 dense keys under the paper's configuration.
"""

import gc
import tracemalloc

import pytest

from repro import RXIndex
from repro.core.config import RXConfig
from repro.core.keycodec import ThreeDCodec
from repro.workloads import dense_shuffled_keys

KEYS = dense_shuffled_keys(1 << 14, seed=7)

CONFIGS = {
    "single": RXConfig.paper_default(),
    "forest": RXConfig.paper_default().with_delta_updates(shard_bits=12),
}


def _traced(fn):
    """``(result, kept, peak)``: what ``fn()`` returns, and the traced bytes
    it leaves allocated and at most held at once."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, kept - before, peak - before


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_build_peaks_at_most_twice_what_it_keeps(kind):
    index = RXIndex(CONFIGS[kind])
    _, kept, peak = _traced(lambda: index.build(KEYS))
    assert peak <= 2 * kept, f"{kind} build peaks at {peak / kept:.2f}x the {kept} bytes it keeps"


def test_forest_load_and_first_query_peak_near_what_the_index_keeps(tmp_path):
    built = RXIndex(CONFIGS["forest"])
    built.build(KEYS)
    built.save(tmp_path)
    del built

    def load_and_query():
        index = RXIndex.load(tmp_path, mmap=True)
        index.point_lookup(KEYS[:64])
        return index

    _, kept, peak = _traced(load_and_query)
    assert peak <= 1.4 * kept, f"forest load peaks at {peak / kept:.2f}x the {kept} bytes it keeps"


def test_save_streams_instead_of_copying(tmp_path):
    index = RXIndex(CONFIGS["single"])
    index.build(KEYS)
    _, _, peak = _traced(lambda: index.save(tmp_path))
    written = sum(path.stat().st_size for path in tmp_path.rglob("*") if path.is_file())
    assert peak < written / 8, f"a save of {written} bytes allocates {peak}"


def test_encode_points_holds_one_uint64_column_beside_its_anchors():
    """3D Mode's encode splits the keys one axis at a time through one
    reused uint64 column: 12 B/key of float32 anchors plus 8 B/key, and a
    few array headers."""
    n = KEYS.shape[0]
    (anchors, _), _, peak = _traced(lambda: ThreeDCodec().encode_points(KEYS))
    assert anchors.nbytes == 12 * n
    assert peak <= 20 * n + 4096, f"encode_points peaks at {peak / n:.1f} B/key"
