"""Serving-layer quickstart: micro-batching, epoch snapshots, result cache.

Builds an RX index, wraps it in the :class:`repro.serve.IndexService`, and
serves a Zipf-skewed open-loop stream of single-query requests three ways —
one query per launch, micro-batched, and micro-batched with the result
cache — then demonstrates an update racing an in-flight batch (the pinned
epoch snapshot keeps the batch consistent), and finally checkpoints the
service through the crash-safe epoch store and warm-restarts a new one
from the snapshot, bit-identically.

Run with::

    python examples/serve_quickstart.py
"""

import tempfile

import numpy as np

from repro import IndexService, RXConfig, RXIndex
from repro.workloads import dense_shuffled_keys, zipf_point_stream

NUM_KEYS = 4096
NUM_REQUESTS = 2048
ZIPF = 1.2
RATE = 1e6  # offered load (requests/second) far above solo-serving capacity


def serve(index, max_batch, cache_capacity):
    service = IndexService(
        index, max_batch=max_batch, max_wait=1e-3, cache_capacity=cache_capacity
    )
    stream = zipf_point_stream(
        index.keys, NUM_REQUESTS, ZIPF, rate=RATE, seed=42
    )
    report = service.replay(stream)
    return service, report


def main() -> None:
    keys = dense_shuffled_keys(NUM_KEYS, seed=1)
    index = RXIndex(RXConfig.paper_default().with_delta_updates(shard_bits=4))
    index.build(keys)

    # ------------------------------------------------------------------ #
    # 1. Solo vs micro-batched vs cached serving of one Zipf stream.
    # ------------------------------------------------------------------ #
    print(f"{NUM_REQUESTS} single-query requests, Zipf {ZIPF}, {NUM_KEYS} keys\n")
    print(f"{'serving mode':<28}{'req/s':>12}{'p95 [ms]':>10}{'launches':>10}{'cache hits':>12}")
    rows = [
        ("one query per launch", 1, 0),
        ("micro-batched (256)", 256, 0),
        ("micro-batched + cache", 256, 512),
    ]
    solo_rps = None
    reference = None
    for label, max_batch, cache_capacity in rows:
        service, report = serve(index, max_batch, cache_capacity)
        stats = service.stats()
        rps = report.service_throughput_rps
        solo_rps = solo_rps if solo_rps is not None else rps
        print(
            f"{label:<28}{rps:>12,.0f}"
            f"{report.latency_percentiles()['p95'] * 1e3:>10.2f}"
            f"{stats['scheduler']['launches']:>10}"
            f"{stats['cache']['hits']:>12}"
        )
        rows_now = np.concatenate([r.result_rows() for r in report.results])
        if reference is None:
            reference = rows_now
        # Coalescing and caching never change a single result bit.
        assert np.array_equal(rows_now, reference)
    print(f"\nmicro-batching is worth {rps / solo_rps:.1f}x on this stream "
          "(identical results, bit for bit)\n")

    # ------------------------------------------------------------------ #
    # 2. An update racing an in-flight batch: the open window is pinned
    #    to its epoch snapshot; the next window sees the new epoch.
    # ------------------------------------------------------------------ #
    service = IndexService(index, max_batch=1024, max_wait=10.0, cache_capacity=64)
    queries = keys[:32]
    service.submit_point(queries, arrival=0.0)  # window opens -> pins epoch
    epoch_before = service.index.epoch
    new_keys = keys.copy()
    new_keys[:256] = new_keys[:256][::-1]
    outcome = service.update(new_keys)  # a permutation: the dirty shards are relabelled
    in_flight = service.drain()[0]
    service.submit_point(queries, arrival=1.0)
    after = service.drain()[0]
    verb = "relabelled" if outcome.stats["relabelled"] else "rebuilt"
    print(f"update {verb} {outcome.stats['dirty_shards']} of "
          f"{outcome.stats['total_shards']} shards while a batch was in flight:")
    print(f"  in-flight batch served epoch {in_flight.epoch} (pinned), "
          f"next batch epoch {after.epoch}")
    assert in_flight.epoch == epoch_before and after.epoch == epoch_before + 1

    # ------------------------------------------------------------------ #
    # 3. The one-dict index summary the serving layer reports.
    # ------------------------------------------------------------------ #
    stats = service.stats()
    index_stats = stats["index"]
    print("\nindex.stats():")
    for key in ("num_keys", "epoch", "shard_count", "bvh_nodes",
                "memory_final_bytes", "primitive_resident_bytes"):
        print(f"  {key:<25}{index_stats[key]}")
    trace = index_stats["trace_counters"]
    print(f"  {'trace (last launch)':<25}rays={trace['rays']}, "
          f"node_visits={trace['node_visits']}, prim_tests={trace['prim_tests']}")
    build = index_stats["build"]
    print(f"  build                    shards={build['shards']}, "
          f"delegated={build['delegated_shards']}, "
          f"wall={build['wall_seconds'] * 1e3:.1f}ms")
    print(f"  epochs                   {stats['epochs']}")

    # ------------------------------------------------------------------ #
    # 4. Crash-safe checkpoint and warm restart: the snapshot commits via
    #    an atomic manifest rename, the restore verifies every segment
    #    checksum, and a freshly restored service answers bit-identically.
    # ------------------------------------------------------------------ #
    with tempfile.TemporaryDirectory(prefix="rx-quickstart-") as snapdir:
        save_info = service.checkpoint(snapdir)
        print(f"\ncheckpoint -> {save_info['segments_total']} segments, "
              f"{save_info['bytes_on_disk']:,}B on disk, epoch {save_info['epoch']} "
              f"({save_info['save_seconds'] * 1e3:.1f}ms)")

        golden = service.index.point_lookup(queries)
        restarted = IndexService(RXIndex.load(snapdir), max_batch=1024)
        replay = restarted.index.point_lookup(queries)
        assert np.array_equal(golden.result_rows, replay.result_rows)
        print("restored service answers bit-identically to the one that saved")

        persist = restarted.index.stats()["persist"]
        print(f"  persist                  loads={persist['loads']}, "
              f"format={persist['format_version']}, "
              f"epoch={persist['last_epoch']}, "
              f"segments={persist['segments_total']}, "
              f"bytes={persist['bytes_on_disk']:,}B, "
              f"load={persist['last_load_seconds'] * 1e3:.1f}ms "
              f"(checksums {persist['checksum_verify_seconds'] * 1e3:.1f}ms)")


if __name__ == "__main__":
    main()
