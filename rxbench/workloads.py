"""The benchmark's three workloads, their correctness gates and samples.

Every workload drives the public API only (``RXIndex``, ``IndexService``)
from one process with no threads and no build pool (``build_workers=1``),
on a column of dense shuffled keys generated from the run's seed.

* ``point-zipf`` — single-key point requests with Zipf-1.0 popularity
  through ``IndexService`` over a paper-default single BVH, result cache on.
* ``range-uniform`` — range requests (uniform lower bounds, span 256): a mix
  of LIMIT-32 ``first_k`` requests and cursor page chains, through the same
  service knobs.
* ``update-restart`` — clustered ``DELTA_SHARD`` updates beside point reads,
  a checkpoint after every update, and cold ``RXIndex.load(mmap=True)``
  restarts at the end.

The read workloads run two phases per round: *saturation* (every arrival
due at t=0, windows close by size) and a fixed-rate *open loop* (Poisson
arrivals).  Index build, update, checkpoint and restart of the read
workloads happen in set-up only, before any request is timed.

Knobs and offered rates are module constants, identical on both sides of
every comparison.
"""

from __future__ import annotations

import gc
import resource
import shutil
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core import RXConfig, RXIndex
from repro.serve import IndexService
from repro.workloads import dense_shuffled_keys
from repro.workloads.updates import clustered_key_swaps
from repro.workloads.zipf import zipf_sample

from loadgen import LoadReport, drive

#: Service knobs.  ``max_wait`` is raised from the 1 ms default: a coalesced
#: launch pays a fixed cost of several milliseconds on a CPU host, so 1 ms
#: windows stay too small to sustain any useful rate.  A range window holds
#: two launch classes (``first_k`` and ``ordered_k``), so it waits longer.
MAX_BATCH = 4096
POINT_MAX_WAIT = 0.02
RANGE_MAX_WAIT = 0.04
CACHE_CAPACITY = 4096
ZIPF_COEFFICIENT = 1.0
RANGE_SPAN = 256
RANGE_LIMIT = 32
PAGE_SIZE = 32
CHAIN_PAGES = 4
#: one range arrival in this many starts a cursor page chain
CHAIN_EVERY = 8
UPDATE_SWAPS = 1 << 10
SHARD_BITS = 12
RESTART_QUERIES = 64
#: set-up repeats: builds (setup_s is their median), and the read
#: workloads' update and restart probes
SETUP_BUILDS = 3
PROBE_UPDATES = 2
PROBE_RESTARTS = 3
UPDATE_RESTARTS = 3
FLUSH_POLICY = (
    "every checkpoint fsyncs each written segment, the manifest and the "
    "directories holding them (the store's own policy, unchanged)"
)


@dataclass(frozen=True)
class Scale:
    label: str
    keys: int
    point_saturation: int  #: requests per point saturation call
    point_rate: float  #: point open-loop arrivals per second
    point_open: int  #: requests per point open-loop call
    range_saturation: int  #: arrivals per range saturation call
    range_rate: float  #: range open-loop arrivals per second
    range_open: int  #: arrivals per range open-loop call
    burst_saturation: int  #: update-restart saturation reads per round
    burst_open: int  #: update-restart open-loop reads per round
    #: nominal seconds one round takes at this scale (sets the round count)
    round_seconds: dict


PAPER = Scale(
    label="paper",
    keys=1 << 20,
    point_saturation=8192,
    point_rate=8000.0,
    point_open=4000,
    range_saturation=2048,
    range_rate=700.0,
    range_open=700,
    burst_saturation=4096,
    burst_open=2000,
    round_seconds={"point-zipf": 0.6, "range-uniform": 1.0, "update-restart": 4.0},
)

TINY = Scale(
    label="tiny",
    keys=1 << 12,
    point_saturation=512,
    point_rate=8000.0,
    point_open=256,
    range_saturation=256,
    range_rate=1000.0,
    range_open=64,
    burst_saturation=256,
    burst_open=128,
    round_seconds={"point-zipf": 1.0, "range-uniform": 1.0, "update-restart": 1.0},
)


def serve_config() -> RXConfig:
    return RXConfig.paper_default()


def update_config() -> RXConfig:
    return RXConfig.paper_default().with_delta_updates(shard_bits=SHARD_BITS, workers=1)


def make_service(index: RXIndex, max_wait: float) -> IndexService:
    return IndexService(
        index, max_batch=MAX_BATCH, max_wait=max_wait, cache_capacity=CACHE_CAPACITY
    )


def key_inverse(keys: np.ndarray) -> np.ndarray:
    """rowID of every key of a dense ``0..n-1`` column (the NumPy reference)."""
    inverse = np.empty(keys.shape[0], dtype=np.int64)
    inverse[keys.astype(np.int64)] = np.arange(keys.shape[0], dtype=np.int64)
    return inverse


class HostSpeed:
    """Host-speed probe that shares no code with the stack under test.

    On a shared host the speed available to one process drifts by tens of
    percent over seconds to minutes.  Every timed sample is bracketed by two
    runs of :meth:`probe` and scaled by a reference time over their mean,
    which reports it at the speed of a host where the probe takes the
    reference time.  The unscaled samples are kept as well.

    The probe has two parts.  The *bulk* part sorts and gathers fixed 2 MiB
    buffers in place and runs a Python dict loop; it tracks index builds,
    updates, checkpoints and restarts.  The *per-call* part loops over tiny
    NumPy calls that build small objects, like the per-request serving path;
    serving samples are scaled by both parts together.  Neither allocates
    large temporaries: with fresh 8 MiB ones the probe's time depended on
    whether the allocator handed out huge pages, up to 3x between otherwise
    identical runs.
    """

    BULK_REFERENCE_S = 0.015
    CALL_REFERENCE_S = 0.010

    def __init__(self) -> None:
        rng = np.random.default_rng(20260101)
        size = 1 << 18
        self._values = rng.integers(0, 1 << 62, size=size, dtype=np.uint64)
        self._order = rng.permutation(size)
        self._scratch = np.empty(size, dtype=np.uint64)
        self._tiny = np.arange(16, dtype=np.uint64)
        self._pick = np.array([3, 7, 1])
        #: speed factor of every scaled sample (> 1: faster than reference)
        self.factors: list[float] = []

    def probe(self) -> tuple[float, float]:
        """Seconds of the bulk part and of the per-call part."""
        start = time.perf_counter()
        for _ in range(3):
            self._scratch[:] = self._values
            self._scratch.sort()
            np.take(self._values, self._order, out=self._scratch)
        table = {}
        for i in range(50_000):
            table[i & 1023] = i
        middle = time.perf_counter()
        rows = []
        for i in range(3_000):
            picked = self._tiny[self._pick]
            rows.append((i, picked.tobytes(), int(np.searchsorted(self._tiny, picked).sum())))
        return middle - start, time.perf_counter() - middle

    def factor(self, *probes: tuple[float, float], serving: bool) -> float:
        """Speed factor from one or more probe readings around a sample."""
        bulk = sum(p[0] for p in probes) / len(probes)
        if serving:
            call = sum(p[1] for p in probes) / len(probes)
            factor = (self.BULK_REFERENCE_S + self.CALL_REFERENCE_S) / (bulk + call)
        else:
            factor = self.BULK_REFERENCE_S / bulk
        self.factors.append(factor)
        return factor


class Run:
    """Samples, counters and correctness findings of one benchmark run."""

    def __init__(self, workload: str, seed: int, scale: Scale, rounds: int, tracer, workdir: Path):
        self.workload = workload
        self.scale = scale
        self.rounds = rounds
        self.tracer = tracer
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.host = HostSpeed()
        #: end-to-end samples by metric name, at reference host speed
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: the same samples as measured, before host-speed scaling
        self.raw: dict[str, list[float]] = defaultdict(list)
        #: per open-loop call: latencies (s, failures inf) in arrival order
        self.open_latencies: list[np.ndarray] = []
        self.open_flush_seconds = 0.0
        self.open_makespan = 0.0
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.mismatch_count = 0
        #: per-layer counters gathered while tracing
        self.counts: dict[str, float] = defaultdict(float)
        self.wait_seconds: list[np.ndarray] = []
        #: wall-clock of traced and untraced measurement rounds
        self.round_wall = {True: [], False: []}
        self._tracing = False

    # ------------------------------------------------------------------ #
    # tracing
    # ------------------------------------------------------------------ #

    @contextmanager
    def traced(self, active: bool = True):
        """Trace the block when this is a traced run and ``active``."""
        on = self.tracer is not None and active
        if on:
            self.tracer.enable()
        self._tracing = on
        try:
            yield
        finally:
            self._tracing = False
            if on:
                self.tracer.disable()

    @contextmanager
    def timed(self, name: str, unit: float = 1.0):
        """Record the block's wall-clock as one sample of ``name`` (times ``unit``)."""
        gc.collect()
        before = self.host.probe()
        start = time.perf_counter()
        yield
        elapsed = time.perf_counter() - start
        factor = self.host.factor(before, self.host.probe(), serving=False)
        self.raw[name].append(elapsed * unit)
        self.samples[name].append(elapsed * factor * unit)

    def check(self, ok: bool, message: str) -> None:
        """Record a correctness-gate finding (the first 20 are kept verbatim)."""
        if not ok:
            self.mismatch_count += 1
            if len(self.mismatches) < 20:
                self.mismatches.append(message)

    # ------------------------------------------------------------------ #
    # serving phases
    # ------------------------------------------------------------------ #

    def serve_phase(self, service, arrivals, follow=None, time_scale=1.0) -> LoadReport:
        """Drive ``arrivals`` and account counters while tracing."""
        scheduler = service.scheduler.stats
        cache = service.cache.stats
        before = (scheduler.launches, scheduler.launched_queries, cache.hits, cache.misses)
        report = drive(service, arrivals, follow, time_scale)
        self.attempted += len(report.outcomes)
        self.failed += sum(1 for o in report.outcomes if o.failed)
        if self._tracing:
            after = (scheduler.launches, scheduler.launched_queries, cache.hits, cache.misses)
            for name, b, a in zip(("launches", "launched_queries", "cache_hits", "cache_misses"), before, after):
                self.counts[name] += a - b
            for o in report.outcomes:
                if o.failed or o.result.from_cache:
                    continue
                c = o.result.counters
                self.counts["rays"] += c.rays
                self.counts["node_visits"] += c.node_visits
                self.counts["prim_tests"] += c.prim_tests
                self.counts["prim_hits"] += c.prim_hits
                self.counts["budget_dropped_hits"] += c.budget_dropped_hits
        return report

    def saturation(self, service, arrivals, follow=None) -> LoadReport:
        gc.collect()
        before = self.host.probe()
        report = self.serve_phase(service, arrivals, follow)
        factor = self.host.factor(before, self.host.probe(), serving=True)
        rps = report.completed / report.wall_seconds
        self.raw["serve_rps"].append(rps)
        self.samples["serve_rps"].append(rps / factor)
        return report

    def open_loop(self, service, arrivals, follow=None) -> LoadReport:
        """Fixed-rate phase, its virtual clock at reference host speed."""
        gc.collect()
        factor = self.host.factor(self.host.probe(), serving=True)
        report = self.serve_phase(service, arrivals, follow, time_scale=factor)
        order = np.argsort([o.arrival for o in report.outcomes], kind="stable")
        latencies = report.latencies()[order]
        self.open_latencies.append(latencies)
        self.open_flush_seconds += sum(report.flush_seconds)
        self.open_makespan += report.makespan
        if self._tracing:
            self.wait_seconds.append(
                np.array([o.latency - o.flush_seconds for o in report.outcomes if not o.failed])
            )
        return report

    def poisson_times(self, count: int, rate: float) -> np.ndarray:
        return np.cumsum(self.rng.exponential(1.0 / rate, size=count))

    # ------------------------------------------------------------------ #
    # set-up, update, checkpoint and restart probes
    # ------------------------------------------------------------------ #

    def build(self, config: RXConfig, keys: np.ndarray) -> RXIndex:
        """Build ``SETUP_BUILDS`` times; setup_s is the median build."""
        for _ in range(SETUP_BUILDS):
            index = None  # free the previous build before timing the next
            with self.timed("setup_s"):
                index = RXIndex(config)
                index.build(keys)
        return index

    def update_probe(self, service) -> None:
        """One clustered update, timed from ``update()`` to the first answer."""
        old = service.index.keys
        new = clustered_key_swaps(old, min(UPDATE_SWAPS, old.shape[0] // 4), seed=self.rng)
        changed = np.nonzero(new != old)[0]
        query = new[self.rng.choice(changed)].reshape(1)
        with self.timed("update_to_query_ms", 1e3):
            outcome = service.update(new)
            service.submit_point(query)
            (answer,) = service.drain()
        self.attempted += 1
        expected = int(np.nonzero(new == query[0])[0][0])
        ok = not answer.failed and int(answer.result_rows()[0]) == expected
        self.failed += int(answer.failed)
        self.check(ok, f"first query after update {len(self.samples['update_to_query_ms'])} missed the new column")
        if self._tracing and "dirty_keys" in outcome.stats:
            self.counts["dirty_keys"] += outcome.stats["dirty_keys"]
            self.counts["changed_keys"] += changed.shape[0]

    def checkpoint(self, service, path: Path) -> None:
        with self.timed("checkpoint_ms", 1e3):
            info = service.checkpoint(path)
        written = (path / "MANIFEST.json").stat().st_size
        if info["segments_rewritten"]:
            written += sum(f.stat().st_size for f in (path / f"epoch-{info['epoch']:08d}").iterdir())
        self.samples["ckpt_write_bytes"].append(float(written))
        self.samples["disk_bytes_per_key"].append(info["bytes_on_disk"] / service.index.num_keys)
        if self._tracing:
            self.counts["segments_rewritten"] += info["segments_rewritten"]
            self.counts["checkpoints"] += 1

    def restart(self, path: Path, live: RXIndex) -> None:
        """Cold load to the first answered batch; must match the live index."""
        queries = live.keys[self.rng.integers(0, live.num_keys, size=RESTART_QUERIES)]
        with self.timed("restart_to_query_ms", 1e3):
            loaded = RXIndex.load(path, mmap=True)
            cold = loaded.point_lookup(queries)
        self.attempted += 1
        hot = live.point_lookup(queries)
        same = (
            np.array_equal(cold.result_rows, hot.result_rows)
            and np.array_equal(cold.hits_per_lookup, hot.hits_per_lookup)
            and cold.stats == hot.stats
            and np.array_equal(cold.result_rows.astype(np.int64), key_inverse(live.keys)[queries.astype(np.int64)])
        )
        self.check(same, "cold-loaded index answered differently from the live one")

    def finish(self) -> None:
        self.samples["rss_peak_mb"].append(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )


# --------------------------------------------------------------------------- #
# request generators and correctness gates
# --------------------------------------------------------------------------- #


def point_arrivals(run: Run, keys: np.ndarray, times: np.ndarray) -> list:
    ranks = zipf_sample(keys.shape[0], times.shape[0], ZIPF_COEFFICIENT, run.rng)
    queries = keys[ranks]

    def submitter(q):
        return lambda service, t: service.submit_point(q, arrival=t)

    return [
        (times[i], submitter(queries[i : i + 1]), int(queries[i]))
        for i in range(times.shape[0])
    ]


def check_points(run: Run, report: LoadReport, inverse: np.ndarray) -> None:
    done = [o for o in report.outcomes if not o.failed]
    if not done:
        return
    got = np.array([int(o.result.result_rows()[0]) for o in done], dtype=np.int64)
    want = inverse[np.array([o.tag for o in done], dtype=np.int64)]
    bad = int(np.count_nonzero(got != want))
    run.check(bad == 0, f"{bad} point requests returned rows other than the reference")


class RangeMix:
    """LIMIT-32 ``first_k`` requests plus cursor page chains.

    Tags: ``("k", lower)`` for a ``first_k`` request, ``("c", chain, page,
    lower)`` for a page.  A chain's next page is submitted when the previous
    one completes, with its ``next_cursor`` and pinned to its epoch.
    """

    def __init__(self, run: Run, num_keys: int):
        self.run = run
        self.num_keys = num_keys
        self.pages: dict[int, dict[int, np.ndarray]] = defaultdict(dict)
        self.chain_lower: dict[int, int] = {}
        self._next_chain = 0

    def arrivals(self, times: np.ndarray) -> list:
        rng = self.run.rng
        count = times.shape[0]
        lowers = rng.integers(0, self.num_keys - RANGE_SPAN + 1, size=count).astype(np.uint64)
        chain = rng.integers(0, CHAIN_EVERY, size=count) == 0
        out = []
        for i in range(count):
            lo = lowers[i : i + 1]
            if chain[i]:
                cid = self._next_chain
                self._next_chain += 1
                self.chain_lower[cid] = int(lo[0])
                out.append((times[i], self._page(lo, None, None), ("c", cid, 0, int(lo[0]))))
            else:
                out.append((times[i], self._first_k(lo), ("k", int(lo[0]))))
        return out

    @staticmethod
    def _first_k(lo):
        hi = lo + np.uint64(RANGE_SPAN - 1)
        return lambda service, t: service.submit_range(lo, hi, limit=RANGE_LIMIT, arrival=t)

    @staticmethod
    def _page(lo, cursor, epoch):
        hi = lo + np.uint64(RANGE_SPAN - 1)
        return lambda service, t: service.submit_range(
            lo, hi, limit=PAGE_SIZE, arrival=t, order="key", cursor=cursor, pin_epoch=epoch
        )

    def follow(self, outcome):
        tag = outcome.tag
        if tag[0] != "c":
            return ()
        _, cid, page, lower = tag
        result = outcome.result
        self.pages[cid][page] = result.hits.prim_indices.astype(np.int64)
        if page + 1 >= CHAIN_PAGES:
            return ()
        if result.next_cursor is None:
            self.run.check(False, f"page chain {cid} ended early at page {page}")
            return ()
        lo = np.array([lower], dtype=np.uint64)
        return [
            (outcome.completion, self._page(lo, result.next_cursor, result.epoch), ("c", cid, page + 1, lower))
        ]

    def check(self, report: LoadReport, keys: np.ndarray, inverse: np.ndarray) -> None:
        bad_k = 0
        for o in report.outcomes:
            if o.failed or o.tag[0] != "k":
                continue
            rows = o.result.hits.prim_indices.astype(np.int64)
            lo = o.tag[1]
            hit_keys = keys[rows].astype(np.int64)
            if (
                rows.shape[0] != min(RANGE_LIMIT, RANGE_SPAN)
                or np.unique(rows).shape[0] != rows.shape[0]
                or hit_keys.min(initial=lo) < lo
                or hit_keys.max(initial=lo) > lo + RANGE_SPAN - 1
            ):
                bad_k += 1
        self.run.check(bad_k == 0, f"{bad_k} first_k requests returned wrong rows")
        bad_chains = 0
        for cid, pages in self.pages.items():
            if len(pages) < CHAIN_PAGES:
                continue  # a failed page; counted in `failed`
            lo = self.chain_lower[cid]
            got = np.concatenate([pages[p] for p in range(CHAIN_PAGES)])
            want = inverse[lo : lo + CHAIN_PAGES * PAGE_SIZE]
            bad_chains += int(not np.array_equal(got, want))
        self.run.check(bad_chains == 0, f"{bad_chains} page chains differ from the (key, rowID) reference")
        self.pages.clear()
        self.chain_lower.clear()


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #


def _read_setup(run: Run, max_wait: float) -> IndexService:
    """Build, then update/checkpoint/restart probes — all before timing."""
    scale = run.scale
    keys = dense_shuffled_keys(scale.keys, seed=run.rng)
    with run.traced():
        index = run.build(serve_config(), keys)
        service = make_service(index, max_wait)
        store = run.workdir / "store"
        run.checkpoint(service, store)
        for _ in range(PROBE_UPDATES):
            run.update_probe(service)
            run.checkpoint(service, store)
        for _ in range(PROBE_RESTARTS):
            run.restart(store, service.index)
    return service


def _measure_rounds(run: Run, one_round) -> None:
    """Run the rounds; a traced run traces every other round."""
    for i in range(run.rounds):
        traced = i % 2 == 0
        start = time.perf_counter()
        with run.traced(traced):
            one_round()
        run.round_wall[traced].append(time.perf_counter() - start)


def point_zipf(run: Run) -> None:
    scale = run.scale
    service = _read_setup(run, POINT_MAX_WAIT)
    keys = service.index.keys
    inverse = key_inverse(keys)
    # Warm the cache so its hit rate is at steady state before timing.
    drive(service, point_arrivals(run, keys, np.zeros(scale.point_saturation)))

    def one_round():
        sat = run.saturation(service, point_arrivals(run, keys, np.zeros(scale.point_saturation)))
        check_points(run, sat, inverse)
        times = run.poisson_times(scale.point_open, scale.point_rate)
        open_ = run.open_loop(service, point_arrivals(run, keys, times))
        check_points(run, open_, inverse)

    _measure_rounds(run, one_round)


def range_uniform(run: Run) -> None:
    scale = run.scale
    service = _read_setup(run, RANGE_MAX_WAIT)
    keys = service.index.keys
    inverse = key_inverse(keys)
    mix = RangeMix(run, keys.shape[0])
    warm = np.zeros(scale.range_saturation // 4)
    mix.check(drive(service, mix.arrivals(warm), mix.follow), keys, inverse)

    def one_round():
        sat = run.saturation(service, mix.arrivals(np.zeros(scale.range_saturation)), mix.follow)
        mix.check(sat, keys, inverse)
        times = run.poisson_times(scale.range_open, scale.range_rate)
        open_ = run.open_loop(service, mix.arrivals(times), mix.follow)
        mix.check(open_, keys, inverse)

    _measure_rounds(run, one_round)


def update_restart(run: Run) -> None:
    scale = run.scale
    keys = dense_shuffled_keys(scale.keys, seed=run.rng)
    store = run.workdir / "store"
    with run.traced():
        index = run.build(update_config(), keys)
        service = make_service(index, POINT_MAX_WAIT)
        service.checkpoint(store)  # the first, full save is set-up

    def one_round():
        run.update_probe(service)
        column = service.index.keys
        inverse = key_inverse(column)
        sat = run.saturation(service, point_arrivals(run, column, np.zeros(scale.burst_saturation)))
        check_points(run, sat, inverse)
        times = run.poisson_times(scale.burst_open, scale.point_rate)
        open_ = run.open_loop(service, point_arrivals(run, column, times))
        check_points(run, open_, inverse)
        run.checkpoint(service, store)

    _measure_rounds(run, one_round)
    with run.traced():
        for _ in range(UPDATE_RESTARTS):
            run.restart(store, service.index)


WORKLOADS = {
    "point-zipf": point_zipf,
    "range-uniform": range_uniform,
    "update-restart": update_restart,
}


def run_workload(run: Run) -> None:
    try:
        WORKLOADS[run.workload](run)
    finally:
        shutil.rmtree(run.workdir / "store", ignore_errors=True)
    run.finish()
