"""Run one benchmark workload against the checkout's ``src/`` and report it.

Usage (from the root of a checkout)::

    python3 rxbench/run.py --workload point-zipf --seed 1 --seconds 6 --trace 0
    python3 rxbench/run.py --self-test

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the same workload with every other measurement round traced and
prints the per-layer metrics instead, plus the tracing overhead (traced
minus untraced round wall-clock).  Metric names and units come from
``BENCHMARK.json``.

Standard output ends with two JSON lines: a detail record (provenance,
per-metric sample count, median and spread, open-loop figures, findings of
the correctness gate) and, last, the result::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

Any mismatch against the NumPy references makes ``correct`` false and the
exit code 1.  Without an importable ``src/repro`` the command exits nonzero and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".rxbench-out"

#: Measurement environment.  glibc returns freed large blocks to the kernel
#: and every later allocation faults its pages in again, which on a shared
#: host adds +-15% noise to a build.  With these thresholds freed memory is
#: reused instead, on both sides of every comparison; peak memory is still
#: reported as rss_peak_mb.
BENCH_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(1 << 32),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 32),
    "PYTHONHASHSEED": "0",
}


def ensure_bench_env() -> None:
    """Re-execute this interpreter in place under :data:`BENCH_ENV`."""
    if all(os.environ.get(k) == v for k, v in BENCH_ENV.items()):
        return
    env = {**os.environ, **BENCH_ENV}
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_stack():
    """Import the checkout's own ``repro`` package (never an installed one)."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import numpy
        import repro
    except ImportError as exc:
        raise SystemExit(f"rxbench: cannot import the stack under test: {exc}") from exc
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise SystemExit(f"rxbench: repro imported from {repro.__file__}, not {ROOT / 'src'}")
    return numpy


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` directly; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spread(values) -> float:
    """Interquartile range as a share of the median (0 for < 2 samples)."""
    values = [v for v in values if math.isfinite(v)]
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def finite(value: float) -> float:
    """JSON-safe number: a percentile hit by failures reports 1e12."""
    return float(value) if math.isfinite(value) else 1e12


def end_to_end(run, np) -> dict:
    """``name -> (value, sample count, spread, per-sample values)``."""
    s = run.samples
    out = {}
    for name in ("setup_s", "update_to_query_ms", "checkpoint_ms", "restart_to_query_ms",
                 "ckpt_write_bytes", "serve_rps"):
        out[name] = (statistics.median(s[name]), len(s[name]), spread(s[name]), s[name])
    for name in ("rss_peak_mb", "disk_bytes_per_key"):
        out[name] = (s[name][-1], len(s[name]), spread(s[name]), s[name])
    pooled = np.concatenate(run.open_latencies)
    for name, q in (("lat_p50_ms", 50), ("lat_p99_ms", 99)):
        per_call = [float(np.percentile(lat, q)) * 1e3 for lat in run.open_latencies]
        out[name] = (finite(np.percentile(pooled, q) * 1e3), int(pooled.shape[0]), spread(per_call),
                     per_call)
    out["success_frac"] = (1.0 - run.failed / max(run.attempted, 1), run.attempted, 0.0, [])
    return out


def open_loop_summary(run, np, rate: float, max_wait: float) -> dict:
    firsts, seconds = [], []
    for lat in run.open_latencies:
        half = lat.shape[0] // 2
        firsts.append(lat[:half])
        seconds.append(lat[half:])
    p50 = lambda parts: finite(float(np.median(np.concatenate(parts))) * 1e3)
    first, second = p50(firsts), p50(seconds)
    utilisation = run.open_flush_seconds / run.open_makespan if run.open_makespan else 0.0
    valid = utilisation < 0.95 and second <= 1.5 * first
    return {
        "load_generator": (
            "virtual-clock open loop like IndexService.replay: arrivals are "
            "stamps, so generator lateness is 0 by construction; admission "
            "cost is outside the virtual timeline and reported as serve.admit_s"
        ),
        "arrivals": "Poisson",
        "rate_per_s": rate,
        "max_wait_s": max_wait,
        "utilisation": utilisation,
        "lat_p50_ms_first_half": first,
        "lat_p50_ms_second_half": second,
        "generator_lateness_s": 0.0,
        "valid": valid,
    }


def per_layer(run, np) -> dict:
    tracer = run.tracer
    own, inclusive, calls = tracer.span_totals()
    counts = run.counts
    get = lambda d, k: float(d.get(k, 0.0))
    ratio = lambda a, b: a / b if b else 0.0
    layers = tracer.layer_self_seconds()
    waits = np.concatenate(run.wait_seconds) if run.wait_seconds else np.zeros(0)
    traced = run.round_wall[True]
    untraced = run.round_wall[False]
    values = {
        "serve.admit_s": get(own, "serve.admit"),
        "serve.wait_ms": float(np.median(waits)) * 1e3 if waits.size else 0.0,
        "serve.queries_per_launch": ratio(counts["launched_queries"], counts["launches"]),
        "serve.launches": counts["launches"],
        "serve.cache_s": get(own, "serve.cache"),
        "serve.cache_hit_rate": ratio(counts["cache_hits"], counts["cache_hits"] + counts["cache_misses"]),
        "serve.launch_window_s": get(inclusive, "serve.launch_window"),
        "serve.demux_s": get(own, "serve.launch_window"),
        "serve.epoch_s": get(own, "serve.epoch"),
        "serve.flush_s": get(own, "serve.flush"),
        "query.rays_s": get(own, "query.rays"),
        "query.trace_s": get(own, "query.trace"),
        "query.trace_ms_per_launch": ratio(get(inclusive, "query.trace"), calls.get("query.trace", 0)) * 1e3,
        "query.intersect_s": get(own, "query.intersect"),
        "query.lookup_s": get(own, "query.lookup"),
        "query.node_visits_per_ray": ratio(counts["node_visits"], counts["rays"]),
        "query.prim_tests_per_ray": ratio(counts["prim_tests"], counts["rays"]),
        "query.hits_per_prim_test": ratio(counts["prim_hits"], counts["prim_tests"]),
        "query.rounds_per_launch": ratio(tracer.counts["query.trace"], calls.get("query.trace", 0)),
        "query.budget_dropped_hits": counts["budget_dropped_hits"],
        "build.encode_s": get(own, "build.encode"),
        "build.morton_s": get(own, "build.morton"),
        "build.bvh_s": get(own, "build.bvh"),
        "build.compact_s": get(own, "build.compact"),
        "build.delta_s": get(own, "build.delta"),
        "build.bind_s": get(own, "build.bind"),
        "build.dirty_keys_per_changed_key": ratio(counts["dirty_keys"], counts["changed_keys"]),
        "persist.save_s": get(own, "persist.save"),
        "persist.write_s": get(own, "persist.write"),
        "persist.fsync_s": get(own, "persist.fsync"),
        "persist.fsyncs": float(calls.get("persist.fsync", 0)),
        "persist.checksum_s": get(own, "persist.checksum"),
        "persist.load_s": get(own, "persist.load"),
        "persist.install_s": get(inclusive, "persist.install") - get(inclusive, "persist.load"),
        "persist.segments_rewritten": ratio(counts["segments_rewritten"], counts["checkpoints"]),
        "layer.serve_s": layers["serve"],
        "layer.query_s": layers["query"],
        "layer.build_s": layers["build"],
        "layer.persist_s": layers["persist"],
        "trace.remainder_s": tracer.wall - tracer.root_seconds(),
        "trace.wall_s": tracer.wall,
        "trace.spans": float(len(tracer)),
        "trace.overhead_frac": (
            statistics.mean(traced) / statistics.mean(untraced) - 1.0 if traced and untraced else 0.0
        ),
    }
    return values


def provenance(workload: str, seed: int, seconds: float, trace: bool, scale, np) -> dict:
    return {
        "git_sha": git_sha(),
        "scale": f"{scale.label} (2^{scale.keys.bit_length() - 1} keys)",
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": {k: os.environ.get(k) for k in BENCH_ENV},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, scale_name: str = "paper") -> dict:
    """Run one workload and return ``{"details": ..., "result": ...}``."""
    np = import_stack()
    import workloads as wl
    from spans import Tracer

    scale = wl.TINY if scale_name == "tiny" else wl.PAPER
    rounds = max(3, round(seconds / scale.round_seconds[workload]))
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    run = wl.Run(workload, seed, scale, rounds, tracer, workdir)
    try:
        wl.run_workload(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = load_spec()
    e2e = end_to_end(run, np)
    if workload == "range-uniform":
        rate, max_wait = scale.range_rate, wl.RANGE_MAX_WAIT
    else:
        rate, max_wait = scale.point_rate, wl.POINT_MAX_WAIT
    details = {
        "provenance": provenance(workload, seed, seconds, trace, scale, np),
        "rounds": rounds,
        "flush_policy": wl.FLUSH_POLICY,
        "end_to_end": {
            m["name"]: {
                "value": e2e[m["name"]][0],
                "unit": m["unit"],
                "samples": e2e[m["name"]][1],
                "median": statistics.median(e2e[m["name"]][3] or [e2e[m["name"]][0]]),
                "iqr_frac": e2e[m["name"]][2],
                "values": e2e[m["name"]][3],
                "unscaled_values": run.raw.get(m["name"], []),
            }
            for m in spec["end_to_end"]
        },
        "host_speed": {
            "reference_probe_s": {
                "bulk": wl.HostSpeed.BULK_REFERENCE_S,
                "per_call": wl.HostSpeed.CALL_REFERENCE_S,
            },
            "median_factor": statistics.median(run.host.factors),
            "samples": len(run.host.factors),
        },
        "open_loop": open_loop_summary(run, np, rate, max_wait),
        "mismatches": run.mismatches,
    }
    if trace:
        layer = per_layer(run, np)
        details["per_layer"] = layer
        OUT.mkdir(parents=True, exist_ok=True)
        span_file = OUT / f"spans-{workload}-seed{seed}.jsonl.gz"
        tracer.write(span_file)
        details["span_file"] = str(span_file.relative_to(ROOT))
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]}
    result = {
        "correct": run.mismatch_count == 0,
        "attempted": int(run.attempted),
        "failed": int(run.failed),
        "metrics": metrics,
    }
    return {"details": details, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("point-zipf", "range-uniform", "update-restart"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at a tiny scale and check the benchmark itself")
    args = parser.parse_args(argv)
    ensure_bench_env()
    if args.self_test:
        import_stack()
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"rxbench": out["details"]}))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
