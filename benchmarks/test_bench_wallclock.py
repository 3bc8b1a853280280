"""Wall-clock micro-benchmarks of the engine hot paths.

Unlike the paper panels (which ``tests/test_experiments.py`` regenerates
through the cost model), these time the *functional* engine itself —
``build_bvh``, ``TraversalEngine.trace`` and ``refit_accel`` — and record one
compared run through ``append_artifact`` into a temporary
``BENCH_engine.json``.  The heavyweight sweep against the golden reference
lives in ``benchmarks/perf_smoke.py`` (``make bench-smoke``); this file keeps
a fast always-on signal in the test suite.
"""

import numpy as np
import pytest

from perf_smoke import append_artifact, bench_build, bench_refit, bench_trace

#: Small enough to keep the benchmark suite fast, big enough to be
#: interpreter-dominated in the reference implementation.
LOG2_KEYS = 14


@pytest.mark.benchmark(group="engine")
def test_engine_build_wallclock(benchmark):
    entry = benchmark.pedantic(
        lambda: bench_build(LOG2_KEYS, "lbvh", compare=False),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    assert entry["new_seconds"] > 0
    print()
    print(f"build lbvh 2^{LOG2_KEYS}: {entry['new_seconds']:.3f}s")


@pytest.mark.benchmark(group="engine")
def test_engine_trace_wallclock(benchmark):
    entry = benchmark.pedantic(
        lambda: bench_trace(LOG2_KEYS, LOG2_KEYS, compare=False),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    assert entry["new_seconds"] > 0
    print()
    print(f"trace 2^{LOG2_KEYS} rays: {entry['new_seconds']:.3f}s")


@pytest.mark.benchmark(group="engine")
def test_engine_refit_wallclock(benchmark):
    entry = benchmark.pedantic(
        lambda: bench_refit(LOG2_KEYS, compare=False),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    assert entry["new_seconds"] > 0
    print()
    print(f"refit 2^{LOG2_KEYS}: {entry['new_seconds']:.3f}s")


@pytest.mark.benchmark(group="engine")
def test_engine_speedup_vs_reference_and_artifact(benchmark, tmp_path):
    """One compared measurement per hot path, recorded to the artifact.

    Uses the golden-reference comparisons (which also assert equivalence) at
    the small size and checks the reference is not *faster* — the vectorised
    engine must never regress below the seed loops.
    """
    def measure():
        return [
            bench_build(LOG2_KEYS, "lbvh"),
            bench_trace(LOG2_KEYS, LOG2_KEYS),
            bench_refit(LOG2_KEYS),
        ]

    entries = benchmark.pedantic(measure, rounds=1, iterations=1, warmup_rounds=0)
    run = append_artifact(entries, tmp_path / "BENCH_engine.json")
    assert run["entries"] == entries
    print()
    for entry in entries:
        print(
            f"{entry['path']:<6} 2^{LOG2_KEYS}: new {entry['new_seconds']:.3f}s "
            f"ref {entry['ref_seconds']:.3f}s speedup {entry['speedup']:.2f}x"
        )
    speedups = np.array([entry["speedup"] for entry in entries])
    assert (speedups > 1.0).all(), f"engine slower than the seed loops: {speedups}"
