"""Benchmark-suite configuration.

The paper's panels run once each in ``tests/test_experiments.py``; this
directory keeps the engine wall-clock micro-benchmarks, one round each, and
``perf_smoke.py``, whose functions they import.
"""
