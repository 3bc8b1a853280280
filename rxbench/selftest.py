"""Tiny-scale self-test of the benchmark itself.

Runs every workload at 2^12 keys, untraced and traced, and checks that

* each run passes its correctness gate and reports every metric named in
  ``BENCHMARK.json`` with its unit, end-to-end values finite and non-zero;
* the traced run's per-layer self times plus the unattributed remainder add
  up to the traced wall-clock;
* the correctness gates are live: a wrong reference is reported.

Usage: ``python3 rxbench/run.py --self-test`` (exit code 0 on success).
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

import run as bench
import workloads as wl
from loadgen import drive
from spans import LAYERS


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_result(name: str, out: dict, expected: list[dict], nonzero: bool) -> None:
    result = out["result"]
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys {sorted(result)}")
    check(result["correct"], f"{name}: correctness gate failed: {out['details']['mismatches']}")
    check(result["attempted"] >= 1 and result["failed"] == 0, f"{name}: attempted/failed {result['attempted']}/{result['failed']}")
    metrics = result["metrics"]
    check(list(metrics) == [m["name"] for m in expected], f"{name}: metric names {list(metrics)}")
    for spec in expected:
        got = metrics[spec["name"]]
        check(got["unit"] == spec["unit"], f"{name}: {spec['name']} unit {got['unit']}")
        check(math.isfinite(got["value"]), f"{name}: {spec['name']} is not finite")
        if nonzero:
            check(got["value"] > 0, f"{name}: {spec['name']} is {got['value']}")
    json.dumps(result)  # must serialise as plain JSON


def check_layer_sum(name: str, layer: dict) -> None:
    parts = sum(layer[f"layer.{layer_name}_s"] for layer_name in LAYERS) + layer["trace.remainder_s"]
    wall = layer["trace.wall_s"]
    check(wall > 0 and abs(parts - wall) <= 1e-6 * wall + 1e-9,
          f"{name}: layer self times + remainder = {parts} != traced wall {wall}")
    check(layer["trace.spans"] > 0, f"{name}: no spans recorded")


def check_gates() -> None:
    """A wrong reference must be reported by the point and range gates."""
    keys = wl.dense_shuffled_keys(1 << 10, seed=1)
    index = wl.RXIndex(wl.serve_config())
    index.build(keys)
    service = wl.make_service(index, wl.POINT_MAX_WAIT)
    inverse = wl.key_inverse(keys)
    probe = wl.Run("point-zipf", 1, wl.TINY, 1, None, None)
    report = drive(service, wl.point_arrivals(probe, keys, np.zeros(64)))
    wl.check_points(probe, report, inverse)
    check(not probe.mismatches, f"point gate flagged a correct run: {probe.mismatches}")
    wl.check_points(probe, report, np.roll(inverse, 1))
    check(bool(probe.mismatches), "point gate missed a wrong reference")

    probe = wl.Run("range-uniform", 1, wl.TINY, 1, None, None)
    mix = wl.RangeMix(probe, keys.shape[0])
    report = drive(service, mix.arrivals(np.zeros(64)), mix.follow)
    mix.check(report, keys, np.roll(inverse, 1))
    check(bool(probe.mismatches), "range gate missed a wrong reference")


def main() -> int:
    spec = bench.load_spec()
    check_gates()
    print("correctness gates: ok")
    for workload in wl.WORKLOADS:
        out = bench.measure(workload, seed=7, seconds=2, trace=False, scale_name="tiny")
        check_result(f"{workload} untraced", out, spec["end_to_end"], nonzero=True)
        traced = bench.measure(workload, seed=7, seconds=2, trace=True, scale_name="tiny")
        check_result(f"{workload} traced", traced, spec["per_layer"], nonzero=False)
        check_layer_sum(workload, traced["details"]["per_layer"])
        print(f"{workload}: ok ({out['result']['attempted']} requests)")
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
