# Convenience wrappers around the tier-1 test command and the engine
# perf smoke, so both are one command locally and in CI.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-fast test-diff test-cursor test-serve test-faults test-persist bench-smoke bench-strict bench-check bench-build bench-restart bench-selftest

test:
	$(PYTHON) -m pytest -x -q

test-fast:
	$(PYTHON) -m pytest -x -q tests

# Differential trace harness (including the scattered lookup-id cases: a
# lookup's rays apart, ids not monotone, ids on both sides of 2^16, through
# first_k(limit=1), first_k and ordered_k; plus the stable_order and
# ordered-pool merge checks), the block-invariance tests (every
# differential case runs under a patched traversal.FRONTIER_BLOCK of 1, 7
# or 16 pairs or the module's own, and the golden traversal and any-hit
# cases of tests/test_engine_equivalence.py under 48 and 64, so rounds
# split into blocks must match the golden loops; tier-1's TestFrontierBlock
# in tests/test_rtx_traversal.py also checks that a round really split),
# the forest's cut/splice oracle (random
# columns, shard_bits and leaf sizes), its DELTA_SHARD update chain (swaps,
# rewrites, growth, shrinkage and no-ops on every buffer kind, each step
# checked against a fresh build_bvh and build_forest) and its shard-tree
# tiling check (random leaf ranges against a per-row count), the
# golden-builder equivalence harness (lbvh, median and SAH against
# rtx/_reference.py), the update tests of the owned key and value columns
# (a write to the caller's key array changes no page, on the index or a
# pinned service page chain, and to its value array no aggregate and no
# saved byte) and of the duplicate-key flag (kept without a column sort
# across swaps, flipped by adding or removing a duplicate, re-derived after
# a key-count change, under REBUILD, REFIT and DELTA_SHARD), the RXIndex
# update chain of tests/test_update_changed_rows.py (every primitive, key
# mode and update policy, over dense and drawn key columns, through swaps,
# permutations of a few rows' keys, cross-bucket rewrites, growth,
# shrinkage, no-ops and refused Naive keys past 2^24; each step's buffer a
# full encode's, its tree a fresh build's, its DeltaUpdateStats those of an
# every-row compare, the previous epoch unwritten; a single-tree REBUILD
# chain must take both the relabel of a permutation and the build, and no
# other chain may relabel), and the
# block-boundary tests of the blocked Morton kernels
# (tests/test_rtx_morton.py); all honour DIFF_SEED (CI runs extra seeds).
test-diff:
	$(PYTHON) -m pytest -x -q tests/test_trace_differential.py tests/test_rtx_forest.py tests/test_engine_equivalence.py tests/test_update_key_column.py tests/test_update_changed_rows.py tests/test_rtx_morton.py

# Cursor-pagination harness (index-level + serve-level); honours DIFF_SEED
# (CI runs extra seeds alongside test-diff).
test-cursor:
	$(PYTHON) -m pytest -x -q tests/test_cursor_pagination.py tests/test_serve_cursor.py

# Serving-layer harness: coalesced-vs-solo demux, result cache and service
# tests, including the lean-record checks (TestLeanServeRecords: one point
# launch class per epoch, slotted records) and the submit-time rejection of
# requests a launch would refuse (TestMalformedRequestsRejectedAtSubmit);
# honours DIFF_SEED (CI runs extra seeds alongside test-diff).
test-serve:
	$(PYTHON) -m pytest -x -q tests/test_serve_scheduler.py tests/test_serve_cache.py tests/test_serve_service.py

# Fault-injection + snapshot-integrity harness only; honours FAULT_SEED
# (CI runs extra seeds).
test-faults:
	$(PYTHON) -m pytest -x -q tests/test_serve_faults.py tests/test_serve_snapshot.py

# Crash-safe epoch store: differential save/load round trips (honours
# DIFF_SEED), the seeded crash/corruption recovery harness (honours
# FAULT_SEED, which also picks the flipped bytes — CI runs extra seeds),
# including the manifest index-block checks on load and restore_from, the
# tree dtype, shape and single-tree bounds checks and the buggy-writer
# matrix of format-2 and format-3 forests; segment reuse by provenance
# (what a checkpoint hashes and writes) and the seeded Hypothesis
# update/save/load/restore_from sequences (both honour FAULT_SEED), every
# save cross-checked by tests/conftest.py's fixture, which hashes each
# reused segment against its committed entry; and the checked-in snapshot
# fixtures (a fresh save writes snapshots-v3 byte for byte, format 2
# loads, format 1 is refused; the format-2 stores hold the legacy tree
# layout, whose right array must equal left + 1 and whose shard
# prim_indices is never read).
test-persist:
	$(PYTHON) -m pytest -x -q tests/test_persist_roundtrip.py tests/test_persist_recovery.py tests/test_persist_provenance.py tests/test_persist_stateful.py tests/test_persist_fixtures.py

bench-smoke:
	$(PYTHON) benchmarks/perf_smoke.py

bench-strict:
	$(PYTHON) benchmarks/perf_smoke.py --strict

# Correctness-only bench pass: every smoke scenario at small sizes, the
# paging scenario's page bit-identity included (equivalence assertions, no
# timing targets, no artifact writes) — what CI runs.
bench-check:
	$(PYTHON) benchmarks/perf_smoke.py --check-only

# Forest-build gate: build_forest (the single tree plus its cut into
# shards) vs build_bvh at the 2^20-key CI size, with the splice of the
# forest's saved state asserted equal to the single tree and timed; no
# speed target.  BENCH_engine.json is appended.  "--scale paper" runs 2^26
# keys instead.
bench-build:
	$(PYTHON) benchmarks/perf_smoke.py --build-only --scale tiny

# Warm-restart gate: cold snapshot load to first query vs full rebuild at
# the 2^20-key CI size, loaded-vs-rebuilt identity asserted and the >=1.5x
# load-vs-rebuild target enforced.  BENCH_engine.json is appended.
# "--scale paper" runs the 2^26 paper-scale column instead.
bench-restart:
	$(PYTHON) benchmarks/perf_smoke.py --restart-only --scale tiny

# Benchmark self-test: every rxbench workload at 2^12 keys (~10 s), with
# the benchmark's correctness gates (NumPy-checked answers, a cold-loaded
# index answering bit-identically to the live one) — also part of CI.
bench-selftest:
	$(PYTHON) rxbench/run.py --self-test
