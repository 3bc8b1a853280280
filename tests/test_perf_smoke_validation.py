"""BENCH artifact hygiene: malformed entries must never reach the file.

The ``BENCH_engine.json`` trajectory only stays comparable across PRs if
every entry carries the same identity/timing contract — a scenario that
hand-rolls its entry dict and forgets ``new_seconds_p95`` (or the ``path``
the target checker keys on) would poison every later comparison silently.
``append_artifact`` therefore validates entries up front and refuses the
whole run; this suite pins that gate.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "perf_smoke.py"
_spec = importlib.util.spec_from_file_location("perf_smoke", _BENCH)
perf_smoke = importlib.util.module_from_spec(_spec)
sys.modules["perf_smoke"] = perf_smoke
_spec.loader.exec_module(perf_smoke)


def _entry(**overrides) -> dict:
    entry = {
        "path": "restart",
        "new_seconds": 0.5,
        "new_seconds_p50": 0.6,
        "new_seconds_p95": 0.7,
        "timing_repeats": 3,
    }
    entry.update(overrides)
    return entry


class TestValidateEntries:
    def test_complete_entry_passes(self):
        perf_smoke.validate_entries([_entry()])

    def test_extra_keys_are_fine(self):
        perf_smoke.validate_entries([_entry(log2_keys=20, speedup=2.0)])

    @pytest.mark.parametrize("key", perf_smoke.REQUIRED_ENTRY_KEYS)
    def test_each_required_key_is_enforced(self, key):
        entry = _entry()
        del entry[key]
        with pytest.raises(ValueError, match=key):
            perf_smoke.validate_entries([entry])

    def test_error_names_the_offending_entry(self):
        bad = _entry(path="paging")
        del bad["new_seconds_p95"]
        with pytest.raises(ValueError, match="'paging'"):
            perf_smoke.validate_entries([_entry(), bad])

    def test_all_missing_keys_are_listed(self):
        entry = _entry()
        del entry["new_seconds_p50"], entry["timing_repeats"]
        with pytest.raises(ValueError) as exc:
            perf_smoke.validate_entries([entry])
        assert "new_seconds_p50" in str(exc.value)
        assert "timing_repeats" in str(exc.value)

    def test_non_dict_entry_rejected(self):
        with pytest.raises(ValueError, match="not a dict"):
            perf_smoke.validate_entries([("restart", 0.5)])


class TestAppendArtifact:
    def test_rejects_before_writing(self, tmp_path):
        out = tmp_path / "BENCH_engine.json"
        bad = _entry()
        del bad["timing_repeats"]
        with pytest.raises(ValueError, match="timing_repeats"):
            perf_smoke.append_artifact([_entry(), bad], out)
        assert not out.exists(), "a rejected run must not touch the artifact"

    def test_valid_run_is_appended(self, tmp_path):
        out = tmp_path / "BENCH_engine.json"
        perf_smoke.append_artifact([_entry(shards=16)], out)
        trajectory = json.loads(out.read_text())
        assert len(trajectory["runs"]) == 1
        recorded = trajectory["runs"][0]["entries"][0]
        assert recorded["path"] == "restart"
        assert recorded["shards"] == 16
