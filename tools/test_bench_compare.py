#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py: the time gate's tolerance, the
exact work-count gate, and the notes for cases, rates and counts present
in one document only.

Run directly (python3 tools/test_bench_compare.py) or through ctest
(bench_compare_unit_tests).
"""
import copy
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).parent / "bench_compare.py"


def stats(median):
    return {"median": median, "iqr": 0.0, "min": median, "max": median,
            "samples": [median]}


def document(cases, quick=True):
    """A cpm-bench/v1 document of `cases`: name -> (wall, rates, counts)."""
    return {
        "schema": "cpm-bench/v1", "suite": "p1", "quick": quick,
        "repeats": 1, "warmup": 0, "peak_rss_bytes": 1,
        "cases": [{"name": name, "wall_seconds": stats(wall),
                   "cpu_seconds": stats(wall),
                   "rates": {r: stats(v) for r, v in rates.items()},
                   "counts": counts}
                  for name, (wall, rates, counts) in cases.items()],
    }


BASE = document({
    "solve": (0.10, {"solves_per_sec": 1000.0},
              {"solves": 300, "evaluations": 21600, "station_analyses": 27900}),
    "sim": (0.05, {"events_per_sec": 5e6}, {"events": 250000}),
})


def compare(candidate, baseline=BASE):
    """Runs the gate; returns (exit code, standard output)."""
    with tempfile.TemporaryDirectory() as tmp:
        cand_path = Path(tmp) / "cand.json"
        base_path = Path(tmp) / "base.json"
        cand_path.write_text(json.dumps(candidate), encoding="utf-8")
        base_path.write_text(json.dumps(baseline), encoding="utf-8")
        done = subprocess.run(
            [sys.executable, str(SCRIPT), str(cand_path), str(base_path)],
            capture_output=True, text=True, check=False)
        return done.returncode, done.stdout


def case(doc, name):
    return next(c for c in doc["cases"] if c["name"] == name)


class CountGateTest(unittest.TestCase):
    def test_identical_documents_pass(self):
        code, out = compare(copy.deepcopy(BASE))
        self.assertEqual(code, 0, out)
        self.assertIn("all work counts equal", out)

    def test_a_count_off_by_one_fails(self):
        cand = copy.deepcopy(BASE)
        case(cand, "solve")["counts"]["station_analyses"] += 1
        code, out = compare(cand)
        self.assertEqual(code, 1, out)
        self.assertIn("WORK COUNT MISMATCH", out)
        self.assertIn("solve/station_analyses: 27901 vs baseline 27900", out)

    def test_a_count_missing_from_the_candidate_fails(self):
        cand = copy.deepcopy(BASE)
        del case(cand, "sim")["counts"]["events"]
        code, out = compare(cand)
        self.assertEqual(code, 1, out)
        self.assertIn("sim/events: missing", out)

    def test_a_new_count_is_a_note(self):
        cand = copy.deepcopy(BASE)
        case(cand, "sim")["counts"]["heap_pushes"] = 7
        code, out = compare(cand)
        self.assertEqual(code, 0, out)
        self.assertIn("count 'sim/heap_pushes' added", out)

    def test_a_count_is_exact_however_fast_the_run(self):
        # Within the time tolerance, yet one evaluation more: still a failure.
        cand = copy.deepcopy(BASE)
        case(cand, "solve")["wall_seconds"] = stats(0.101)
        case(cand, "solve")["counts"]["evaluations"] = 21601
        code, _ = compare(cand)
        self.assertEqual(code, 1)

    def test_documents_of_different_sizes_skip_counts(self):
        cand = copy.deepcopy(BASE)
        cand["quick"] = False
        case(cand, "solve")["counts"]["solves"] = 1000
        code, out = compare(cand)
        self.assertEqual(code, 0, out)
        self.assertIn("work counts not compared", out)


class TimeGateTest(unittest.TestCase):
    def test_slowdown_beyond_tolerance_fails(self):
        cand = copy.deepcopy(BASE)
        case(cand, "sim")["wall_seconds"] = stats(0.05 * 1.5)
        code, out = compare(cand)
        self.assertEqual(code, 1, out)
        self.assertIn("PERFORMANCE REGRESSION", out)

    def test_removed_case_is_a_note(self):
        cand = copy.deepcopy(BASE)
        cand["cases"] = [c for c in cand["cases"] if c["name"] != "sim"]
        code, out = compare(cand)
        self.assertEqual(code, 0, out)
        self.assertIn("case 'sim' removed", out)

    def test_foreign_schema_is_malformed_input(self):
        cand = copy.deepcopy(BASE)
        cand["schema"] = "other/v1"
        code, _ = compare(cand)
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()
