#!/usr/bin/env python3
"""Tests of the benchmark's own logic, plus a smoke run of all three
workloads at small sizes.

    python3 perfbench/test_perfbench.py      (from the repository root)

The smoke tests build the CLI and the probe into $CARGO_TARGET_DIR
(default .bench_build) on first use, like run.py does.
"""

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from benchlib import Tally  # noqa: E402
from harness import Harness  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_closest_ranks(self):
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(benchlib.percentile(values, 0), 1.0)
        self.assertEqual(benchlib.percentile(values, 100), 4.0)
        self.assertEqual(benchlib.median(values), 2.5)
        self.assertAlmostEqual(benchlib.percentile(values, 90), 3.7)

    def test_single_sample_is_every_percentile(self):
        for q in (0, 50, 90, 99, 100):
            self.assertEqual(benchlib.percentile([7.5], q), 7.5)

    def test_p90_of_ten_samples_lies_between_ninth_and_tenth(self):
        values = list(range(1, 11))
        self.assertAlmostEqual(benchlib.percentile(values, 90), 9.1)
        self.assertAlmostEqual(benchlib.percentile(values, 99), 9.91)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)
        with self.assertRaises(ValueError):
            benchlib.percentile([1.0], 101)

    def test_quartile_spread_uses_statistics_quantiles(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchlib.quartile_spread(values),
                               (q3 - q1) / q2)


class WindowTest(unittest.TestCase):
    def test_groups_samples_by_whole_second_and_drops_the_partial_one(self):
        at_ms = [0.0, 400.0, 999.9, 1000.0, 1500.0, 2100.0]
        self.assertEqual(benchlib.windows(at_ms, 2300.0),
                         [[0, 1, 2], [3, 4]])

    def test_a_run_shorter_than_a_window_is_one_window(self):
        self.assertEqual(benchlib.windows([0.0, 100.0, 200.0], 300.0),
                         [[0, 1, 2]])

    def test_a_stalled_second_is_an_empty_window(self):
        self.assertEqual(benchlib.windows([0.0, 2500.0], 3000.0),
                         [[0], [], [1]])

    def test_window_p90_ignores_a_burst_in_a_minority_of_windows(self):
        # Three calm seconds at 1 ms and one second where every repair
        # took 9 ms: the whole-run p90 lands in the burst, the median of
        # the window p90s does not.
        at_ms = [100.0 * i for i in range(40)]
        repair = [9.0 if 3000 <= t < 4000 else 1.0 for t in at_ms]
        conn = {"at_ms": at_ms, "repair_ms": repair, "seconds": 4.0,
                "requests": 4 * len(at_ms)}
        self.assertEqual(benchlib.percentile(repair, 90), 9.0)
        self.assertEqual(benchlib.median(workloads.window_p90s([conn])),
                         1.0)
        # 10 iterations a second, 4 requests each.
        self.assertAlmostEqual(workloads.median_rate([conn]), 40.0)


class TallyTest(unittest.TestCase):
    def test_an_operation_fails_once_however_many_checks_fail(self):
        tally = Tally()
        tally.op("a", exit_0=True, valid=True)
        tally.op("b", exit_0=False, valid=False)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertEqual(tally.problems, ["b: exit_0, valid"])
        self.assertFalse(tally.correct)

    def test_counted_operations_add_up(self):
        tally = Tally()
        tally.ops("requests", 100, 0)
        tally.ops("more requests", 10, 3)
        tally.op("final", replay_validates=True)
        self.assertEqual((tally.attempted, tally.failed), (111, 3))
        self.assertEqual(tally.problems, ["more requests: 3 of 10 failed"])

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            Tally().ops("x", 2, 3)
        with self.assertRaises(ValueError):
            Tally().ops("x", 2, -1)

    def test_nothing_attempted_is_not_correct(self):
        self.assertFalse(Tally().correct)
        tally = Tally()
        tally.op("only", ok=True)
        self.assertTrue(tally.correct)


class FingerprintTest(unittest.TestCase):
    def test_identical_fingerprints_match(self):
        fp = {"rounds": "341", "hash": "ab", "valid": "yes"}
        self.assertEqual(benchlib.fingerprint_mismatches(fp, dict(fp)), [])

    def test_names_every_differing_or_missing_key(self):
        ref = {"rounds": "341", "hash": "ab", "bits": 30}
        got = {"rounds": "342", "hash": "ab", "extra": 1}
        self.assertEqual(benchlib.fingerprint_mismatches(ref, got),
                         ["bits", "extra", "rounds"])

    def test_none_differs_from_missing(self):
        self.assertEqual(benchlib.fingerprint_mismatches({"h": None}, {}),
                         ["h"])

    def test_batch_job_fingerprint_ignores_timings(self):
        job = {"label": "x", "solver": "theta", "valid": True, "nodes": 9,
               "edges": 20, "colors_used": 4, "color_hash": "0f",
               "rounds": 7, "messages": 80, "bits": 800,
               "t": {"wall_ms": 1.5, "rss_mib": 20.0}}
        slower = dict(job, t={"wall_ms": 9.5, "rss_mib": 21.0})
        self.assertEqual(benchlib.fingerprint_mismatches(
            workloads.job_fingerprint(job),
            workloads.job_fingerprint(slower)), [])
        other = dict(job, color_hash="10")
        self.assertEqual(benchlib.fingerprint_mismatches(
            workloads.job_fingerprint(job),
            workloads.job_fingerprint(other)), ["color_hash"])


class AttributionTest(unittest.TestCase):
    def test_unattributed_is_cli_wall_minus_stage_sum(self):
        stages = {"load": 25.0, "orient": 90.0, "linial": 510.0,
                  "solve": 2175.0, "validate": 115.0, "emit": 200.0}
        self.assertAlmostEqual(benchlib.unattributed_ms(3200.0, stages),
                               85.0)

    def test_unattributed_goes_negative_when_stages_outrun_the_cli(self):
        self.assertAlmostEqual(
            benchlib.unattributed_ms(100.0, {"a": 70.0, "b": 40.0}), -10.0)

    def test_build_ms_is_uncached_minus_cached_fleet(self):
        self.assertAlmostEqual(benchlib.build_ms(5600.0, 4200.0), 1400.0)

    def test_ratio_guards_zero(self):
        self.assertEqual(benchlib.ratio(3.0, 0.0), 0.0)
        self.assertEqual(benchlib.ratio(3.0, 1.5), 2.0)


class ResultLineTest(unittest.TestCase):
    def test_metric_names_must_match_exactly(self):
        benchlib.check_metric_names({"a": 1, "b": 2}, ["b", "a"])
        with self.assertRaises(ValueError):
            benchlib.check_metric_names({"a": 1}, ["a", "b"])
        with self.assertRaises(ValueError):
            benchlib.check_metric_names({"a": 1, "c": 2}, ["a"])

    def test_result_line_has_exactly_the_contract_keys(self):
        tally = Tally()
        tally.op("x", ok=True)
        line = json.loads(benchlib.result_line(
            tally, {"setup_s": 0.8127}, {"setup_s": "s"}))
        self.assertEqual(set(line),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(line["metrics"],
                         {"setup_s": {"value": 0.8127, "unit": "s"}})
        self.assertTrue(line["correct"])


class CliTableTest(unittest.TestCase):
    def test_reads_the_color_table(self):
        text = ("== dcolor color ==\n"
                "  metric            value\n"
                "  ----------------------------\n"
                "  algorithm         two_sweep\n"
                "  valid             yes\n"
                "  colors used                48\n"
                "  rounds                    341\n"
                "  max message bits           30\n")
        self.assertEqual(workloads.cli_table(text),
                         {"valid": "yes", "colors used": "48",
                          "rounds": "341", "max message bits": "30"})


class SpecTest(unittest.TestCase):
    def test_benchmark_json_follows_the_contract(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s",
                                  "better": "lower", "bound": max(
                                      m["bound"] for m in spec["end_to_end"])}])
        self.assertLessEqual(len(spec["per_layer"]), 128)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def run_bench(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"], cwd=ROOT, capture_output=True, text=True,
        timeout=900)
    return out


class SmokeTest(unittest.TestCase):
    """All three workloads at small sizes, through run.py."""

    def test_every_workload_runs_clean_in_both_modes(self):
        spec = load_spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            for workload in workloads.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    out = run_bench(workload, trace)
                    self.assertEqual(out.returncode, 0, out.stderr)
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertTrue(result["correct"], out.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        declared)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_each_layer_metric_belongs_to_exactly_one_workload(self):
        declared = [m["name"] for m in load_spec()["per_layer"]]
        seen = {}
        bench_run.build(build_dir())
        for workload, (_, traced) in workloads.WORKLOADS.items():
            work = tempfile.mkdtemp(dir=build_dir())
            h = Harness(build_dir(), work, workloads.SIM_THREADS)
            try:
                tally = Tally()
                metrics, _ = traced(workloads.Run(h, "smoke", 5, 0.5, tally))
                self.assertTrue(tally.correct, tally.problems)
            finally:
                h.kill_all()
                shutil.rmtree(work, ignore_errors=True)
            for name in metrics:
                self.assertNotIn(name, seen, f"{name} from {workload}")
                seen[name] = workload
        self.assertEqual(sorted(seen), sorted(declared))

    def test_fails_without_the_program_sources(self):
        os.makedirs(build_dir(), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_dir()) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "color_1m", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
