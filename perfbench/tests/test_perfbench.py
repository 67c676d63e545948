#!/usr/bin/env python3
"""Self-tests of the repository benchmark (perfbench/run.py).

Run from anywhere: python3 perfbench/tests/test_perfbench.py
The first test to run builds the benchmark, which takes a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
RUN = os.path.join(PERFBENCH, "run.py")
CLOSED_LOOP = ("sat_count", "graphical_batch", "semiring_dense")
WORKLOADS = CLOSED_LOOP + ("triplestore_serve",)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run(workload, seed=1, trace=0, *extra, env=None, cwd=ROOT,
        script=RUN):
    """Runs one tiny benchmark; returns (exit code, stdout lines, result)."""
    command = [sys.executable, script, "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace)
               ] + list(extra)
    proc = subprocess.run(command, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, lines, result


def prefixed(lines, prefix):
    """{name: rest} of the report lines starting with `prefix`."""
    out = {}
    for line in lines:
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[0] == prefix:
            out[parts[1]] = parts[2]
    return out


def span_counts(workload, seed):
    path = os.path.join(build_dir(), "spans",
                        "%s-seed%d.json" % (workload, seed))
    with open(path) as f:
        return {r["request"]: r["counts"] for r in json.load(f)["requests"]}


class PerfbenchTest(unittest.TestCase):

    def test_every_workload_prints_every_metric_with_its_unit(self):
        spec = benchmark_spec()
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, lines, result = run(workload, trace=trace)
                    self.assertEqual(code, 0, "\n".join(lines[-5:]))
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    printed = prefixed(lines, "metric")
                    self.assertEqual(printed["error_rate"], "0 ratio")
                    for name, unit in want.items():
                        self.assertTrue(printed[name].endswith(" " + unit))

    def test_corrupted_oracle_answer_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = run(workload, 1, 0, "--corrupt-oracle")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                error_rate = float(
                    prefixed(lines, "metric")["error_rate"].split()[0])
                self.assertGreater(error_rate, 0)

    def test_work_counts_repeat_across_runs_of_one_seed(self):
        for workload in CLOSED_LOOP:
            with self.subTest(workload=workload):
                runs = []
                for _ in range(2):
                    code, _, _ = run(workload, 7, 1, "--requests", "8")
                    self.assertEqual(code, 0)
                    runs.append(span_counts(workload, 7))
                self.assertTrue(runs[0])
                self.assertEqual(runs[0], runs[1])
                for counts in runs[0].values():
                    self.assertIn("core.steps", counts)
                    self.assertIn("einsum.sql_bytes", counts)
                    self.assertIn("core.est_flops", counts)
                    self.assertIn("minidb.rows_joined", counts)

    def test_traced_run_does_the_same_work_as_untraced(self):
        for workload in CLOSED_LOOP:
            with self.subTest(workload=workload):
                invariants = []
                for trace in (0, 1):
                    code, lines, _ = run(workload, 3, trace, "--requests", "8")
                    self.assertEqual(code, 0)
                    invariants.append(prefixed(lines, "invariant"))
                self.assertIn("answers", invariants[0])
                self.assertIn("einsum.cache.program_hits", invariants[0])
                self.assertEqual(invariants[0], invariants[1])

    def test_refuses_engine_overrides(self):
        env = dict(os.environ, MINIDB_CACHE="0")
        code, lines, result = run("sat_count", env=env)
        self.assertEqual(code, 2)
        self.assertIsNone(result)

    def test_fails_without_engine_sources(self):
        # A tree holding only BENCHMARK.json and perfbench/: the build must
        # fail and no result line may be printed.
        isolated = os.path.join(build_dir(), "selftest-isolated")
        shutil.rmtree(isolated, ignore_errors=True)
        shutil.copytree(PERFBENCH, os.path.join(isolated, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        try:
            code, lines, result = run(
                "sat_count", env=env, cwd=isolated,
                script=os.path.join(isolated, "perfbench", "run.py"))
        finally:
            shutil.rmtree(isolated, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
