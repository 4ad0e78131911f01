"""Tests of the benchmark itself, on test-sized inputs (--tiny).

    python3 -m unittest discover -s perfbench/tests -v

Each run builds the harness first (a no-op once built), so the first test
may take a minute on a fresh checkout.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.dont_write_bytecode = True

import layers  # noqa: E402
import run  # noqa: E402

WORKLOADS = run.WORKLOADS
WORK_DIR = os.path.join(ROOT, ".bench_build", "tests")


def bench(workload, seed=3, trace=0, out=None, cwd=ROOT, script=None):
    """Runs the benchmark once; returns (exit code, stdout lines)."""
    cmd = [sys.executable, script or os.path.join(BENCH, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    if out:
        cmd += ["--out", out]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


class OutputContract(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, lines = bench(workload, trace=trace)
                    self.assertEqual(code, 0, lines)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                    context = json.loads(lines[-2])["context"]
                    self.assertEqual(context["failed_frac"], 0.0)
                    self.assertIn("sim_digest", context)
                    self.assertGreater(context["spin_iter_per_us"], 0)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_fails_without_the_program_sources(self):
        # A directory with only BENCHMARK.json and the benchmark itself.
        os.makedirs(WORK_DIR, exist_ok=True)
        lone = tempfile.mkdtemp(dir=WORK_DIR)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
            shutil.copytree(BENCH, os.path.join(lone, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = bench("paper_fir", cwd=lone,
                                script=os.path.join(lone, "perfbench",
                                                    "run.py"))
            self.assertNotEqual(code, 0)
            self.assertEqual(lines, [])
        finally:
            shutil.rmtree(lone, ignore_errors=True)


class Determinism(unittest.TestCase):
    def digest(self, workload, seed):
        code, lines = bench(workload, seed=seed)
        self.assertEqual(code, 0, lines)
        return json.loads(lines[-2])["context"]["sim_digest"]

    def test_same_seed_same_digest(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.digest(workload, 5),
                                 self.digest(workload, 5))

    def test_seed_changes_the_inputs(self):
        self.assertNotEqual(self.digest("paper_uniform", 5),
                            self.digest("paper_uniform", 6))


class Spans(unittest.TestCase):
    def check_tree(self, spans):
        self.assertTrue(spans)
        for s in spans:
            self.assertGreaterEqual(s["self"], 0, s["name"])
        # Self times of a span's whole subtree add up to its duration.
        for i, s in enumerate(spans):
            total, stack = 0, [i]
            while stack:
                j = stack.pop()
                total += spans[j]["self"]
                stack += spans[j]["children"]
            self.assertEqual(total, s["end"] - s["begin"], s["name"])

    def test_self_times_on_real_traces(self):
        os.makedirs(WORK_DIR, exist_ok=True)
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out = tempfile.mkdtemp(dir=WORK_DIR)
                try:
                    code, lines = bench(workload, trace=1, out=out)
                    self.assertEqual(code, 0, lines)
                    with open(os.path.join(out, "result.json")) as f:
                        files = json.load(f)["trace_files"]
                    for role in ("harness", "daemon"):
                        if role in files:
                            spans, dropped = layers.load_spans(
                                os.path.join(out, files[role]))
                            self.assertEqual(dropped, 0)
                            self.check_tree(layers.nest(spans))
                finally:
                    shutil.rmtree(out, ignore_errors=True)

    def test_nesting_of_synthetic_spans(self):
        def span(name, tid, begin, end):
            return {"name": name, "tid": tid, "begin": begin, "end": end}
        spans = layers.nest([
            span("job", 1, 0, 100),
            span("cell", 1, 10, 60),
            span("trace", 1, 20, 50),
            span("cell", 1, 60, 90),
            span("batch", 2, 5, 95),   # other thread: never a child of job
            span("cell", 2, 5, 95),    # same extent: nests in the batch
        ])
        self.assertEqual([s["parent"] for s in spans], [None, 0, 1, 0, None, 4])
        self.assertEqual([s["self"] for s in spans], [20, 20, 30, 30, 0, 90])
        self.check_tree(spans)


if __name__ == "__main__":
    unittest.main()
