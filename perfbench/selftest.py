"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

It makes minimum-length runs of every workload (about four minutes in all)
and checks that each prints every metric BENCHMARK.json names, with its
unit; that the tracer puts every original callable back; that two traced
runs at one seed count the same calls; that the seed argument moves the op
seeds; that the reference sampler records until it is stopped; that the load
generator never imports jetgauge; and that the benchmark refuses to run
without the package sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run failed ({proc.returncode}): {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SeedsAndStatistics(unittest.TestCase):
    def test_seed_argument_moves_the_op_seeds(self):
        self.assertEqual(run.op_seeds(1), run.op_seeds(1))
        self.assertEqual(len(set(run.op_seeds(1))), run.CYCLE)
        self.assertNotEqual(run.op_seeds(1), run.op_seeds(2))

    def test_tail_has_ten_samples_above_it(self):
        self.assertEqual(run.tail([float(v) for v in range(20, 0, -1)]),
                         (10.0, 50.0))
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (1.0, 0.0))

    def test_item_reference_is_the_median_of_its_window(self):
        samples = [(1.0, 0.02), (1.1, 0.04), (1.2, 0.03), (1.25, 0.09),
                   (1.5, 0.05)]
        self.assertEqual(reference.item_ref(samples, 1.05, 1.3), (0.04, 3))
        self.assertEqual(reference.item_ref(samples, 1.4, 1.46), (0.05, 0))
        self.assertAlmostEqual(run.norm(3.0, 2 * run.NOMINAL_S), 1.5)

    def test_sampler_records_until_stopped(self):
        work = tempfile.mkdtemp()
        try:
            children = run.Children(dict(os.environ), work)
            children.start_sampler()
            try:
                time.sleep(0.5)
            finally:
                samples = children.stop_sampler()
                children.stop()
        finally:
            shutil.rmtree(work)
        self.assertGreaterEqual(len(samples), 2)
        self.assertEqual(samples, sorted(samples))
        self.assertTrue(all(d > 0 for _, d in samples))

    def test_generator_never_imports_jetgauge(self):
        code = ("import sys, run; "
                "print(any(m.startswith('jetgauge') for m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                              capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.stdout.strip(), "False", proc.stderr)

    def test_declared_metrics_match_the_runner(self):
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))


def snapshot() -> dict:
    """Every attribute of the jetgauge and numpy.linalg modules, and every
    traced class attribute, by owner and name."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name.startswith(("jetgauge", "numpy.linalg")):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    for module_name, attr, _ in tracing.TARGETS:
        if "." in attr:
            cls, method = attr.split(".")
            owner = getattr(sys.modules[module_name], cls)
            out[(module_name, attr)] = vars(owner)[method]
    return out


class TracerRestoresOriginals(unittest.TestCase):
    def test_spans_recorded_and_originals_back(self):
        import numpy as np

        import jetgauge.cli  # noqa: F401  loads every traced module
        from jetgauge import expr, suites

        before = snapshot()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            during = snapshot()
            for key in (("jetgauge.suites", "halton_points"),
                        ("jetgauge.suites", "closure_check"),
                        ("jetgauge.cli", "run_suite"),
                        ("jetgauge.series", "mul"),
                        ("numpy.linalg", "svd"),
                        ("jetgauge.expr", "ExprMap.parse"),
                        ("jetgauge.dynamics", "MotionFamily.invert")):
                self.assertIsNot(during[key], before[key], key)
            tracer.op = 0
            emap = expr.ExprMap.parse("exp(x) * y", ["x", "y"])
            emap.taylor_lift(np.array([0.1, 0.2]), 3)
            suites.halton_points(((0.0, 1.0),), 4, 0)
            tracer.op = None
            expr.ExprMap.parse("x", ["x"])  # outside an op: not recorded
        finally:
            self.assertTrue(tracer.uninstall())

        after = snapshot()
        moved = [key for key, value in before.items() if after[key] is not value]
        self.assertEqual(moved, [])
        totals = tracing.totals({"spans": tracer.spans, "counters": [
            [*key, *row] for key, row in tracer.counters.items()]})
        self.assertEqual(totals["expr.parse"][0], 1)
        self.assertEqual(totals["expr.taylor_lift"][0], 1)
        self.assertEqual(totals["sampling.halton_points"][0], 1)
        self.assertGreater(totals["series.mul"][0], 0)
        self.assertGreater(totals["series.mul"][3], 0)
        lift_id = next(s[0] for s in tracer.spans if s[3] == "expr.taylor_lift")
        self.assertTrue(any(key[1] == lift_id and key[2] == "series.mul"
                            for key in tracer.counters))


class MinimumRuns(unittest.TestCase):
    def check_metrics(self, res: dict, declared: list[dict]) -> None:
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()},
                         {m["name"]: m["unit"] for m in declared})

    def test_every_workload_emits_every_metric(self):
        for workload in run.WORKLOADS:
            for trace, declared in ((0, SPEC["end_to_end"]),
                                    (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench(workload, 5, trace)
                    res = result(proc)
                    self.check_metrics(res, declared)
                    self.assertTrue(res["correct"])
                    env = json.loads(proc.stdout.split("\n")[0][len("env "):])
                    self.assertEqual(env["op_seeds"], run.op_seeds(5))
                    self.assertEqual(env["env"]["threads"]["OPENBLAS_NUM_THREADS"],
                                     "1")
                    if workload == "closure":
                        # every op meets the schwarzian_invariance TypeError
                        self.assertEqual(res["failed"], res["attempted"])
                        self.assertIn("failure TypeError", proc.stdout)
                    else:
                        self.assertEqual(res["failed"], 0)

    def test_traced_counts_repeat_at_one_seed(self):
        runs = [result(bench("transport", 9, 1))["metrics"] for _ in range(2)]
        counts = [{k: v["value"] for k, v in m.items()
                   if k.endswith(".calls") or k == "series.mul.madds"}
                  for m in runs]
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["series.mul.calls"], 0)

    def test_refuses_to_run_without_sources(self):
        scratch = os.path.join(ROOT, ".perfbench")
        os.makedirs(scratch, exist_ok=True)
        bare = tempfile.mkdtemp(dir=scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "transport",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare)
            if not os.listdir(scratch):
                os.rmdir(scratch)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
