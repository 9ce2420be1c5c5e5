"""Self-test of the benchmark, in quick mode (a few instances per workload).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the correctness gate trips on a planted bad certificate and a planted
wrong answer, that a seed fixes the inputs, verdicts and exact counts, and
that the command fails without a result where there are no sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

QUICK = {"membership": 6, "inclusion": 6, "thresholds": 6, "scaling": 3}


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--instances", str(QUICK[workload])],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_record(workload: str, seed: int, trace: int) -> dict:
    return json.loads((HERE / "out" / f"run-{workload}-seed{seed}-trace{trace}.json").read_text())


class MetricsPrinted(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def check(self, trace: int, section: str) -> None:
        want = {m["name"]: m["unit"] for m in self.spec[section]}
        for w in workloads.RUNNERS:
            with self.subTest(workload=w):
                proc = bench(w, 0, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                res = last_json(proc)
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, want)
                for name, unit in want.items():
                    self.assertIn(f"{name} = ", proc.stdout)
                    self.assertRegex(proc.stdout, rf"(?m)^{name} = \S+ {unit}$")

    def test_end_to_end(self):
        self.check(0, "end_to_end")

    def test_per_layer(self):
        self.check(1, "per_layer")


class Gate(unittest.TestCase):
    def member_instance(self):
        inst = next(i for i in workloads.generate("membership", 0, 12)
                    if i.expect == "Member" and "rescaled" not in i.kind)
        out = workloads.run_instance("membership", inst)
        self.assertEqual(out.verdict, "Member")
        self.assertEqual(workloads.gate(inst, out), [])
        return inst, out

    def test_planted_bad_certificate_trips(self):
        inst, out = self.member_instance()
        w = out.cert["weights"][0]
        out.cert["weights"][0] = [[[2.0 * re + 1.0, im] for re, im in row] for row in w]
        problems = workloads.gate(inst, out)
        self.assertTrue(any("rejected" in p for p in problems), problems)

    def test_planted_wrong_answer_trips(self):
        inst, out = self.member_instance()
        out.verdict = "NotMember"
        self.assertTrue(workloads.gate(inst, out))

    def test_wrong_threshold_order_trips(self):
        inst = workloads.generate("thresholds", 0, 1)[0]
        out = workloads.run_instance("thresholds", inst)
        self.assertEqual(workloads.gate(inst, out), [])
        out.values["lambda2"] = out.values["lambda1"] + 1e-6
        self.assertTrue(workloads.gate(inst, out))

    def test_unknown_is_not_wrong(self):
        inst, _ = self.member_instance()
        self.assertEqual(workloads.gate(inst, workloads.Outcome("Unknown: x", False)), [])


class Determinism(unittest.TestCase):
    def test_same_seed_same_run_other_seed_other_inputs(self):
        recs = []
        for seed in (0, 0, 1):
            proc = bench("membership", seed, 1)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            rec = run_record("membership", seed, 1)
            recs.append((rec["input_digest"], rec["verdict_digest"],
                         rec["metrics"]["sdp.solve.iters"]["value"],
                         rec["metrics"]["kernels.eigh.calls"]["value"]))
        self.assertEqual(recs[0], recs[1])
        self.assertNotEqual(recs[0][0], recs[2][0])

    def test_generation_is_seeded(self):
        for w in workloads.RUNNERS:
            a = workloads.input_digest(workloads.generate(w, 5, 4))
            b = workloads.input_digest(workloads.generate(w, 5, 4))
            c = workloads.input_digest(workloads.generate(w, 6, 4))
            self.assertEqual(a, b)
            self.assertNotEqual(a, c)


class Wrapping(unittest.TestCase):
    def test_names_bound_elsewhere_are_patched_and_restored(self):
        import tracing
        from freespec import containment, opsys

        original = opsys.min_membership
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(opsys.min_membership, original)
            self.assertIs(containment.min_membership, opsys.min_membership)
        finally:
            tracer.uninstall()
        self.assertIs(opsys.min_membership, original)
        self.assertIs(containment.min_membership, original)

    def test_missing_wrap_point_is_left_out(self):
        import tracing

        saved = tracing.WRAP_POINTS
        tracing.WRAP_POINTS = saved + (("gone.fn", "freespec.opsys", "no_such_function", None),
                                       ("gone.mod", "freespec.no_such_module", "f", None))
        tracer = tracing.Tracer()
        try:
            tracer.install()
        finally:
            tracer.uninstall()
            tracing.WRAP_POINTS = saved
        self.assertNotIn("gone.fn", tracer.wrapped)
        self.assertFalse(any(k.startswith("gone.") for k in tracer.metrics(1.0, 1)))


class BareDirectory(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench("membership", 0, 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
