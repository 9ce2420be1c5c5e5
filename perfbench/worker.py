"""One measured benchmark process; started by run.py, never by hand.

Set-up is everything before the first timed instance: interpreter start,
imports, input generation and one untimed warm-up instance.  The timed loop
then runs the instance list in order, one instance at a time, and stops at
the end of the first whole cycle of instance kinds after the time budget,
so every run measures the kinds in the same proportions.  The last line of
standard output is a JSON object for run.py.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import mmap
import os
import resource
import statistics
import sys
import time
import warnings
from collections import Counter
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402  (needs the path above)

# The reference computation timed between instances (see Run): its size,
# how often it runs, how many timings on each side of an instance give its
# host speed, and its nominal time (about its median on the 2-core host the
# benchmark was defined on).
REFERENCE_REPS = 2
REFERENCE_EVERY_S = 0.2
REFERENCE_NEAREST = 3
REFERENCE_NOMINAL_S = 0.0021

# Instance kinds repeat with this period in each list (see workloads.py).
CYCLE = {"membership": 60, "inclusion": 9, "thresholds": 20, "scaling": 3}

# Fixed per workload so that runs and commits compare the same percentile:
# the highest percentile with at least ten instances beyond it at the rates
# measured on a 2-core host for a 20 s run.  Thresholds uses p90, not p95:
# one pair in 20 is at level 3 and 40x slower, so p95 sits on the edge
# between the two levels and jumps between them from run to run.
TAIL_PERCENTILE = {"membership": 95, "inclusion": 95, "thresholds": 90, "scaling": 50}


def _percentile(values: list[float], pct: float) -> float:
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _reference_work(mats, vec) -> float:
    """Fixed work unrelated to freespec: small LAPACK calls, an interpreter
    loop, and whole-array arithmetic into newly mapped pages.  The library's
    large temporaries also land on new pages.  The pages come from mmap
    rather than the allocator, whose reuse of freed memory depends on what
    the program under test left behind."""
    acc = 0.0
    for _ in range(REFERENCE_REPS):
        for m in mats:
            w, v = np.linalg.eigh(m)
            acc += float((v @ np.diag(w) @ v.T)[0, 0])
        d: dict[int, int] = {}
        for i in range(300):
            d[i % 17] = d.get(i % 17, 0) + i
        with mmap.mmap(-1, vec.nbytes) as pages:
            buf = np.frombuffer(pages, dtype=vec.dtype)
            np.multiply(vec, vec, out=buf)
            np.subtract(buf, vec, out=buf)
            acc += float(buf.max())
            del buf
    return acc


class Run:
    """Outcomes, latencies and gate problems of one pass over instances.

    Between instances, at most every REFERENCE_EVERY_S, the run times a
    fixed reference computation.  Other tenants of the host change its
    speed by up to a fifth for tens of seconds at a time; the reference
    slows with it, so latencies scaled by the reference's nominal over
    measured time compare across runs.
    """

    def __init__(self, workload: str, instances, tracer=None):
        self.workload = workload
        self.instances = instances
        self.tracer = tracer
        self.verdicts: list[str] = []
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.reference_at: list[float] = []
        self.reference: list[float] = []
        self.unknown = 0
        self.errors = 0
        self.problems: list[str] = []
        rng = np.random.default_rng(12345)
        self._mats = [a + a.T for a in rng.standard_normal((8, 6, 6))]
        self._vec = rng.standard_normal(1 << 17)

    def time_reference(self) -> None:
        """The faster of two back-to-back timings: the first one after an
        instance also pays for refilling the caches the instance evicted."""
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            _reference_work(self._mats, self._vec)
            times.append(time.perf_counter() - t0)
        self.reference.append(min(times))
        self.reference_at.append(t0)

    def step(self, i: int) -> None:
        inst = self.instances[i % len(self.instances)]
        if self.tracer is not None:
            self.tracer.instance = i
        t0 = time.perf_counter()
        out = workloads.run_instance(self.workload, inst)
        self.latencies.append(time.perf_counter() - t0)
        self.starts.append(t0)
        if self.tracer is not None:
            self.tracer.instance = None
        self.verdicts.append(out.verdict)
        self.unknown += not out.definitive
        self.errors += out.verdict.startswith("Error:")
        self.problems += [f"instance {inst.index} ({inst.kind}): {p}" for p in workloads.gate(inst, out)]

    def measure(self, seconds: float = 0.0, count: Optional[int] = None) -> "Run":
        """``count`` instances, or whole cycles of instance kinds until
        ``seconds`` have passed."""
        cycle = CYCLE[self.workload]
        start = last_ref = time.perf_counter()
        self.time_reference()
        i = 0
        while (i < count) if count else (i == 0 or i % cycle or time.perf_counter() - start < seconds):
            self.step(i)
            i += 1
            if time.perf_counter() - last_ref >= REFERENCE_EVERY_S:
                self.time_reference()
                last_ref = time.perf_counter()
        self.time_reference()
        return self

    @property
    def speed(self) -> float:
        """Host speed relative to nominal over the whole run."""
        return REFERENCE_NOMINAL_S / statistics.median(self.reference)

    def scaled_latencies(self) -> list[float]:
        """Each latency times the host speed around it: nominal over the
        median of the nearest reference timings on either side."""
        out = []
        k = REFERENCE_NEAREST
        for t0, lat in zip(self.starts, self.latencies):
            j = bisect.bisect_left(self.reference_at, t0)
            near = self.reference[max(0, j - k):j + k]
            out.append(lat * REFERENCE_NOMINAL_S / statistics.median(near))
        return out

    def end_to_end(self) -> dict:
        raw = self.latencies
        lat = self.scaled_latencies()
        n = len(lat)
        pct = TAIL_PERCENTILE[self.workload]
        tail = _percentile(lat, pct)
        return {
            "instances_per_s": n / sum(lat),
            "latency_p50_ms": 1e3 * _percentile(lat, 50),
            "latency_tail_ms": 1e3 * tail,
            "raw": {
                "instances_per_s": n / sum(raw),
                "latency_p50_ms": 1e3 * _percentile(raw, 50),
                "latency_tail_ms": 1e3 * _percentile(raw, pct),
            },
            "host_speed": self.speed,
            "definitive_frac": 1.0 - self.unknown / n,
            "unknown_frac": self.unknown / n,
            "tail_percentile": pct,
            "tail_beyond": sum(1 for x in lat if x > tail),
            "n": n,
        }


def _blas() -> dict:
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {"vendor": vendor, "threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _git_commit():
    """The checkout's commit from .git, without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def record(workload: str, seed: int, instances, digest: str) -> dict:
    import scipy

    from freespec import _kernels

    return {
        "machine": {"nproc": os.cpu_count(), "python": sys.version.split()[0],
                    "numpy": np.__version__, "scipy": scipy.__version__, "blas": _blas(),
                    "kernel_backend": _kernels.backend_name()},
        "commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "list_length": len(instances),
        "input_digest": digest,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--instances", type=int, help="run exactly this many instances")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before starting this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", type=Path)
    args = ap.parse_args(argv)
    # LinearPencil warns on dependent matrices, which every commuting target
    # with fewer slots than variables has; the warning is expected here.
    warnings.simplefilter("ignore", UserWarning)

    instances = workloads.generate(args.workload, args.seed, args.instances)
    warm = workloads.run_instance(args.workload, instances[0])
    problems = workloads.gate(instances[0], warm)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"setup_s": setup_s}
    if args.trace == 0:
        plain = Run(args.workload, instances).measure(args.seconds, args.instances)
        result["end_to_end"] = plain.end_to_end()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from tracing import Tracer

        # untraced, then the same instances traced: the difference is the
        # tracing overhead, and the verdicts must agree
        plain = Run(args.workload, instances).measure(args.seconds / 2, args.instances)
        tracer = Tracer(extra_modules=[workloads])
        tracer.install()
        try:
            traced = Run(args.workload, instances, tracer).measure(count=len(plain.verdicts))
        finally:
            tracer.uninstall()
        wall = sum(traced.latencies)
        per_layer = tracer.metrics(wall, len(traced.latencies))
        per_layer["trace.overhead_frac"] = (
            (wall * traced.speed) / (sum(plain.latencies) * plain.speed) - 1.0)
        per_layer["unknown_frac"] = traced.unknown / len(traced.latencies)
        result["per_layer"] = per_layer
        result["end_to_end"] = plain.end_to_end()
        if traced.verdicts != plain.verdicts:
            diff = sum(a != b for a, b in zip(traced.verdicts, plain.verdicts))
            problems.append(f"traced verdicts differ from untraced on {diff} instances")
        problems += traced.problems
        if args.out_dir is not None:
            args.out_dir.mkdir(parents=True, exist_ok=True)
            tracer.write(args.out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    problems += plain.problems
    result["record"] = record(args.workload, args.seed, instances, workloads.input_digest(instances))
    result["verdicts"] = plain.verdicts
    result["unknown_groups"] = Counter(
        workloads.unknown_group(v) for v in plain.verdicts if v.startswith(("Unknown", "Error")))
    result["errors"] = plain.errors
    result["problems"] = problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
