"""freespec benchmark: four seeded workloads through the library entry points.

    python3 perfbench/run.py --workload membership --seed 0 --seconds 20 --trace 0

Workloads (see README.md for why each exists):
  membership  opsys.min_membership, as `freespec min-membership`
  inclusion   containment.check_inclusion, as `freespec check-inclusion`
  thresholds  opsys.lambda1_block and lambda2_products, as `freespec comei`
  scaling     containment.scaling_bound, then its sandwich certificate

Every instance is decided, its certificate built and re-verified.  The load
is a closed loop with one client: one process, one instance at a time, with
BLAS limited to one thread.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs half the budget untraced and the same instances again
traced, and reports per-layer metrics.  The last line of standard output is
one JSON object; the exit code is 0 only if every answer was correct.
Default seed 0; held-out seed 1000003 for confirming a claim.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("membership", "inclusion", "thresholds", "scaling")
# Set-up is measured this many times, in separate processes, and the median
# reported; the measured run itself is one of them.
SETUP_SAMPLES = 3
# A run must end within this many seconds of its start.
DEADLINE_S = 170.0
BLAS_THREADS = "1"

END_TO_END_UNITS = {
    "instances_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "definitive_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith("_frac") or name == "trace.coverage":
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args: argparse.Namespace, deadline: float, extra: list[str]) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spawned-at", repr(time.monotonic())] + extra
    if args.instances:
        cmd += ["--instances", str(args.instances)]
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"benchmark worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instances", type=int,
                    help="run exactly this many instances instead of --seconds (quick mode)")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "freespec" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no freespec sources under {ROOT / 'src'}\n")
        return 2

    out_dir = HERE / "out"
    try:
        setups = []
        if args.trace == 0:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn(args, deadline, ["--setup-only"])["setup_s"])
        res = spawn(args, deadline, ["--out-dir", str(out_dir)])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    setups.append(res["setup_s"])

    e2e = res["end_to_end"]
    rec = res["record"]
    rec.update(
        trace=args.trace,
        instances_run=e2e["n"],
        tail_percentile=e2e["tail_percentile"],
        tail_beyond=e2e["tail_beyond"],
        unknown_frac=e2e["unknown_frac"],
        host_speed=e2e["host_speed"],
        unscaled=e2e["raw"],
        unknown_groups=res["unknown_groups"],
        setup_samples_s=setups,
        verdict_digest=hashlib.sha256("\n".join(res["verdicts"]).encode()).hexdigest(),
        errors=res["errors"],
        problems=res["problems"],
    )
    if args.trace == 0:
        values = {k: e2e[k] for k in END_TO_END_UNITS if k in e2e}
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = res["peak_rss_mb"]
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    else:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in sorted(res["per_layer"].items())}
    rec["metrics"] = metrics
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(rec, indent=1) + "\n")

    m = rec["machine"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"commit {rec['commit']}  inputs {rec['input_digest'][:16]}")
    print(f"machine: nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}, BLAS {m['blas']['vendor']} x{m['blas']['threads']}, "
          f"kernels {m['kernel_backend']}")
    print(f"instances: {e2e['n']} run of a list of {rec['list_length']}; "
          f"tail = p{e2e['tail_percentile']} ({e2e['tail_beyond']} beyond)")
    print(f"unknown_frac {e2e['unknown_frac']:.6f} ratio; errors {res['errors']}")
    print(f"host speed {e2e['host_speed']:.4f} of nominal; as timed: "
          + ", ".join(f"{k} {v:.6g}" for k, v in e2e["raw"].items()))
    for group, count in sorted(res["unknown_groups"].items()):
        print(f"  unknown x{count}: {group}")
    for k, v in metrics.items():
        print(f"{k} = {v['value']:.6g} {v['unit']}")
    for p in res["problems"]:
        print(f"WRONG: {p}")
    correct = not res["problems"]
    attempted = e2e["n"] * (2 if args.trace else 1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(res["problems"]) + res["errors"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
