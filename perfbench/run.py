"""slicemix benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
Workloads: train, gradcheck, infer-hires, bilinear (see README.md).

With `--trace 0` the last stdout line carries the end-to-end metrics:
`ops_per_ref_s` (the workload's operations per second of a fixed reference
loop's time, which cancels the shared host's drift; see README.md),
`setup_s` (fresh interpreter to the first timed operation: the median over
SETUP_SAMPLES interpreters) and `peak_rss_mib`. With `--trace 1` it carries the per-layer metrics from a
traced run. The line before it is the full record: machine facts, load
average before and after, the workload's named metrics with their units,
and any failed check. The record is also written under perfbench/out/.

This file uses the standard library only; every worker it starts is waited
for before it exits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("train", "gradcheck", "infer-hires", "bilinear")
SETUP_SAMPLES = 3        # fresh interpreters timed to `ready` per run
DEADLINE_S = 170.0       # the whole run, workers included


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one BLAS thread: the workloads are one closed loop each on a 2-core box
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Worker:
    """A worker process; `ready()` returns the seconds from its start to its
    `ready` line, `finish()` its result, and the process is always reaped."""

    def __init__(self, args: list[str], deadline: float):
        self.deadline = deadline
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, text=True)

    def ready(self) -> float:
        line = self.proc.stdout.readline()
        elapsed = time.perf_counter() - self.t0
        if line.strip() != "ready":
            self.finish()
            raise BenchError(f"worker did not get ready (exit {self.proc.returncode})")
        return elapsed

    def finish(self) -> dict | None:
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchError("worker ran past the deadline") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}")
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else None


def run(args, units: dict) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    load_before = os.getloadavg()
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            w = Worker(common + ["--setup-only"], deadline)
            setups.append(w.ready())
            w.finish()
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    w = Worker(common + ["--trace", str(args.trace), "--spans", str(spans)], deadline)
    setups.append(w.ready())
    res = w.finish()
    load_after = os.getloadavg()

    if not res["correct"]:
        metrics = {}
    elif args.trace:
        metrics = {name: {"value": v, "unit": units[name]} for name, v in res["metrics"].items()}
    else:
        metrics = {
            "ops_per_ref_s": {"value": res["ops_per_ref_s"], "unit": "op/ref_s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
        }
    line = {"correct": bool(res["correct"]), "attempted": max(1, int(res["attempted"])),
            "failed": int(res["failed"]), "metrics": metrics}
    record = dict(res, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=setups, nproc=os.cpu_count(),
                  affinity=len(os.sched_getaffinity(0)), platform=platform.platform(),
                  loadavg_before=load_before, loadavg_after=load_after)
    return line, record


def _units() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer"] + doc["end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "slicemix" / "__init__.py").is_file():
        print(f"perfbench: no slicemix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        line, record = run(args, _units())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
