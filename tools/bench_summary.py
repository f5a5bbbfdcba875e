"""Summarize perfbench over many seeds: one BENCH_<label>.json per checkout.

    python3 tools/bench_summary.py --label pr17 --seeds 1,2,3,4,5
    python3 tools/bench_summary.py --label old --checkout ../old --commit 5da7475 --seeds 1,2

For each seed and each workload of the checkout's BENCHMARK.json, it runs
the checkout's `perfbench/run.py --trace 0` for `run_seconds`, one run at a
time; the checkout defaults to this one. It writes, to BENCH_<label>.json at
the root of this repository, the median and quartiles of each end-to-end
metric per workload over its correct runs, each run's figures and load
average, and the machine facts perfbench records. Quartiles are
`statistics.quantiles(..., method="inclusive")`: with 5 runs, q1 and q3 are
the 2nd and 4th values in order.

The standard library only; each run is waited for before the next starts.
"""

from __future__ import annotations

import argparse
import datetime
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("env", "nproc", "affinity", "platform")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its result line and its full record, or the error."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return {"seed": seed, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    record, line = json.loads(lines[-2]), json.loads(lines[-1])
    run = {"seed": seed, "correct": line["correct"], "attempted": line["attempted"],
           "failed": line["failed"],
           **{name: m["value"] for name, m in line["metrics"].items()},
           "loadavg_before": record["loadavg_before"], "loadavg_after": record["loadavg_after"]}
    return {**run, "machine": {key: record.get(key) for key in MACHINE_KEYS}}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Median, quartiles and count of each end-to-end metric over the correct runs."""
    out = {}
    for m in metrics:
        values = sorted(r[m["name"]] for r in runs if r.get("correct") and m["name"] in r)
        if not values:
            continue
        q1, q3 = (statistics.quantiles(values, n=4, method="inclusive")[::2]
                  if len(values) > 1 else (values[0], values[0]))
        out[m["name"]] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                          "n": len(values), "unit": m["unit"], "better": m["better"]}
    return out


def commit_of(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                          capture_output=True, text=True)
    return (proc.stdout.strip() or None) if proc.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    ap.add_argument("--seeds", required=True, help="comma-separated perfbench seeds")
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="the tree whose perfbench runs (default: this one)")
    ap.add_argument("--commit", help="what the checkout holds (default: its `git describe`)")
    args = ap.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        ap.error(f"--label must be letters, digits, '.', '_' or '-', got {args.label!r}")
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
        spec = json.loads((args.checkout / "BENCHMARK.json").read_text())
    except (ValueError, OSError) as exc:
        ap.error(str(exc))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    started = datetime.datetime.now(datetime.timezone.utc)
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            run = run_once(args.checkout, w, seed, seconds)
            runs[w].append(run)
            print(f"{w} seed {seed}: " + (run.get("error") or json.dumps(
                {m["name"]: run.get(m["name"]) for m in spec["end_to_end"]})),
                file=sys.stderr, flush=True)
    machines = [r.pop("machine") for rs in runs.values() for r in rs if "machine" in r]
    doc = {
        "label": args.label,
        "commit": args.commit or commit_of(args.checkout),
        "started_utc": started.isoformat(timespec="seconds"),
        "finished_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "seconds": seconds,
        "seeds": seeds,
        "machine": machines[0] if machines else None,
        "machine_varied": any(m != machines[0] for m in machines),
        "workloads": {w: {"summary": summarize(rs, spec["end_to_end"]),
                          "incorrect_runs": sum(not r.get("correct") for r in rs),
                          "runs": rs} for w, rs in runs.items()},
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out.name)
    return 0 if all(d["incorrect_runs"] == 0 for d in doc["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
