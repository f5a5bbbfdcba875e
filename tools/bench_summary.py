"""Summarize perfbench over many seeds: one BENCH_<label>.json per checkout.

    python3 tools/bench_summary.py --label pr17 --seeds 1,2,3,4,5
    python3 tools/bench_summary.py --label old --checkout ../old --commit 5da7475 --seeds 1,2
    python3 tools/bench_summary.py --label pr26 --against ../parent --seeds 11,12,13

For each seed and each workload of the checkout's BENCHMARK.json, it runs
the checkout's `perfbench/run.py --trace 0` for `run_seconds`, one run at a
time; the checkout defaults to this one. It writes, to BENCH_<label>.json at
the root of this repository, the median and quartiles of each end-to-end
metric per workload over its correct runs, each run's figures and load
average, and the machine facts perfbench records. Quartiles are
`statistics.quantiles(..., method="inclusive")`: with 5 runs, q1 and q3 are
the 2nd and 4th values in order.

With --against DIR (a parent checkout, such as a `git archive` copy), each
seed and workload runs on both trees, the parent first on the 1st, 3rd, ...
seed and the checkout first on the others, and the parent's runs go to
BENCH_<label>-parent.json. Then stdout gets one strict-JSON verdict per
workload and metric: the pairs (one seed, both runs correct) the change won
and lost, ties counting for neither; both medians; the parent's quartile
spread q3 - q1; `gain`, whether the change won at least nine tenths of the
pairs and its median beats the parent's by more than that spread; and
`within_bound`, whether its median is worse than the parent's by no more
than the metric's bound (a fraction of the parent's median).

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


def verdicts(parent: dict, change: dict, metrics: list[dict]) -> list[dict]:
    """Each workload's and metric's pairs won and lost, medians and spread."""
    out = []
    for w, parent_runs in parent.items():
        p_sum, c_sum = summarize(parent_runs, metrics), summarize(change[w], metrics)
        for m in metrics:
            name = m["name"]
            if name not in p_sum or name not in c_sum:
                continue
            sign = 1.0 if m["better"] == "higher" else -1.0
            gaps = [sign * (c[name] - p[name]) for p, c in zip(parent_runs, change[w])
                    if p.get("correct") and c.get("correct") and name in p and name in c]
            won, lost = sum(g > 0 for g in gaps), sum(g < 0 for g in gaps)
            p_med, c_med = p_sum[name]["median"], c_sum[name]["median"]
            spread = p_sum[name]["q3"] - p_sum[name]["q1"]
            out.append({"workload": w, "metric": name, "better": m["better"],
                        "pairs": len(gaps), "won": won, "lost": lost,
                        "parent_median": p_med, "change_median": c_med,
                        "parent_spread": spread,
                        "gain": bool(gaps) and won >= 0.9 * len(gaps)
                        and sign * (c_med - p_med) > spread,
                        "within_bound": -sign * (c_med - p_med) <= m["bound"] * abs(p_med)})
    return out


def document(label: str, commit, seeds: list[int], seconds, runs: dict, metrics: list[dict],
             started: datetime.datetime) -> dict:
    """One checkout's BENCH_<label>.json content; pops each run's machine facts."""
    machines = [r.pop("machine") for rs in runs.values() for r in rs if "machine" in r]
    return {
        "label": label,
        "commit": commit,
        "started_utc": started.isoformat(timespec="seconds"),
        "finished_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "seconds": seconds,
        "seeds": seeds,
        "machine": machines[0] if machines else None,
        "machine_varied": any(m != machines[0] for m in machines),
        "workloads": {w: {"summary": summarize(rs, metrics),
                          "incorrect_runs": sum(not r.get("correct") for r in rs),
                          "runs": rs} for w, rs in runs.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    ap.add_argument("--seeds", required=True, help="comma-separated perfbench seeds")
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="the tree whose perfbench runs (default: this one)")
    ap.add_argument("--commit", help="what the checkout holds (default: its `git describe`)")
    ap.add_argument("--against", type=Path, metavar="DIR",
                    help="a parent checkout to run in alternating pairs with this one")
    ap.add_argument("--parent-commit", help="what --against holds (default: its `git describe`)")
    args = ap.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        ap.error(f"--label must be letters, digits, '.', '_' or '-', got {args.label!r}")
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
        spec = json.loads((args.checkout / "BENCHMARK.json").read_text())
        if args.against is not None and json.loads(
                (args.against / "BENCHMARK.json").read_text()) != spec:
            ap.error("--against declares another benchmark than the checkout")
    except (ValueError, OSError) as exc:
        ap.error(str(exc))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    # one side per tree; with a parent, the parent is the first side
    trees = [(args.label, args.commit, args.checkout)]
    if args.against is not None:
        trees.insert(0, (f"{args.label}-parent", args.parent_commit, args.against))
    sides = [{"label": label, "commit": commit or commit_of(tree), "tree": tree,
              "runs": {w: [] for w in workloads}} for label, commit, tree in trees]
    started = datetime.datetime.now(datetime.timezone.utc)
    for i, seed in enumerate(seeds):
        for w in workloads:
            for side in (sides if i % 2 == 0 else sides[::-1]):
                run = run_once(side["tree"], w, seed, seconds)
                side["runs"][w].append(run)
                print(f"{side['label']} {w} seed {seed}: " + (run.get("error") or json.dumps(
                    {m["name"]: run.get(m["name"]) for m in spec["end_to_end"]})),
                    file=sys.stderr, flush=True)
    docs = [document(side["label"], side["commit"], seeds, seconds, side["runs"],
                     spec["end_to_end"], started) for side in sides]
    for doc in docs:
        out = ROOT / f"BENCH_{doc['label']}.json"
        out.write_text(json.dumps(doc, indent=1) + "\n")
        print(out.name, file=sys.stderr if args.against is not None else sys.stdout)
    if args.against is not None:
        for v in verdicts(sides[0]["runs"], sides[1]["runs"], spec["end_to_end"]):
            print(json.dumps(v, allow_nan=False))
    return 0 if all(d["incorrect_runs"] == 0 for doc in docs
                    for d in doc["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
