"""Summarize perfbench on one or more heads over many seeds: one BENCH_<label>.json.

    python3 tools/bench_summary.py --label pr17 --seeds 1,2,3,4,5
    python3 tools/bench_summary.py --label pr26 --heads HEAD,. --seeds 11,12,13

--heads lists git revisions, oldest first; `.`, the default, is this working
tree, and each other head is extracted from `git archive` into a temporary
directory removed on exit. All must declare one BENCHMARK.json. Each seed and
workload runs `perfbench/run.py --trace 0` for `run_seconds` on every head,
one run at a time; seed i starts at head i mod N.

BENCH_<label>.json, at the root of this repository, holds each head's
revision and commit (`git rev-parse --short`, or `git describe --always
--dirty` for `.`), the median and quartiles (`statistics.quantiles(...,
method="inclusive")`) of each end-to-end metric per workload over its correct
runs, each run's figures and load average, and perfbench's machine facts.

It also holds, and prints as strict-JSON lines, each head's (the change's)
verdicts against the head before it (the parent) per workload and metric:
both commits; the pairs (one seed, both runs correct) the change won and lost,
ties counting for neither; both medians; the parent's spread q3 - q1; `gain`,
whether ten or more pairs ran, the change won nine tenths of the correct ones
and its median beats the parent's by more than that spread; and `within_bound`,
whether its median is worse by at most the bound times the parent's median.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("env", "nproc", "affinity", "platform")
MIN_PAIRS = 10   # pairs run before a gain can be read


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its result line and its full record, or the error."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
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


def git(*args: str) -> bytes:
    """A git command's stdout in this repository, or a ValueError naming its error."""
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True)
    if proc.returncode:
        raise ValueError(f"git {' '.join(args)}: {proc.stderr.decode().splitlines()[0]}")
    return proc.stdout


def checkout(rev: str, tree: Path) -> dict:
    """A head: its revision, commit, tree (extracted into `tree` unless `.`) and spec."""
    if rev == ".":
        commit, tree = git("describe", "--always", "--dirty").decode().strip(), ROOT
    else:
        commit = git("rev-parse", "--short", f"{rev}^{{commit}}").decode().strip()
        with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
            tar.extractall(tree, filter="data")
    return {"rev": rev, "commit": commit, "tree": tree, "runs": {},
            "spec": json.loads((tree / "BENCHMARK.json").read_text())}


def verdicts(parent: dict, change: dict, metrics: list[dict]) -> list[dict]:
    """Each workload's and metric's pairs won and lost, medians and spread."""
    out = []
    for w, parent_runs in parent["runs"].items():
        change_runs = change["runs"][w]
        p_sum, c_sum = summarize(parent_runs, metrics), summarize(change_runs, metrics)
        for m in metrics:
            name = m["name"]
            if name not in p_sum or name not in c_sum:
                continue
            sign = 1.0 if m["better"] == "higher" else -1.0
            gaps = [sign * (c[name] - p[name]) for p, c in zip(parent_runs, change_runs)
                    if p.get("correct") and c.get("correct") and name in p and name in c]
            won, lost = sum(g > 0 for g in gaps), sum(g < 0 for g in gaps)
            p_med, c_med = p_sum[name]["median"], c_sum[name]["median"]
            spread = p_sum[name]["q3"] - p_sum[name]["q1"]
            out.append({"parent": parent["commit"], "change": change["commit"],
                        "workload": w, "metric": name, "better": m["better"],
                        "pairs": len(gaps), "won": won, "lost": lost,
                        "parent_median": p_med, "change_median": c_med,
                        "parent_spread": spread,
                        "gain": len(parent_runs) >= MIN_PAIRS and bool(gaps)
                        and won >= 0.9 * len(gaps) and sign * (c_med - p_med) > spread,
                        "within_bound": -sign * (c_med - p_med) <= m["bound"] * abs(p_med)})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    ap.add_argument("--seeds", required=True, help="comma-separated perfbench seeds")
    ap.add_argument("--heads", default=".", help="git revisions, oldest first; `.` is this tree")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench_summary-") as scratch:
        try:
            if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
                raise ValueError(f"--label takes letters, digits, '.', '_' or '-': {args.label!r}")
            seeds = [int(s) for s in args.seeds.split(",")]
            heads = [checkout(rev, Path(scratch) / str(k))
                     for k, rev in enumerate(args.heads.split(","))]
            spec = heads[0]["spec"]
            other = [h["rev"] for h in heads if h["spec"] != spec]
            if other:
                raise ValueError(f"another benchmark than {heads[0]['rev']}'s: {', '.join(other)}")
        except (ValueError, OSError) as exc:
            ap.exit(2, f"{ap.prog}: error: {exc}\n")
        started = datetime.now(timezone.utc)
        for i, seed in enumerate(seeds):
            for w in (wl["name"] for wl in spec["workloads"]):
                for k in range(len(heads)):
                    head = heads[(i + k) % len(heads)]
                    run = run_once(head["tree"], w, seed, spec["run_seconds"])
                    head["runs"].setdefault(w, []).append(run)
                    print(f"{head['commit']} {w} seed {seed}: " + (run.get("error") or json.dumps(
                        {m["name"]: run.get(m["name"]) for m in spec["end_to_end"]})),
                        file=sys.stderr, flush=True)
    machines = [r.pop("machine") for h in heads for rs in h["runs"].values() for r in rs
                if "machine" in r]
    pairs = [v for p, c in zip(heads, heads[1:]) for v in verdicts(p, c, spec["end_to_end"])]
    doc = {
        "label": args.label,
        "started_utc": started.isoformat(timespec="seconds"),
        "finished_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seconds": spec["run_seconds"],
        "seeds": seeds,
        "machine": machines[0] if machines else None,
        "machine_varied": any(m != machines[0] for m in machines),
        "heads": [{"rev": h["rev"], "commit": h["commit"], "workloads": {
            w: {"summary": summarize(rs, spec["end_to_end"]),
                "incorrect_runs": sum(not r.get("correct") for r in rs), "runs": rs}
            for w, rs in h["runs"].items()}} for h in heads],
        "verdicts": pairs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out.name, file=sys.stderr)
    for v in pairs:
        print(json.dumps(v, allow_nan=False))
    return 0 if all(w["incorrect_runs"] == 0 for h in doc["heads"]
                    for w in h["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
