"""One benchmark process: build a workload's inputs, say `ready`, run it, and
print one JSON result line.

`run.py` starts this in a fresh interpreter with PYTHONPATH pointing at the
checkout's `src/` and BLAS pinned to one thread. The time from that start
to the `ready` line is the set-up time.

Untraced (the default), rounds run until their program time reaches
`--seconds`, in blocks timed against a fixed reference loop (see `timed`).
With `--trace`, a fixed number of rounds runs three times: once
untraced, then twice with every layer boundary traced (see tracing.py). The
traced passes must reproduce the untraced outputs bit for bit and repeat
each other's call counts exactly; their per-layer figures are the result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import slicemix  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from slicemix import pipeline as pl  # noqa: E402
from tracing import Tracer  # noqa: E402

US, MS = 1e6, 1e3
CLI_REPEATS = 5
REF_ITERS = 1600         # about 20 ms of reference loop per sample
REF_SECOND = 100_000     # reference iterations in one reference second
BLOCK_S = 0.5            # program time between two reference samples
CLI_PLAN = ("plan", "--width", "1371", "--height", "642")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _percentile_ms(samples, q: int):
    """The q-th percentile in ms, or None unless ten samples lie beyond it."""
    if len(samples) * (100 - q) / 100 < 10:
        return None
    return float(np.percentile(samples, q)) * MS


def reference_rate() -> float:
    """Iterations per second of a fixed loop of the small numpy calls and
    Python bookkeeping the program is made of. It never calls the program,
    so its rate moves only with the host: other tenants on this shared
    machine change both rates by up to 3x within a minute, and together."""
    a = np.linspace(-1.0, 1.0, 72).reshape(9, 8)
    w = np.full((8, 8), 0.125)
    t0 = time.perf_counter()
    for i in range(REF_ITERS):
        s = a @ w
        e = np.exp(s - s.max(axis=1, keepdims=True))
        e /= e.sum(axis=1, keepdims=True)
        rows = {"w": e, "k": [i, i + 1, i + 2]}
        sorted(rows["k"] * 3)
    return REF_ITERS / (time.perf_counter() - t0)


def _verify(wl, k: int, output, first: dict, check: bool) -> str:
    """Check a round that meets its input for the first time (when `check`
    is set); compare any later one bit for bit with the first. Returns the
    round's digest."""
    slot = k % wl.pool_size()
    if check and slot not in first:
        wl.check(k, output)
    d = wl.digest(output)
    checks.require(first.setdefault(slot, d) == d,
                   f"round {k} did not reproduce the outputs of round {slot}")
    return d


def _run_pass(wl, first: dict, n_rounds: int, check=False) -> dict:
    """Rounds 0 .. n_rounds-1, each verified as it ends."""
    ops = seconds = 0.0
    digests = []
    for k in range(n_rounds):
        r = wl.round(k)
        ops += r.ops
        seconds += r.seconds
        digests.append(_verify(wl, k, r.output, first, check))
    return {"ops": int(ops), "seconds": seconds, "digests": digests}


def timed(wl, seconds: float) -> dict:
    """Blocks of rounds until the program time reaches `seconds` and the
    rounds fill whole cycles of the workload's kinds of round. A block runs
    rounds back to back for at least BLOCK_S of program time between two
    reference samples; its program time counts in reference seconds at the
    mean of the two. The block's rounds are checked after its second sample."""
    first, blocks, lat = {}, [], []
    rounds, ops, measured = 0, 0, 0.0
    while measured < seconds or rounds % wl.cycle:
        ref_before = reference_rate()
        block = []
        while sum(r.seconds for r in block) < BLOCK_S:
            block.append(wl.round(rounds + len(block)))
        ref_after = reference_rate()
        blocks.append({"ops": sum(r.ops for r in block),
                       "seconds": sum(r.seconds for r in block),
                       "ref_per_s": 0.5 * (ref_before + ref_after)})
        for r in block:
            _verify(wl, rounds, r.output, first, check=True)
            rounds += 1
            ops += r.ops
            measured += r.seconds
            lat.extend(r.latencies)
        del block, r   # a round's outputs can be large (10^5-row CSV text)
    rate = ops / measured
    ref_seconds = sum(b["seconds"] * b["ref_per_s"] for b in blocks) / REF_SECOND
    per_ref = ops / ref_seconds
    named = {wl.rate_name: {"value": rate, "unit": wl.rate_unit}}
    if lat:
        named[f"{wl.latency_name}_p50"] = {"value": float(np.median(lat)) * MS, "unit": "ms"}
        p90 = _percentile_ms(lat, 90)
        if p90 is not None:
            named[f"{wl.latency_name}_p90"] = {"value": p90, "unit": "ms"}
        named[f"{wl.latency_name}_samples"] = {"value": len(lat), "unit": "count"}
    return {"attempted": ops, "rounds": rounds, "measured_s": measured, "blocks": blocks,
            "ops_per_s": rate, "ops_per_ref_s": per_ref, "named": named,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


class RouteTally:
    """Kept tokens against compressed local tokens, over every route_tokens call."""

    def __init__(self):
        self.routes = self.candidates = self.kept = 0

    def wrap(self, fn):
        def route_tokens(z_v, *args, **kwargs):
            sel = fn(z_v, *args, **kwargs)
            self.routes += 1
            self.candidates += len(z_v)
            self.kept += int(np.size(sel.kept_indices))
            return sel
        return route_tokens

    def snapshot(self):
        return self.routes, self.candidates, self.kept


def layer_metrics(setup, run, routes) -> dict:
    """Per-layer figures: set-up layers from the traced input build, the rest
    from the first traced pass. Times per call are means; 0 means no calls."""
    images = run.n("pipeline.forward")

    def per_image(n):
        return n / images if images else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    n_routes, candidates, kept = routes
    gd_rows = run.n("bilinear.gd_trajectory") * workloads.GD_STEPS
    alt_rows = run.n("bilinear.alt_trajectory") * workloads.ALT_STEPS
    csv_rows = gd_rows + alt_rows + run.n("bilinear.to_csv")   # + the start row
    return {
        "slicing.plan_partition_us": setup.per_call("slicing.plan_partition", US),
        "slicing.make_global_view_ms": setup.per_call("slicing.make_global_view", MS),
        "slicing.extract_patches_ms": setup.per_call("slicing.extract_patches", MS),
        "slicing.self_s": setup.layer_self_s("slicing"),
        "adapters.global_fwd_us": run.per_call("adapters.global_fwd", US),
        "adapters.global_vjp_us": run.per_call("adapters.global_vjp", US),
        "adapters.global_fwd_calls_per_image": per_image(run.n("adapters.global_fwd")),
        "adapters.local_fwd_us": run.per_call("adapters.local_fwd", US),
        "adapters.local_fwd_calls_per_image": per_image(run.n("adapters.local_fwd")),
        "adapters.local_vjp_us": run.per_call("adapters.local_vjp", US),
        "adapters.local_vjp_calls_per_image": per_image(run.n("adapters.local_vjp")),
        "adapters.self_s": run.layer_self_s("adapters"),
        "numerics.calls_per_image": per_image(run.layer_calls("numerics")),
        "numerics.self_s": run.layer_self_s("numerics"),
        "routing.route_us": run.per_call("routing.route", US),
        "routing.apply_selection_us": run.per_call("routing.apply_selection", US),
        "routing.kept_per_candidate": ratio(kept, candidates),
        "routing.candidates_per_route": ratio(candidates, n_routes),
        "pipeline.images": images,
        "pipeline.forward_us": run.per_call("pipeline.forward", US),
        "pipeline.forward_self_us": ratio(run.self_s("pipeline.forward"), images) * US,
        "pipeline.backward_self_us": ratio(
            run.self_s("pipeline.batch_loss_and_grads"),
            run.n_under("pipeline.forward", "pipeline.batch_loss_and_grads")) * US,
        "pipeline.param_copy_us": run.per_call("pipeline.param_copy", US),
        "pipeline.params_vector_us": run.per_call("pipeline.params_vector", US),
        "pipeline.train_self_ms_per_step": ratio(
            run.self_s("pipeline.train"),
            run.n_under("pipeline.batch_loss_and_grads", "pipeline.train")) * MS,
        "pipeline.make_toy_task_s": setup.per_call("pipeline.make_toy_task", 1.0),
        "pipeline.task_build_self_s": setup.self_s("pipeline.make_toy_task"),
        "bilinear.gd_step_us": ratio(run.total_s("bilinear.gd_trajectory"), gd_rows) * US,
        "bilinear.alt_step_us": ratio(run.total_s("bilinear.alt_trajectory"), alt_rows) * US,
        "bilinear.to_csv_us_per_row": ratio(run.total_s("bilinear.to_csv"), csv_rows) * US,
    }


def cli_metrics() -> dict:
    """Import time of slicemix.cli and wall time of `python -m slicemix plan`,
    each the median over fresh interpreters."""
    snippet = ("import time; t = time.perf_counter(); import slicemix.cli; "
               "print(time.perf_counter() - t)")
    imports, colds = [], []
    for _ in range(CLI_REPEATS):
        out = subprocess.run([sys.executable, "-c", snippet], cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=60)
        imports.append(float(out.stdout))
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-m", "slicemix", *CLI_PLAN], cwd=ROOT,
                             check=True, capture_output=True, text=True, timeout=60)
        colds.append(time.perf_counter() - t0)
        plan = json.loads(out.stdout)
        checks.require((plan["m"], plan["n"]) == checks.brute_force_plan(
            int(CLI_PLAN[2]), int(CLI_PLAN[4]), 336, 6), "cli plan disagrees with enumeration")
    return {"cli.import_s": statistics.median(imports),
            "cli.cold_start_s": statistics.median(colds)}


def traced(wl, seed: int, spans_path: Path) -> dict:
    n = wl.trace_rounds
    first: dict = {}
    refs = [reference_rate()]
    base = _run_pass(wl, first, n, check=True)
    refs.append(reference_rate())
    tally = RouteTally()
    route_tokens = pl.route_tokens
    pl.route_tokens = tally.wrap(route_tokens)
    tracer = Tracer()
    tracer.install()
    wl.span = tracer.span
    try:
        m0 = tracer.mark()
        rebuilt = type(wl)(seed)
        checks.require(rebuilt.inputs_digest() == wl.inputs_digest(),
                       "inputs built under tracing differ from the untraced build")
        m1, r1 = tracer.mark(), tally.snapshot()
        refs.append(reference_rate())
        p1 = _run_pass(wl, first, n)
        refs.append(reference_rate())
        m2, r2 = tracer.mark(), tally.snapshot()
        p2 = _run_pass(wl, first, n)
        m3, r3 = tracer.mark(), tally.snapshot()
    finally:
        tracer.uninstall()
        pl.route_tokens = route_tokens
    for p in (p1, p2):
        checks.require(p["digests"] == base["digests"],
                       "traced outputs differ from the untraced outputs")
    run1, run2 = tracer.phase(m1, m2), tracer.phase(m2, m3)
    checks.require(run1.counts() == run2.counts() and
                   tuple(b - a for a, b in zip(r1, r2)) == tuple(b - a for a, b in zip(r2, r3)),
                   "per-layer call counts differ between the two traced passes")
    metrics = layer_metrics(tracer.phase(m0, m1), run1,
                            tuple(b - a for a, b in zip(r1, r2)))
    metrics.update(cli_metrics())
    # both passes in reference seconds, so the host's drift between them cancels
    metrics["trace.overhead_pct"] = (p1["seconds"] * (refs[2] + refs[3])
                                     / (base["seconds"] * (refs[0] + refs[1])) - 1.0) * 100.0
    tracer.save(spans_path, {"setup": (m0, m1), "pass1": (m1, m2), "pass2": (m2, m3)})
    return {"attempted": base["ops"] + p1["ops"] + p2["ops"], "rounds": 3 * n,
            "metrics": metrics, "calls": run1.counts(), "missing": tracer.missing,
            "untraced_s": base["seconds"], "traced_s": p1["seconds"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path, help="where a traced run saves its spans")
    args = ap.parse_args(argv)
    src = Path(slicemix.__file__).resolve().parent
    if src != (ROOT / "src" / "slicemix").resolve():
        print(f"worker: imported slicemix from {src}, not the checkout", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = {"correct": True, "errors": [], "failed": 0, "env": environment()}
    try:
        if args.trace:
            result.update(traced(wl, args.seed, args.spans))
        else:
            result.update(timed(wl, args.seconds))
    except checks.CheckError as exc:
        result.update(correct=False, errors=[str(exc)], attempted=0)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
