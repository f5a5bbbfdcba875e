"""Each benchmark check passes on the program's real output and fails on a
deliberately wrong one. The tracer's bookkeeping, and the runner's refusal
to run without the program's sources, are pinned too.

    python3 -m pytest perfbench/test_checks.py -q
"""

import copy
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import worker  # noqa: E402
from checks import CheckError  # noqa: E402
from tracing import Tracer  # noqa: E402
from slicemix import bilinear as bl  # noqa: E402
from slicemix import pipeline as pl  # noqa: E402
from slicemix import slicing as sl  # noqa: E402


@pytest.fixture(scope="module")
def hires():
    cfg = pl.PipelineConfig(sizes=(384, 512), n_train=3, n_eval=0)
    task = pl.make_toy_task(5, cfg)
    params = pl.init_params(task, 5)
    sample = task.train_set[0]
    pred, cache = pl.forward(sample, params, task, "full")
    return task, params, sample, pred, cache.selection


def test_plan_matches_enumeration_and_rejects_a_wrong_plan():
    for w, h in [(1371, 642), (96, 96), (500, 2000), (576, 384)]:
        plan = sl.plan_partition(w, h, base=96)
        checks.check_plan(w, h, 96, 6, plan)
        with pytest.raises(CheckError):
            checks.check_plan(w, h, 96, 6, replace(plan, m=plan.m % 6 + 1))


def test_tiles_count_and_shape():
    plan = sl.plan_partition(500, 300, base=96)
    tiles = sl.extract_patches(np.random.default_rng(0).random((300, 500)), plan)
    checks.check_tiles(tiles, plan)
    with pytest.raises(CheckError):
        checks.check_tiles(tiles[:-1], plan)
    with pytest.raises(CheckError):
        checks.check_tiles(tiles[:-1] + [tiles[-1][:, :-1]], plan)


def test_forward_recomputation(hires):
    task, params, sample, pred, sel = hires
    text, gamma = task.text_embed, task.cfg.gamma
    assert checks.check_forward(sample, params, text, gamma, pred, sel.kept_indices)
    with pytest.raises(CheckError):
        checks.check_forward(sample, params, text, gamma, pred * (1 + 1e-8), sel.kept_indices)
    with pytest.raises(CheckError):
        checks.check_forward(sample, params, text, gamma, pred, sel.kept_indices[:-1])
    for group, name in [("gate", "w_g"), ("mlp", "b1"), ("qf_global", "wk"), ("qf_local", "wv")]:
        wrong = copy.deepcopy(params)
        getattr(getattr(wrong, group), name).flat[0] += 1e-4
        with pytest.raises(CheckError):
            checks.check_forward(sample, wrong, text, gamma, pred, sel.kept_indices)


def test_prefix_is_minimal(hires):
    task, _, _, _, sel = hires
    gamma = task.cfg.gamma
    checks.check_prefix_minimal(sel, gamma)
    order = np.argsort(-sel.scores, kind="stable")
    longer = replace(sel, kept_indices=order[:sel.kept_indices.size + 1])
    with pytest.raises(CheckError):
        checks.check_prefix_minimal(longer, gamma)
    with pytest.raises(CheckError):
        checks.check_prefix_minimal(replace(sel, kept_indices=sel.kept_indices[:-1]), gamma)
    with pytest.raises(CheckError):
        checks.check_prefix_minimal(replace(sel, kept_indices=sel.kept_indices[::-1]), gamma)


def test_fd_checks():
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    x = np.array([0.3, -0.7])
    grad = a @ x
    h = checks.FD_STEP

    def f(p):
        return 0.5 * p @ a @ p
    fd = np.array([(f(x + h * e) - f(x - h * e)) / (2 * h) for e in np.eye(2)])
    checks.check_fd(fd, grad)
    with pytest.raises(CheckError):
        checks.check_fd(fd, grad + np.array([0.0, 2e-4]))
    with pytest.raises(CheckError):
        checks.check_fd(np.array([np.nan, 0.0]), grad)
    d = np.array([0.6, 0.8])
    checks.check_directional(f(x + h * d), f(x - h * d), grad, d)
    with pytest.raises(CheckError):
        checks.check_directional(f(x + h * d), f(x - h * d), grad * 1.001, d)


def _report(**kw):
    base = dict(mode="e2e", seed=0, steps=[(0, "e2e", 1.0), (1, "e2e", 0.5)],
                final_eval=0.4, only_global_eval=0.6, only_local_eval=0.7,
                config={"steps": [2]}, diverged=False)
    base.update(kw)
    return pl.RunReport(**base)


def test_train_report_checks():
    checks.check_train_report(_report(), init_eval=1.0)
    with pytest.raises(CheckError):
        checks.check_train_report(_report(diverged=True), init_eval=1.0)
    with pytest.raises(CheckError):
        checks.check_train_report(_report(steps=[(0, "e2e", 1.0), (1, "e2e", np.inf)]), 1.0)
    with pytest.raises(CheckError):
        checks.check_train_report(_report(steps=[(0, "e2e", 1.0)]), 1.0)
    with pytest.raises(CheckError):
        checks.check_train_report(_report(final_eval=1.2), init_eval=1.0)
    checks.check_close(1.0, 1.0 + 1e-12, 1e-9, "x")
    with pytest.raises(CheckError):
        checks.check_close(1.0, 1.0 + 1e-6, 1e-9, "x")


def test_train_eval_recomputation_matches_the_program():
    cfg = pl.PipelineConfig(n_train=3, n_eval=3)
    task = pl.make_toy_task(2, cfg)
    params = pl.init_params(task, 2)
    ref = checks.ref_eval_loss(task.eval_set, params, task.text_embed, cfg.gamma)
    checks.check_close(pl.evaluate(params, task), ref, 1e-12, "eval")
    for mode in ("global_only", "local_only"):
        ref = checks.ref_eval_loss(task.eval_set, params, task.text_embed, cfg.gamma, mode)
        checks.check_close(pl.evaluate(params, task, mode), ref, 1e-12, mode)


@pytest.fixture(scope="module")
def traces():
    inst = bl.make_instance(d=16, c=0.4, seed=3)
    gd = bl.run_experiment(inst, init="antisym", method="gd", steps=100_000,
                           eta=0.01, stop_tol=None)
    alt = bl.run_experiment(inst, init="generic", method="alternating", steps=300,
                            stop_tol=None)
    return inst, gd, alt


def test_bilinear_limits(traces):
    inst, gd, alt = traces
    checks.check_gd_trace(gd, inst.c)
    checks.check_alt_trace(alt, inst.x)
    with pytest.raises(CheckError):
        checks.check_gd_trace(gd, inst.c + 1e-3)
    with pytest.raises(CheckError):
        checks.check_gd_trace(replace(gd, norm_u=gd.norm_u * 1.0001), inst.c)
    with pytest.raises(CheckError):
        checks.check_alt_trace(gd, inst.x)
    with pytest.raises(CheckError):
        checks.check_alt_trace(alt, inst.x * 1.001)


def test_best_rank1_residual_matches_svd_truncation():
    x = bl.make_instance(d=8, c=0.7, seed=1).x
    u, s, vt = np.linalg.svd(x)
    r = x - s[0] * np.outer(u[:, 0], vt[0])
    assert checks.best_rank1_residual(x) == pytest.approx(0.5 * np.sum(r * r), abs=1e-12)


def test_csv_rows_and_last_loss(traces):
    _, _, alt = traces
    csv = alt.to_csv()
    checks.check_csv(csv, alt, 300)
    lines = csv.splitlines(keepends=True)
    with pytest.raises(CheckError):
        checks.check_csv("".join(lines[:-1]), alt, 300)
    with pytest.raises(CheckError):
        checks.check_csv(csv, alt, 301)
    tampered = lines[-1].rsplit(",", 1)[0] + ",0.125\n"
    with pytest.raises(CheckError):
        checks.check_csv("".join(lines[:-1]) + tampered, alt, 300)


def test_tracer_self_time_counts_and_missing_names():
    import time
    import types

    mod = types.ModuleType("fake")

    def inner():
        time.sleep(0.002)

    def outer():
        mod.inner()
        mod.inner()
    mod.inner, mod.outer = inner, outer
    sys.modules["fake"] = mod
    try:
        tr = Tracer()
        tr.install([("fake", "outer", "a.outer"), ("fake", "inner", "b.inner"),
                    ("fake", "gone", "c.gone")])
        m0 = tr.mark()
        mod.outer()
        ph = tr.phase(m0, tr.mark())
        tr.uninstall()
    finally:
        del sys.modules["fake"]
    assert mod.outer is outer and mod.inner is inner
    assert ph.n("a.outer") == 1 and ph.n("b.inner") == 2 and ph.n("c.gone") == 0
    assert ph.n_under("b.inner", "a.outer") == 2
    assert ph.self_s("a.outer") == pytest.approx(ph.total_s("a.outer") - ph.total_s("b.inner"))
    assert ph.self_s("a.outer") < ph.total_s("b.inner")
    assert tr.missing == ["fake.gone"]


def test_per_layer_names_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    tr = Tracer()
    empty = tr.phase(0, 0)
    names = set(worker.layer_metrics(empty, empty, (0, 0, 0)))
    names |= {"cli.import_s", "cli.cold_start_s", "trace.overhead_pct"}
    assert names == {m["name"] for m in doc["per_layer"]}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bilinear",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


class _Flaky:
    """A workload whose second visit to an input gives another output."""

    def __init__(self):
        self.calls = 0

    def pool_size(self):
        return 1

    def round(self, k):
        import workloads
        self.calls += 1
        return workloads.Round(1, 1e-3, self.calls)

    def check(self, k, output):
        pass

    def digest(self, output):
        return str(output)


def test_a_round_that_does_not_reproduce_its_input_fails():
    with pytest.raises(CheckError):
        worker._run_pass(_Flaky(), {}, 2, check=True)


def test_gradcheck_workload_rejects_a_wrong_gradient():
    import workloads
    wl = workloads.Gradcheck(0)
    out = wl.round(0).output
    wl.check(0, out)
    fd, grad = out
    bad = grad.copy()
    bad[np.argmax(np.abs(bad))] *= 1.01
    with pytest.raises(CheckError):
        wl.check(0, (fd, bad))
