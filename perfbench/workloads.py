"""The four workloads: inputs built from the seed, one timed round, and the
checks on each round's outputs.

Each workload is a closed loop with one caller in one process: a round
starts after the previous one has returned. The seed feeds the benchmark's
own numpy generator, which draws the seeds and sizes handed to the program;
the program sees only the generated inputs. Rounds cycle through a fixed
pool of inputs, so every round of a workload does the same kind of work and
a round that meets an input a second time must reproduce its first outputs
bit for bit.
"""

from __future__ import annotations

import copy
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

import checks
from tracing import NULL_SPAN
from slicemix import bilinear as bl
from slicemix import pipeline as pl
from slicemix import slicing as sl

clock = time.perf_counter


@dataclass
class Round:
    ops: int                 # operations the round completed
    seconds: float           # wall time of the program calls
    output: object           # what check() and digest() read
    latencies: list = field(default_factory=list)   # seconds per op, where timed


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode() if isinstance(p, str) else np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


def _tokens_digest(tasks) -> str:
    parts = []
    for task in tasks:
        for s in task.train_set + task.eval_set:
            parts.extend([s.global_tokens, s.target, *s.patch_tokens])
    return _digest(*parts)


def _patches(samples) -> int:
    return sum(len(s.patch_tokens) for s in samples)


class Workload:
    name = ""
    rate_name = ""           # the throughput's name in the README
    rate_unit = ""
    latency_name = ""        # per-op latency name, where each op is timed
    trace_rounds = 1         # rounds in each pass of a traced run
    cycle = 1                # a run's rounds come in whole multiples of this

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.span = lambda name: NULL_SPAN

    def inputs_digest(self) -> str:
        raise NotImplementedError

    def pool_size(self) -> int:
        raise NotImplementedError

    def round(self, k: int) -> Round:
        raise NotImplementedError

    def check(self, k: int, output) -> None:
        """Independent checks of a round that met its input for the first time."""
        raise NotImplementedError

    def digest(self, output) -> str:
        raise NotImplementedError


# -- train -------------------------------------------------------------------

TRAIN_TASKS = 4
# A training step's cost follows the patch count, and the default draw puts
# 89-117 patches (10th-90th percentile, median 104) in a task's 20 training
# images. Of TRAIN_CANDIDATES drawn tasks the ones nearest TRAIN_PATCHES are
# used, so the work per run does not depend on which sizes a seed draws, and
# set-up always builds the same number of tasks.
TRAIN_CANDIDATES = 12
TRAIN_PATCHES = 104
# At the default learning rate of 0.25 some tasks diverge, some of them
# after 170 steps (see CHANGES.md), so which runs diverge depends on the
# seed. The schedules here use TRAIN_LR; a step costs the same at any rate.
TRAIN_LR = 0.1
TRAIN_MODES = ("alternating", "e2e")


class Train(Workload):
    """pipeline.train, alternating and e2e schedules, 240 full-batch steps on
    default toy tasks with gate and router noise live, at TRAIN_LR."""

    name = "train"
    rate_name, rate_unit = "train_images_per_s", "images/s"
    trace_rounds = cycle = len(TRAIN_MODES)

    def __init__(self, seed: int):
        super().__init__(seed)
        drawn = [(pl.make_toy_task(int(task_seed)), int(schedule_seed)) for task_seed, schedule_seed
                 in self.rng.integers(2**31, size=(TRAIN_CANDIDATES, 2))]
        drawn.sort(key=lambda ts: abs(_patches(ts[0].train_set) - TRAIN_PATCHES))
        self.tasks = [task for task, _ in drawn[:TRAIN_TASKS]]
        self.schedule_seeds = [seed for _, seed in drawn[:TRAIN_TASKS]]

    def inputs_digest(self) -> str:
        return _tokens_digest(self.tasks) + str(self.schedule_seeds)

    def pool_size(self) -> int:
        return TRAIN_TASKS * len(TRAIN_MODES)

    def round(self, k: int) -> Round:
        i, m = divmod(k % self.pool_size(), len(TRAIN_MODES))
        task, seed = self.tasks[i], self.schedule_seeds[i]
        init, trained = pl.init_params, []

        def capture(task, seed):
            # train() keeps its parameters to itself; keep the ones it starts from
            params = init(task, seed)
            trained.append(params)
            return params
        pl.init_params = capture
        try:
            schedule = pl.default_schedule(TRAIN_MODES[m], seed=seed, lr=TRAIN_LR)
            t0 = clock()
            report = pl.train(schedule, task)
            seconds = clock() - t0
        finally:
            pl.init_params = init
        checks.require(len(trained) == 1, "train did not start from init_params")
        return Round(len(report.steps) * len(task.train_set), seconds, (i, report, trained[0]))

    def check(self, k: int, output) -> None:
        i, report, params = output
        task, seed = self.tasks[i], self.schedule_seeds[i]
        text, gamma = task.text_embed, task.cfg.gamma
        init_eval = checks.ref_eval_loss(task.eval_set, pl.init_params(task, seed), text, gamma)
        checks.check_train_report(report, init_eval)
        checks.check_close(report.final_eval,
                           checks.ref_eval_loss(task.eval_set, params, text, gamma),
                           1e-9, f"{report.mode} final eval")
        self._directional_check(task, params)

    def _directional_check(self, task, params) -> None:
        batch = task.train_set
        sels = [pl.forward(s, params, task, "full")[1].selection for s in batch]
        _, grads = pl.batch_loss_and_grads(batch, params, task, "full", fixed_selections=sels)
        point = pl.params_vector(params)
        direction = self.rng.standard_normal(point.size)
        direction /= np.linalg.norm(direction)
        vals = []
        for sign in (1.0, -1.0):
            p2 = copy.deepcopy(params)
            pl.set_params_vector(p2, point + sign * checks.FD_STEP * direction)
            vals.append(pl.batch_loss_and_grads(batch, p2, task, "full",
                                                fixed_selections=sels)[0])
        checks.check_directional(vals[0], vals[1], pl.params_vector(grads), direction)

    def digest(self, output) -> str:
        i, report, params = output
        return _digest(f"{i} {report.mode}", np.array([row[2] for row in report.steps]),
                       np.array([report.final_eval, report.only_global_eval,
                                 report.only_local_eval]),
                       pl.params_vector(params))


# -- gradcheck ---------------------------------------------------------------

GRAD_TASKS = 8
GRAD_CONFIG = dict(n_train=2, n_eval=1, sizes=(96, 128))   # criterion 08's task
# An evaluation's cost follows the patch count of the task's two images,
# which is 2-8 (4 in a quarter of the draws). Of GRAD_CANDIDATES drawn tasks
# the ones nearest GRAD_PATCHES are used, as for train.
GRAD_CANDIDATES = 48
GRAD_PATCHES = 4


class Gradcheck(Workload):
    """Criterion 08's central-difference loop over every pipeline parameter,
    with the router selection pinned and no noise; each evaluation deep-copies
    the parameters and loads the shifted vector, as that test does."""

    name = "gradcheck"
    rate_name, rate_unit = "fd_evals_per_s", "evaluations/s"
    latency_name = "fd_eval_ms"

    def __init__(self, seed: int):
        super().__init__(seed)
        cfg = pl.PipelineConfig(**GRAD_CONFIG)
        drawn = [(pl.make_toy_task(int(task_seed), cfg), int(param_seed)) for task_seed, param_seed
                 in self.rng.integers(2**31, size=(GRAD_CANDIDATES, 2))]
        drawn.sort(key=lambda tp: abs(_patches(tp[0].train_set) - GRAD_PATCHES))
        self.items = [(task, pl.init_params(task, seed)) for task, seed in drawn[:GRAD_TASKS]]

    def inputs_digest(self) -> str:
        return _tokens_digest([t for t, _ in self.items]) + _digest(
            *(pl.params_vector(p) for _, p in self.items))

    def pool_size(self) -> int:
        return GRAD_TASKS

    def round(self, k: int) -> Round:
        task, params = self.items[k % GRAD_TASKS]
        batch = task.train_set
        h = checks.FD_STEP
        lat = []
        t0 = clock()
        sels = [pl.forward(s, params, task, "full")[1].selection for s in batch]
        _, grads = pl.batch_loss_and_grads(batch, params, task, "full", fixed_selections=sels)
        point = pl.params_vector(params)
        fd = np.empty(point.size)
        for i in range(point.size):
            vals = []
            for sign in (1.0, -1.0):
                vec = point.copy()
                vec[i] += sign * h
                t = clock()
                with self.span("pipeline.param_copy"):
                    p2 = copy.deepcopy(params)
                    pl.set_params_vector(p2, vec)
                vals.append(pl.batch_loss_and_grads(batch, p2, task, "full",
                                                    fixed_selections=sels)[0])
                lat.append(clock() - t)
            fd[i] = (vals[0] - vals[1]) / (2.0 * h)
        seconds = clock() - t0
        return Round(2 * point.size, seconds, (fd, pl.params_vector(grads)), lat)

    def check(self, k: int, output) -> None:
        checks.check_fd(*output)

    def digest(self, output) -> str:
        return _digest(*output)


# -- infer-hires -------------------------------------------------------------

# 384-576 px sides at tile 96 plan 16-36 patches; all but 384x384 plan 20+.
HIRES_SIZES = (384, 416, 448, 480, 512, 544, 576)
HIRES_IMAGES = 48


class InferHires(Workload):
    """Forward-only evaluation (no generator) of high-resolution images."""

    name = "infer-hires"
    rate_name, rate_unit = "infer_images_per_s", "images/s"
    latency_name = "infer_image_ms"
    trace_rounds = 20

    def __init__(self, seed: int):
        super().__init__(seed)
        task_seed, param_seed = (int(s) for s in self.rng.integers(2**31, size=2))
        cfg = pl.PipelineConfig(sizes=HIRES_SIZES, n_train=HIRES_IMAGES, n_eval=0)
        self.task = pl.make_toy_task(task_seed, cfg)
        self.params = pl.init_params(self.task, param_seed)

    def inputs_digest(self) -> str:
        return _tokens_digest([self.task]) + _digest(pl.params_vector(self.params))

    def pool_size(self) -> int:
        return 1

    def round(self, k: int) -> Round:
        preds, sels, lat = [], [], []
        task, params = self.task, self.params
        t0 = clock()
        for s in task.train_set:
            t = clock()
            pred, cache = pl.forward(s, params, task, "full")
            lat.append(clock() - t)
            preds.append(pred)
            sels.append(cache.selection)
        seconds = clock() - t0
        return Round(len(preds), seconds, (preds, sels), lat)

    def check(self, k: int, output) -> None:
        preds, sels = output
        task, cfg = self.task, self.task.cfg
        for s, pred, sel in zip(task.train_set, preds, sels):
            checks.check_prefix_minimal(sel, cfg.gamma)
            checks.check_forward(s, self.params, task.text_embed, cfg.gamma,
                                 pred, sel.kept_indices)
        pixels, plans = np.random.default_rng(0), {}
        for w, h in sorted({(s.width, s.height) for s in task.train_set}):
            plan = plans[w, h] = sl.plan_partition(w, h, base=cfg.base, max_grid=cfg.max_grid)
            checks.check_plan(w, h, cfg.base, cfg.max_grid, plan)
            checks.check_tiles(sl.extract_patches(pixels.random((h, w)), plan), plan)
        for s in task.train_set:
            n = plans[s.width, s.height].num_patches
            checks.require(len(s.patch_tokens) == n,
                           f"{len(s.patch_tokens)} patch token blocks for {n} tiles")

    def digest(self, output) -> str:
        preds, sels = output
        return _digest(np.array(preds), *(sel.kept_indices for sel in sels))


# -- bilinear ----------------------------------------------------------------

BIL_INSTANCES = 4
GD_STEPS = 100_000
ALT_STEPS = 300


class Bilinear(Workload):
    """The rank-one lab: 100k-step coordinate descent from the antisymmetric
    start and 300-step alternating minimization, each trace written with
    Trace.to_csv, for one alignment c per round."""

    name = "bilinear"
    rate_name, rate_unit = "bilinear_steps_per_s", "steps/s"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.instances = [bl.make_instance(d=16, c=float(c), seed=int(s)) for c, s in
                          zip(self.rng.uniform(0.1, 0.9, size=BIL_INSTANCES),
                              self.rng.integers(2**31, size=BIL_INSTANCES))]

    def inputs_digest(self) -> str:
        return _digest(*(inst.x for inst in self.instances))

    def pool_size(self) -> int:
        return BIL_INSTANCES

    def round(self, k: int) -> Round:
        inst = self.instances[k % BIL_INSTANCES]
        t0 = clock()
        with self.span("bilinear.gd_trajectory"):
            gd = bl.run_experiment(inst, init="antisym", method="gd", steps=GD_STEPS,
                                   eta=0.01, stop_tol=None)
        gd_csv = gd.to_csv()
        with self.span("bilinear.alt_trajectory"):
            alt = bl.run_experiment(inst, init="generic", method="alternating",
                                    steps=ALT_STEPS, stop_tol=None)
        alt_csv = alt.to_csv()
        seconds = clock() - t0
        return Round(gd.step.size + alt.step.size, seconds, (inst, gd, gd_csv, alt, alt_csv))

    def check(self, k: int, output) -> None:
        inst, gd, gd_csv, alt, alt_csv = output
        checks.check_gd_trace(gd, inst.c)
        checks.check_alt_trace(alt, inst.x)
        checks.check_csv(gd_csv, gd, GD_STEPS)
        checks.check_csv(alt_csv, alt, ALT_STEPS)

    def digest(self, output) -> str:
        _, gd, gd_csv, alt, alt_csv = output
        return _digest(gd.loss, gd.norm_u, alt.loss, alt.norm_u, gd_csv, alt_csv)


WORKLOADS = {w.name: w for w in (Train, Gradcheck, InferHires, Bilinear)}
