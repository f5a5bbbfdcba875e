"""End-to-end toy study: synthetic images flow through partition planning,
the gated global mixture, stacked query compression of all patches,
relevance routing, and a linear readout trained against a frozen teacher.
A batch runs through each expert, the local query head and the router in one
stacked pass, forward and backward, with no loop over its images.

The teacher reads the mean feature token over every full-scale patch of the
image, so the downsampled global view alone cannot reach zero error while
the local patches carry the missing detail. Staged training (global adapter
first, then local compression with the adapter frozen, then everything
jointly) competes against single-stage joint training on that gap.

All randomness is seeded; evaluation always runs with gate and router noise
disabled. Selection is a hard gather by the router's padded cut, so training
gradients flow only through kept tokens and the gradient of one step treats
that step's selection as constant. The backward pass runs on the activations
its forward pass saved and draws no random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .adapters import (
    GateParams,
    GateSample,
    MlpParams,
    QFormerActivations,
    QFormerParams,
    adapter_grads,
    init_gate,
    init_mlp,
    init_qformer,
    moe_apply,
    qformer_apply,
    qformer_vjp,
)
from .numerics import make_rng
from .routing import RouterConfig, RouterSelection, image_selection, pinned_cut, route_batch
# unused here; perfbench's traced worker swaps this binding to count kept tokens
from .routing import route_tokens  # noqa: F401
from .slicing import extract_patches, make_global_view, plan_partition, resize_bilinear

__all__ = [
    "PipelineConfig",
    "Sample",
    "ToyTask",
    "PipelineParams",
    "StageSchedule",
    "RunReport",
    "make_toy_task",
    "init_params",
    "forward",
    "batch_loss_and_grads",
    "evaluate",
    "ablate",
    "train",
    "default_schedule",
    "stage_plan",
    "params_arrays",
    "params_vector",
    "set_params_vector",
]

PARAM_GROUPS = ("adapter", "local", "readout")
FORWARD_MODES = ("full", "global_only", "local_only")


@dataclass(frozen=True)
class PipelineConfig:
    feat_dim: int = 8          # vision-feature width per token
    model_dim: int = 8         # readout-space width
    out_dim: int = 4
    local_queries: int = 4
    gamma: float = 0.75
    router_noise_sigma: float = 0.1
    gate_noise: bool = True
    base: int = 96             # tile side in pixels
    grid: int = 3              # feature cells per tile side
    max_grid: int = 6
    sizes: tuple[int, ...] = (96, 128, 160, 192, 224, 256, 288)
    n_train: int = 20
    n_eval: int = 10

    def __post_init__(self):
        for name in ("feat_dim", "model_dim", "out_dim", "local_queries", "base",
                     "grid", "max_grid", "n_train"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.base % self.grid != 0:
            raise ValueError("tile side must be divisible by the cell grid")
        # the router's own checks, run here so a bad value fails before any work
        RouterConfig(gamma=self.gamma, train_noise_sigma=self.router_noise_sigma)

    @property
    def cell(self) -> int:
        return self.base // self.grid

    @property
    def tokens_per_tile(self) -> int:
        return self.grid * self.grid


@dataclass
class Sample:
    width: int
    height: int
    global_tokens: np.ndarray            # (grid^2, feat_dim)
    patch_tokens: np.ndarray             # (n_patches, grid^2, feat_dim)
    target: np.ndarray                   # (out_dim,)


@dataclass
class ToyTask:
    """Frozen data, featurizer, teacher, and routing text for one experiment.

    The teacher is linear in two frozen views: the mean token over every
    full-scale patch (fine detail, weight w_teacher) and the mean token of
    the downsampled global view (coarse context, weight w_teacher_coarse).
    Each branch therefore carries signal the other cannot fully supply."""

    cfg: PipelineConfig
    seed: int
    w_feat: np.ndarray            # (cell^2, feat_dim) shared pixel->token map
    w_teacher: np.ndarray         # (feat_dim, out_dim) on the patch-token mean
    w_teacher_coarse: np.ndarray  # (feat_dim, out_dim) on the global-token mean
    text_embed: np.ndarray        # (1, model_dim)
    train_set: list[Sample]
    eval_set: list[Sample]


def _featurize_tile(tile: np.ndarray, w_feat: np.ndarray, grid: int) -> np.ndarray:
    cell = tile.shape[0] // grid
    cells = tile.reshape(grid, cell, grid, cell).transpose(0, 2, 1, 3)
    return cells.reshape(grid * grid, cell * cell) @ w_feat


def _build_sample(pixels: np.ndarray, cfg: PipelineConfig, w_feat: np.ndarray,
                  w_teacher: np.ndarray, w_teacher_coarse: np.ndarray) -> Sample:
    h, w = pixels.shape
    plan = plan_partition(w, h, base=cfg.base, max_grid=cfg.max_grid)
    g_tokens = _featurize_tile(make_global_view(pixels, base=cfg.base), w_feat, cfg.grid)
    p_tokens = np.stack([_featurize_tile(p, w_feat, cfg.grid)
                         for p in extract_patches(pixels, plan)])
    target = (p_tokens.reshape(-1, cfg.feat_dim).mean(axis=0) @ w_teacher
              + g_tokens.mean(axis=0) @ w_teacher_coarse)
    return Sample(width=w, height=h, global_tokens=g_tokens,
                  patch_tokens=p_tokens, target=target)


def make_toy_task(seed: int, cfg: PipelineConfig | None = None) -> ToyTask:
    cfg = cfg or PipelineConfig()
    rng = make_rng(seed)
    cell_px = cfg.cell * cfg.cell
    w_feat = rng.standard_normal((cell_px, cfg.feat_dim)) / cfg.cell
    w_teacher = rng.standard_normal((cfg.feat_dim, cfg.out_dim)) / np.sqrt(cfg.feat_dim)
    # the coarse term is kept small so fine detail dominates the objective,
    # but large enough that dropping the global branch measurably hurts
    w_teacher_coarse = 0.3 * rng.standard_normal((cfg.feat_dim, cfg.out_dim)) \
        / np.sqrt(cfg.feat_dim)
    text_embed = rng.standard_normal((1, cfg.model_dim))

    def draw(n):
        # smooth field the global view can recover plus fine texture that
        # only survives in the near-full-scale local patches
        out = []
        for _ in range(n):
            w = int(rng.choice(cfg.sizes))
            h = int(rng.choice(cfg.sizes))
            smooth = resize_bilinear(rng.random((5, 5)), h, w)
            fine = rng.random((h, w))
            out.append(_build_sample(0.7 * smooth + 0.3 * fine, cfg,
                                     w_feat, w_teacher, w_teacher_coarse))
        return out

    return ToyTask(cfg=cfg, seed=seed, w_feat=w_feat, w_teacher=w_teacher,
                   w_teacher_coarse=w_teacher_coarse, text_embed=text_embed,
                   train_set=draw(cfg.n_train), eval_set=draw(cfg.n_eval))


@dataclass
class PipelineParams:
    """The trainable parameters, each array a view into one float64 `buffer` in
    params_vector's order: the adapter group (mlp, qf_global, gate; the gate's
    noise flag stays outside), then local (qf_local), then readout. So a group
    is one slice, and copying, loading or zeroing the model is one array
    operation; a gradient store has the same layout. Write the arrays in
    place: rebinding a field detaches it from the buffer."""

    buffer: np.ndarray
    layout: tuple              # each array's (slice of the buffer, shape), in order
    mlp: MlpParams
    qf_global: QFormerParams   # one query per global token position
    gate: GateParams
    qf_local: QFormerParams
    readout: np.ndarray        # (model_dim, out_dim)

    def __deepcopy__(self, memo):
        return _on_buffer(self.buffer.copy(), self.layout, self.gate.noise_enabled)


def _on_buffer(buffer: np.ndarray, layout: tuple, noise_enabled: bool) -> PipelineParams:
    """Parameters whose arrays are views of `buffer`, placed as `layout` says."""
    v = [buffer[at].reshape(shape) for at, shape in layout]
    return PipelineParams(buffer, layout, MlpParams(*v[:4]), QFormerParams(*v[4:8]),
                          GateParams(*v[8:10], noise_enabled), QFormerParams(*v[10:14]), v[14])


def init_params(task: ToyTask, seed: int) -> PipelineParams:
    cfg = task.cfg
    rng = make_rng(seed ^ 0x5EED)
    parts = (init_mlp(rng, cfg.feat_dim, cfg.model_dim),
             init_qformer(rng, cfg.tokens_per_tile, cfg.feat_dim, cfg.model_dim),
             init_gate(rng, cfg.feat_dim, noise_enabled=cfg.gate_noise),
             init_qformer(rng, cfg.local_queries, cfg.feat_dim, cfg.model_dim))
    readout = rng.standard_normal((cfg.model_dim, cfg.out_dim)) / np.sqrt(cfg.model_dim)
    arrays = [a for p in parts for a in vars(p).values() if isinstance(a, np.ndarray)] + [readout]
    layout = tuple((slice(end - a.size, end), a.shape)
                   for a, end in zip(arrays, accumulate(a.size for a in arrays)))
    return _on_buffer(np.concatenate([a.ravel() for a in arrays]), layout, cfg.gate_noise)


def params_arrays(params: PipelineParams) -> dict[str, np.ndarray]:
    """Each trainable group's slice of the buffer; the split drives stage freezing."""
    end = params.buffer.size - params.readout.size
    start = end - sum(a.size for a in vars(params.qf_local).values())
    return dict(zip(PARAM_GROUPS, np.split(params.buffer, [start, end])))


def params_vector(params: PipelineParams) -> np.ndarray:
    return params.buffer.copy()


def set_params_vector(params: PipelineParams, vec: np.ndarray) -> None:
    """Load a vector in params_vector's layout; one of another shape changes nothing."""
    if np.shape(vec) != params.buffer.shape:
        raise ValueError("parameter vector length mismatch")
    params.buffer[:] = vec


@dataclass
class ForwardCache:
    """What one stacked forward pass over a batch saves, so its backward only
    runs VJP arithmetic (see moe_apply for the gate sample) and draws nothing."""

    gate_sample: GateSample | None
    selection: RouterSelection | None   # the first image's; None in global_only
    patches: QFormerActivations | None
    order: np.ndarray | None            # (B, max n_kept) local token rows in keeping order,
    kept: np.ndarray | None             # and the mask of its kept slots; None in global_only
    n_kept: np.ndarray                  # kept local tokens per image
    n_rows: np.ndarray                  # pooled rows per image
    pooled: np.ndarray                  # (B, model_dim)
    pred: np.ndarray                    # (B, out_dim)


def _stack(samples):
    """A batch's global views, all its patches in one stack, and image offsets."""
    return (np.array([s.global_tokens for s in samples]),
            np.concatenate([s.patch_tokens for s in samples]),
            np.array([0, *accumulate(len(s.patch_tokens) for s in samples)]))


def _forward_batch(views, patch_tokens, offsets, params: PipelineParams, task: ToyTask,
                   mode: str, rng=None, gate_override=None, fixed_selections=None) -> ForwardCache:
    """A batch, stacked as _stack returns it, through the pipeline in one pass.
    One normal draw covers the batch's noise, laid out per image as its gate
    pair, then one router draw per compressed local token, so a generator
    advances as over the images one by one."""
    if mode not in FORWARD_MODES:
        raise ValueError(f"unknown forward mode '{mode}'")
    n, d, cfg = len(views), params.readout.shape[0], task.cfg
    starts = offsets * params.qf_local.n_queries     # each image's first local token
    gate_s = patches = eps = noise = None
    gate_draws = 2 if (mode != "local_only" and rng is not None and gate_override is None
                       and params.gate.noise_enabled) else 0
    route_draws = 1 if (mode != "global_only" and rng is not None and fixed_selections is None
                        and cfg.router_noise_sigma > 0.0) else 0
    if gate_draws or route_draws:
        draws = rng.standard_normal(n * gate_draws + starts[-1] * route_draws)
        # image i's draws begin after i gate pairs and the router draws of its predecessors
        gate_at = ((np.arange(n) * gate_draws + starts[:-1] * route_draws)[:, None]
                   + np.arange(gate_draws))
        eps = draws[gate_at] if gate_draws else None
        noise = cfg.router_noise_sigma * np.delete(draws, gate_at) if route_draws else None
    if mode == "global_only":
        sel, order, n_kept, kept = None, None, np.zeros(n, dtype=np.intp), None
    else:
        patches = qformer_apply(patch_tokens, params.qf_local)
        local = patches.out.reshape(-1, d)
        if fixed_selections is None:
            cut = route_batch(local, starts, task.text_embed, cfg.gamma, noise)
            _, order, n_kept, kept = cut
            sel = image_selection(cut, starts, 0, cfg.gamma)
        else:
            sel = fixed_selections[0]
            order, n_kept, kept = pinned_cut(fixed_selections, starts)
    if mode == "local_only":
        g_out = np.empty((n, 0, d))
    else:
        g_out, gate_s = moe_apply(views, params.mlp, params.qf_global, params.gate,
                                  gate_override=gate_override, eps=eps)
    # each image's global rows, then its kept local rows in keeping order,
    # zero-padded to the most any image keeps: the zeros add nothing, so each
    # sum is bitwise a lone image's
    feats = g_out
    if order is not None:
        local_rows = local.take(order, axis=0, mode="clip")
        local_rows[~kept] = 0.0
        feats = np.concatenate([g_out, local_rows], axis=1)
    n_rows = g_out.shape[1] + n_kept
    pooled = feats.sum(axis=1) / n_rows[:, None]
    # a row-by-row readout: bitwise a lone image's pass
    return ForwardCache(gate_sample=gate_s, selection=sel, patches=patches, order=order,
                        kept=kept, n_kept=n_kept, n_rows=n_rows, pooled=pooled,
                        pred=(pooled[:, None, :] @ params.readout)[:, 0])


def forward(sample: Sample, params: PipelineParams, task: ToyTask,
            mode: str = "full", rng: np.random.Generator | None = None,
            gate_override=None):
    """One image through the pipeline (a batch of one); returns (prediction, cache).

    With a generator the gate noise and router sort noise are live (training
    mode); without one the pass is deterministic (evaluation mode).
    """
    cache = _forward_batch(sample.global_tokens[None], sample.patch_tokens,
                           np.array([0, len(sample.patch_tokens)]), params, task, mode, rng,
                           gate_override)
    return cache.pred[0], cache


def _backward(params: PipelineParams, cache: ForwardCache, dpred: np.ndarray,
              grads: PipelineParams) -> None:
    """Add the batch's parameter gradients, given dL/dpred per image, into `grads`."""
    grads.readout += cache.pooled.T @ dpred
    drow = (dpred @ params.readout.T) / cache.n_rows[:, None]
    if cache.gate_sample is not None:
        g = cache.gate_sample
        adapter_grads(params.mlp, params.qf_global, params.gate,
                      np.broadcast_to(drow[:, None, :], g.mlp.out.shape), g,
                      (grads.mlp, grads.qf_global, grads.gate))
    if cache.patches is not None:
        # the selection is a hard gather: unkept rows add exact zero gradient
        dlocal = np.zeros(cache.patches.out.shape)
        dlocal.reshape(-1, drow.shape[1])[cache.order[cache.kept]] = drow.repeat(
            cache.n_kept, axis=0)
        qformer_vjp(cache.patches, params.qf_local, dlocal, grads.qf_local)


def batch_loss_and_grads(samples, params: PipelineParams, task: ToyTask,
                         mode: str = "full", rng=None, gate_override=None,
                         fixed_selections=None):
    """Mean loss (0.5 ||pred - target||^2 per image) and mean gradients.

    The batch runs as one stacked pass. The backward reuses the activations
    the forward saved in the ForwardCache and draws no random numbers, so
    the generator advances exactly as over the forward pass alone. Each
    image's upstream gradient is scaled by 1/B.
    """
    cache = _forward_batch(*_stack(samples), params, task, mode, rng, gate_override,
                           fixed_selections)
    resid = cache.pred - np.array([s.target for s in samples])
    inv = 1.0 / len(samples)
    grads = _on_buffer(np.zeros_like(params.buffer), params.layout, params.gate.noise_enabled)
    _backward(params, cache, inv * resid, grads)
    # each image's r @ r as a stacked row product, bitwise the 1-D dot, and a
    # cumsum that adds them left to right as a loop over the images does
    sq = (resid[:, None] @ resid[..., None])[:, 0, 0]
    return float(np.cumsum(inv * (0.5 * sq))[-1]), grads


def evaluate(params: PipelineParams, task: ToyTask, mode: str = "full") -> float:
    """Mean held-out loss with gate and router noise disabled."""
    cache = _forward_batch(*_stack(task.eval_set), params, task, mode)
    resid = cache.pred - np.array([s.target for s in task.eval_set])
    sq = (resid[:, None] @ resid[..., None])[:, 0, 0]   # as batch_loss_and_grads sums it
    return float(np.cumsum(0.5 * sq)[-1]) / len(task.eval_set)


def ablate(params: PipelineParams, task: ToyTask, arm: str) -> float:
    """Held-out loss with the other branch's tokens removed before pooling."""
    modes = {"only_global": "global_only", "only_local": "local_only"}
    if arm not in modes:
        raise ValueError("arm must be 'only_global' or 'only_local'")
    return evaluate(params, task, modes[arm])


@dataclass(frozen=True)
class StageSchedule:
    """Training recipe: stage count is fixed by the mode (3 for alternating,
    1 otherwise); steps and learning rates are per stage."""

    mode: str
    steps: tuple[int, ...]
    lr: tuple[float, ...]
    seed: int = 0

    def __post_init__(self):
        n = len(stage_plan(self.mode))
        if len(self.steps) != n or len(self.lr) != n:
            raise ValueError(f"mode '{self.mode}' takes exactly {n} stage(s)")
        if not all(0.0 < lr < np.inf for lr in self.lr):
            raise ValueError("learning rates must be positive and finite")


def stage_plan(mode: str) -> list[tuple[str, str, frozenset]]:
    """(label, forward mode, trainable groups) per stage."""
    plans = {
        "alternating": [
            ("I", "global_only", frozenset({"adapter"})),
            ("II", "full", frozenset({"local"})),
            ("III", "full", frozenset({"adapter", "local", "readout"})),
        ],
        "e2e": [("e2e", "full", frozenset({"adapter", "local", "readout"}))],
        "only_global": [("only_global", "global_only",
                         frozenset({"adapter", "readout"}))],
        "only_local": [("only_local", "local_only",
                        frozenset({"local", "readout"}))],
    }
    if mode not in plans:
        raise ValueError(f"unknown training mode '{mode}'")
    return plans[mode]


def default_schedule(mode: str, seed: int = 0, total_steps: int = 240,
                     lr: float = 0.25) -> StageSchedule:
    n = len(stage_plan(mode))
    per = total_steps // n
    steps = tuple([per] * (n - 1) + [total_steps - per * (n - 1)])
    return StageSchedule(mode=mode, steps=steps, lr=(lr,) * n, seed=seed)


@dataclass
class RunReport:
    mode: str
    seed: int
    steps: list[tuple[int, str, float]]    # (step, stage label, training loss)
    final_eval: float
    only_global_eval: float
    only_local_eval: float
    config: dict
    diverged: bool = False

    def to_csv(self) -> str:
        lines = ["step,stage,loss"]
        for step, stage, loss_val in self.steps:
            lines.append(f"{step},{stage},{loss_val!r}")
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        return {
            "mode": self.mode,
            "seed": self.seed,
            "final_eval": self.final_eval,
            "only_global_eval": self.only_global_eval,
            "only_local_eval": self.only_local_eval,
            "diverged": self.diverged,
        }


def train(schedule: StageSchedule, task: ToyTask) -> RunReport:
    """Full-batch descent under the schedule's stage plan.

    Stage freezes are exact: parameters outside a stage's trainable groups
    are never touched. A non-finite loss flags the report as diverged and
    stops training instead of raising.
    """
    params = init_params(task, schedule.seed)
    noise_rng = make_rng((schedule.seed << 8) ^ 0xA17E12)
    rows: list[tuple[int, str, float]] = []
    diverged = False
    step_idx = 0
    # a diverging run overflows before the flag trips; keep that path quiet
    with np.errstate(over="ignore", invalid="ignore"):
        for (label, fmode, groups), n_steps, lr in zip(stage_plan(schedule.mode),
                                                       schedule.steps, schedule.lr):
            for _ in range(n_steps):
                loss_val, grads = batch_loss_and_grads(task.train_set, params, task,
                                                       fmode, rng=noise_rng)
                rows.append((step_idx, label, loss_val))
                step_idx += 1
                if not np.isfinite(loss_val):
                    diverged = True
                    break
                parr, garr = params_arrays(params), params_arrays(grads)
                for group in groups:
                    parr[group] -= lr * garr[group]
            if diverged:
                break
        final_eval = evaluate(params, task, "full")
        only_global = ablate(params, task, "only_global")
        only_local = ablate(params, task, "only_local")
    return RunReport(
        mode=schedule.mode,
        seed=schedule.seed,
        steps=rows,
        final_eval=final_eval,
        only_global_eval=only_global,
        only_local_eval=only_local,
        config={
            "mode": schedule.mode,
            "steps": list(schedule.steps),
            "lr": list(schedule.lr),
            "seed": schedule.seed,
            "gamma": task.cfg.gamma,
            "local_queries": task.cfg.local_queries,
            "feat_dim": task.cfg.feat_dim,
            "model_dim": task.cfg.model_dim,
        },
        diverged=diverged,
    )
