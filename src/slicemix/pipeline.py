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

All randomness is seeded, and only `train` draws gate and router noise.
Selection is a hard gather of the router's kept rows, so training gradients
flow only through kept tokens and the gradient of one step treats that
step's selection as constant. The backward pass runs on the activations its
forward pass saved and draws no random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from types import MappingProxyType

import numpy as np

from .adapters import (
    GateParams,
    GateSample,
    MlpParams,
    QFormerActivations,
    QFormerParams,
    adapter_grads,
    global_experts,
    init_gate,
    init_mlp,
    init_qformer,
    moe_apply,
    qformer_apply,
    qformer_vjp,
)
from .numerics import MAX_WIDTH, check_count, check_finite, make_rng
from .routing import (RouterConfig, RouterSelection, image_selection, pinned_cut, route_batch,
                      route_layout)
# unused here; perfbench's traced worker swaps this binding to count kept tokens
from .routing import route_tokens  # noqa: F401
from .slicing import (MAX_GRID, _band_rows, extract_patches, make_global_view, plan_partition,
                      resize_bilinear)

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
    "train",
    "default_schedule",
    "stage_plan",
    "params_arrays",
    "params_vector",
    "set_params_vector",
]

PARAM_GROUPS = ("adapter", "local", "readout")
FORWARD_MODES = ("full", "global_only", "local_only")
DEFAULT_TOTAL_STEPS = 240
DEFAULT_LR = 0.25
# pixels a task build may touch: per image, the image, its tile canvas (at most
# (MAX_GRID * base)^2) and its global view; a config past it fails before any work
TASK_PIXEL_BUDGET = 10**8

# (label, forward mode, trainable groups) per stage, for each training mode
STAGE_PLANS = MappingProxyType({
    "alternating": (
        ("I", "global_only", frozenset({"adapter"})),
        ("II", "full", frozenset({"local"})),
        ("III", "full", frozenset({"adapter", "local", "readout"})),
    ),
    "e2e": (("e2e", "full", frozenset({"adapter", "local", "readout"})),),
    "only_global": (("only_global", "global_only", frozenset({"adapter", "readout"})),),
    "only_local": (("only_local", "local_only", frozenset({"local", "readout"})),),
})


@dataclass(frozen=True)
class PipelineConfig:
    feat_dim: int = 8          # vision-feature width per token
    model_dim: int = 8         # readout-space width
    out_dim: int = 4
    local_queries: int = 4
    gamma: float = RouterConfig.gamma
    train_noise_sigma: float = RouterConfig.train_noise_sigma
    gate_noise: bool = True
    base: int = 96             # tile side in pixels
    grid: int = 3              # feature cells per tile side
    sizes: tuple[int, ...] = (96, 128, 160, 192, 224, 256, 288)
    n_train: int = 20
    n_eval: int = 10
    max_grid = MAX_GRID        # not a field: tilings range over slicing's grid options

    def __post_init__(self):
        for name in ("feat_dim", "model_dim", "out_dim", "local_queries"):
            check_count(name, getattr(self, name), 1, MAX_WIDTH)
        for name in ("base", "grid", "n_train", "n_eval"):
            check_count(name, getattr(self, name), 0 if name == "n_eval" else 1)
        if not isinstance(self.sizes, tuple) or not self.sizes:
            raise ValueError("sizes must be a non-empty tuple")
        for size in self.sizes:
            check_count("sizes", size, 1)
        if not isinstance(self.gate_noise, (bool, np.bool_)):
            raise ValueError("gate_noise must be True or False")
        if self.base % self.grid != 0:
            raise ValueError("tile side must be divisible by the cell grid")
        pixels = (self.n_train + self.n_eval) * (
            max(self.sizes) ** 2 + (self.max_grid * self.base) ** 2 + self.base ** 2)
        if pixels > TASK_PIXEL_BUDGET:
            raise ValueError(f"the task would touch {pixels} pixels (images, tile canvases "
                             f"and global views), past the budget of {TASK_PIXEL_BUDGET}")
        # the router's own checks, run here so a bad value fails before any work
        RouterConfig(gamma=self.gamma, train_noise_sigma=self.train_noise_sigma)

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
    """Frozen data and routing text for one experiment (see make_toy_task)."""

    cfg: PipelineConfig
    seed: int
    text_embed: np.ndarray        # (1, model_dim)
    train_set: list[Sample]
    eval_set: list[Sample]


def _featurize(canvas: np.ndarray, n: int, m: int, w_feat: np.ndarray, grid: int) -> np.ndarray:
    """(n * m, grid^2, feat_dim) tokens of a canvas of n x m square tiles (a
    global view is 1 x 1), in extract_patches' order: one tile row at a time,
    its tiles' cells in one stacked product, which numpy runs as one
    (grid^2, cell^2) @ w_feat per tile, so only one tile row is copied."""
    c = canvas.shape[0] // (n * grid)
    tile_rows = canvas.reshape(n, grid, c, m, grid, c)
    tokens = np.empty((n, m, grid * grid, w_feat.shape[1]))
    for r in range(n):   # each row's cells are freed before the next row's are copied
        np.matmul(tile_rows[r].transpose(2, 0, 3, 1, 4).reshape(m, grid * grid, c * c), w_feat,
                  out=tokens[r])
    return tokens.reshape(n * m, grid * grid, -1)


def _shaped(buffer: np.ndarray, h: int, w: int) -> np.ndarray:
    return buffer[:h * w].reshape(h, w)


def _build_sample(pixels: np.ndarray, cfg: PipelineConfig, w_feat: np.ndarray,
                  w_teacher: np.ndarray, w_teacher_coarse: np.ndarray,
                  canvas: np.ndarray) -> Sample:
    h, w = pixels.shape
    plan = plan_partition(w, h, base=cfg.base, max_grid=cfg.max_grid)
    g_tokens = _featurize(make_global_view(pixels, base=cfg.base), 1, 1, w_feat, cfg.grid)[0]
    canvas_w, canvas_h = plan.grid_px()
    canvas = _shaped(canvas, canvas_h, canvas_w)
    extract_patches(pixels, plan, out=canvas)   # its tiles are views of canvas
    p_tokens = _featurize(canvas, plan.n, plan.m, w_feat, cfg.grid)
    # each mean as np.mean forms it: a sum, then one division by the count
    p_sum = np.add.reduce(p_tokens.reshape(-1, cfg.feat_dim), axis=0)
    target = ((p_sum / (plan.n * plan.m * cfg.tokens_per_tile)) @ w_teacher
              + (np.add.reduce(g_tokens, axis=0) / cfg.tokens_per_tile) @ w_teacher_coarse)
    return Sample(width=w, height=h, global_tokens=g_tokens,
                  patch_tokens=p_tokens, target=target)


def make_toy_task(seed: int, cfg: PipelineConfig | None = None) -> ToyTask:
    """Draw a task's frozen featurizer, teacher, routing text and images.

    The teacher is linear in two frozen views: the mean token over every
    full-scale patch (fine detail, weight w_teacher) and the mean token of
    the downsampled global view (coarse context, weight w_teacher_coarse).
    Each branch therefore carries signal the other cannot fully supply."""
    cfg = cfg or PipelineConfig()
    rng = make_rng(seed)
    cell_px = cfg.cell * cfg.cell
    w_feat = rng.standard_normal((cell_px, cfg.feat_dim)) / cfg.cell   # pixel -> token
    w_teacher = rng.standard_normal((cfg.feat_dim, cfg.out_dim)) / np.sqrt(cfg.feat_dim)
    # the coarse term is kept small so fine detail dominates the objective,
    # but large enough that dropping the global branch measurably hurts
    w_teacher_coarse = 0.3 * rng.standard_normal((cfg.feat_dim, cfg.out_dim)) \
        / np.sqrt(cfg.feat_dim)
    text_embed = rng.standard_normal((1, cfg.model_dim))
    # each image's smooth field, one band of its texture (see _band_rows) and
    # its tile canvas are views of these flat buffers, so the build faults
    # their pages in once, not once per image. A plan spans no more tiles
    # along a side than cover that side, since fewer cover it with less
    # waste, so no canvas side passes canvas_side
    smooth_buf = np.empty(max(cfg.sizes) ** 2)
    fine_buf = np.empty(max(_band_rows(h, w) * w for h in cfg.sizes for w in cfg.sizes))
    canvas_side = min(cfg.max_grid, -(-max(cfg.sizes) // cfg.base)) * cfg.base
    canvas_buf = np.empty(canvas_side ** 2)

    def draw(n):
        # smooth field the global view can recover plus fine texture that
        # only survives in the near-full-scale local patches
        out = []
        for _ in range(n):
            # rng.choice's own draw, without its overhead
            w = int(cfg.sizes[rng.integers(len(cfg.sizes))])
            h = int(cfg.sizes[rng.integers(len(cfg.sizes))])
            smooth = resize_bilinear(rng.random((5, 5)), h, w, out=_shaped(smooth_buf, h, w))
            # 0.7 * smooth + 0.3 * fine, in place, the texture drawn a band of
            # rows at a time: the generator fills them in order, so the
            # uniforms are those of one (h, w) draw
            smooth *= 0.7
            band = _band_rows(h, w)
            for top in range(0, h, band):
                fine = rng.random(out=_shaped(fine_buf, min(band, h - top), w))
                fine *= 0.3
                smooth[top:top + band] += fine
            out.append(_build_sample(smooth, cfg, w_feat, w_teacher, w_teacher_coarse,
                                     canvas_buf))
        return out

    return ToyTask(cfg=cfg, seed=seed, text_embed=text_embed,
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
    check_count("seed", seed, 0)
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
    """Each trainable group's slice of the buffer, cut where `layout` places
    qf_local's first array and the readout; the slices drive stage freezing."""
    b, start, end = params.buffer, params.layout[10][0].start, params.layout[14][0].start
    return {"adapter": b[:start], "local": b[start:end], "readout": b[end:]}


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
    first: tuple | None                 # image_selection's arguments for the first image
    patches: QFormerActivations | None
    kept_rows: np.ndarray | None        # kept local token rows, flat, image after image and
                                        # each image's in keeping order; None in global_only
    n_kept: np.ndarray                  # kept local tokens per image
    n_rows: np.ndarray                  # pooled rows per image
    pooled: np.ndarray                  # (B, model_dim)
    pred: np.ndarray                    # (B, out_dim)

    @cached_property
    def selection(self) -> RouterSelection | None:
        """The first image's record, read off the cut on first access; None if unrouted."""
        return None if self.first is None else image_selection(*self.first)


@dataclass
class _Batch:
    views: np.ndarray              # (B, grid^2, feat_dim) global views
    patch_tokens: np.ndarray       # every image's patches in one stack
    route: tuple                   # route_layout of the images' local token counts
    targets: np.ndarray | None = None
    experts: tuple | None = None   # global_experts on the views while the adapter is frozen


def _stack(samples, n_queries: int) -> _Batch:
    """The samples stacked once, for every pass over them."""
    if not samples:
        raise ValueError("a batch needs at least one sample")
    return _Batch(np.array([s.global_tokens for s in samples]),
                  np.concatenate([s.patch_tokens for s in samples]),
                  route_layout(tuple(n_queries * len(s.patch_tokens) for s in samples)),
                  np.array([s.target for s in samples]))


def _forward_batch(batch: _Batch, params: PipelineParams, task: ToyTask,
                   mode: str, rng=None, fixed_selections=None) -> ForwardCache:
    """A batch through the pipeline in one pass. One normal draw covers the
    batch's noise in two blocks: the gate's (B, 2) eps, then sigma times one
    normal per compressed local token for the router, as gate_weights and
    route_tokens would draw them one after the other."""
    if mode not in FORWARD_MODES:
        raise ValueError(f"unknown forward mode '{mode}'")
    views, n, d, cfg = batch.views, batch.views.shape[0], params.readout.shape[0], task.cfg
    starts = batch.route[0]
    gate_s = patches = eps = noise = first = None
    gate_draws = 2 * n if (mode != "local_only" and rng is not None
                           and params.gate.noise_enabled) else 0
    routed = (mode != "global_only" and rng is not None and fixed_selections is None
              and cfg.train_noise_sigma > 0.0)
    if gate_draws or routed:
        draws = rng.standard_normal(gate_draws + starts[-1] * routed)
        eps = draws[:gate_draws].reshape(n, 2) if gate_draws else None
        if routed:
            noise = cfg.train_noise_sigma * draws[gate_draws:]
    if mode == "global_only":
        rows, n_kept = None, np.zeros(n, dtype=np.intp)
    else:
        patches = qformer_apply(batch.patch_tokens, params.qf_local)
        local = patches.out.reshape(-1, d)
        if fixed_selections is None:
            cut = route_batch(local, task.text_embed, cfg.gamma, noise, batch.route)
            _, rows, n_kept, _ = cut
            first = cut, starts, 0, cfg.gamma
        else:
            rows, n_kept = pinned_cut(fixed_selections, starts)
    if mode == "local_only":
        g_out = np.empty((n, 0, d))
    else:
        g_out, gate_s = moe_apply(views, params.mlp, params.qf_global, params.gate, eps=eps,
                                  experts=batch.experts)
    # each image's global rows summed, plus its kept local rows summed as one
    # segment of their flat gather (each image keeps one or more); each sum runs
    # along the long axis over the image's own rows alone, so it is bitwise a
    # lone image's
    pooled = np.add.reduce(g_out, axis=1)
    if rows is not None:
        pooled += np.add.reduceat(local.take(rows, axis=0), np.add.accumulate(n_kept) - n_kept,
                                  axis=0)
    n_rows = g_out.shape[1] + n_kept
    pooled /= n_rows[:, None]
    # a row-by-row readout: bitwise a lone image's pass
    return ForwardCache(gate_sample=gate_s, first=first, patches=patches, kept_rows=rows,
                        n_kept=n_kept, n_rows=n_rows, pooled=pooled,
                        pred=(pooled[:, None, :] @ params.readout)[:, 0])


def forward(sample: Sample, params: PipelineParams, task: ToyTask, mode: str = "full"):
    """One image through the pipeline (a batch of one), with gate and router
    noise off; returns (prediction, cache)."""
    batch = _Batch(sample.global_tokens[None], sample.patch_tokens,
                   route_layout((len(sample.patch_tokens) * params.qf_local.n_queries,)))
    cache = _forward_batch(batch, params, task, mode)
    return cache.pred[0], cache


def _backward(params: PipelineParams, cache: ForwardCache, dpred: np.ndarray,
              grads: PipelineParams, groups) -> None:
    """Add the batch's gradients of `groups`, given dL/dpred per image, into `grads`."""
    if "readout" in groups:
        grads.readout += cache.pooled.T @ dpred
    drow = (dpred @ params.readout.T) / cache.n_rows[:, None]
    if cache.gate_sample is not None and "adapter" in groups:
        g = cache.gate_sample
        # np.broadcast_to's stride-0 view, made directly: its strides decide mlp_vjp's products
        up = np.ndarray(g.mlp.out.shape, buffer=drow, strides=(drow.strides[0], 0, drow.itemsize))
        adapter_grads(params.mlp, params.qf_global, params.gate, up, g,
                      (grads.mlp, grads.qf_global, grads.gate))
    if cache.patches is not None and "local" in groups:
        # the selection is a hard gather: unkept rows add exact zero gradient
        dlocal = np.zeros(cache.patches.out.shape)
        dlocal.reshape(-1, drow.shape[1])[cache.kept_rows] = drow.repeat(cache.n_kept, axis=0)
        qformer_vjp(cache.patches, params.qf_local, dlocal, grads.qf_local)


def batch_loss_and_grads(samples, params: PipelineParams, task: ToyTask,
                         mode: str = "full", fixed_selections=None):
    """Noiseless mean loss (0.5 ||pred - target||^2 per image) and mean gradients.

    The batch runs as one stacked pass. The backward reuses the activations
    the forward saved in the ForwardCache. Each image's upstream gradient is
    scaled by 1/B.
    """
    batch = _stack(samples, params.qf_local.n_queries)
    grads = _on_buffer(np.zeros_like(params.buffer), params.layout, params.gate.noise_enabled)
    return _loss_into(grads, batch, params, task, mode, None, fixed_selections, PARAM_GROUPS), grads


def _loss_into(grads: PipelineParams, batch: _Batch, params: PipelineParams, task: ToyTask,
               mode: str, rng, fixed_selections, groups) -> float:
    """batch_loss_and_grads' loss, with the noise `rng` draws if given (the
    backward draws none), adding the gradients of `groups` (names in
    PARAM_GROUPS) into `grads`, a zeroed store in `params`' layout."""
    cache = _forward_batch(batch, params, task, mode, rng, fixed_selections)
    resid = cache.pred - batch.targets
    inv = 1.0 / len(resid)
    _backward(params, cache, inv * resid, grads, groups)
    # each image's r @ r as a stacked row product, bitwise the 1-D dot, and a
    # running sum that adds them left to right as a loop over the images does
    sq = (resid[:, None] @ resid[..., None])[:, 0, 0]
    return float(np.add.accumulate(inv * (0.5 * sq))[-1])


def evaluate(params: PipelineParams, task: ToyTask, mode: str = "full") -> float:
    """Mean held-out loss with gate and router noise disabled."""
    return _eval_loss(_stack(task.eval_set, params.qf_local.n_queries), params, task, mode)


def _eval_loss(batch: _Batch, params: PipelineParams, task: ToyTask, mode: str) -> float:
    """evaluate on the eval set already stacked as `batch`."""
    resid = _forward_batch(batch, params, task, mode).pred - batch.targets
    sq = (resid[:, None] @ resid[..., None])[:, 0, 0]   # as batch_loss_and_grads sums it
    return float(np.add.accumulate(0.5 * sq)[-1]) / len(resid)


@dataclass(frozen=True)
class StageSchedule:
    """Training recipe: a step count for each stage of the mode's plan in
    STAGE_PLANS, and the learning rate of every stage."""

    mode: str
    steps: tuple[int, ...]
    lr: float
    seed: int = 0

    def __post_init__(self):
        n = len(stage_plan(self.mode))
        if not isinstance(self.steps, tuple) or len(self.steps) != n:
            raise ValueError(f"steps must be a tuple of {n} count(s) for mode '{self.mode}'")
        check_count("seed", self.seed, 0)
        for k in self.steps:
            check_count("steps", k, 0)
        check_finite("lr", self.lr, 0.0, np.inf, "()")


def stage_plan(mode: str) -> tuple[tuple[str, str, frozenset], ...]:
    """The mode's (label, forward mode, trainable groups) per stage."""
    if mode not in STAGE_PLANS:
        raise ValueError(f"unknown training mode '{mode}'")
    return STAGE_PLANS[mode]


def default_schedule(mode: str, seed: int = 0, total_steps: int = DEFAULT_TOTAL_STEPS,
                     lr: float = DEFAULT_LR) -> StageSchedule:
    n = len(stage_plan(mode))
    check_count("total_steps", total_steps, 0)
    per = total_steps // n
    steps = tuple([per] * (n - 1) + [total_steps - per * (n - 1)])
    return StageSchedule(mode=mode, steps=steps, lr=lr, seed=seed)


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
    """Full-batch descent under the schedule's stage plan. The run builds once
    what it fixes: the stacked training set, the stacked eval set (for all
    three evaluations), one gradient store, zeroed each step, and each
    group's slice of the parameters and of the store. Each step computes
    only its stage's gradients: stages I and II skip the readout's, and
    stage II also skips the adapter's and runs the frozen global experts
    once, at its start (the gate still draws fresh noise every step).
    Parameters outside a stage's groups are never touched. A non-finite loss
    flags the report as diverged and stops training instead of raising.
    """
    if not task.eval_set:
        raise ValueError("training needs a task with at least one eval sample")
    params = init_params(task, schedule.seed)
    batch = _stack(task.train_set, params.qf_local.n_queries)
    grads = _on_buffer(np.zeros_like(params.buffer), params.layout, params.gate.noise_enabled)
    parr, garr = params_arrays(params), params_arrays(grads)
    noise_rng = make_rng((schedule.seed << 8) ^ 0xA17E12)
    # each stage repeated for its steps, by C iterators: no list of one entry
    # per step, and no Python frame per step
    plan = chain.from_iterable(map(repeat, stage_plan(schedule.mode), schedule.steps))
    rows: list[tuple[int, str, float]] = []
    diverged = False
    # a diverging run overflows before the flag trips; keep that path quiet
    with np.errstate(over="ignore", invalid="ignore"):
        for step, (label, fmode, groups) in enumerate(plan):
            if fmode == "local_only" or "adapter" in groups:
                batch.experts = None
            elif batch.experts is None:
                batch.experts = global_experts(batch.views, params.mlp, params.qf_global)
            grads.buffer.fill(0.0)
            loss_val = _loss_into(grads, batch, params, task, fmode, noise_rng, None, groups)
            rows.append((step, label, loss_val))
            if not np.isfinite(loss_val):
                diverged = True
                break
            for group in groups:
                parr[group] -= schedule.lr * garr[group]
        eval_batch = _stack(task.eval_set, params.qf_local.n_queries)
        final_eval, only_global, only_local = (_eval_loss(eval_batch, params, task, fmode)
                                               for fmode in ("full", "global_only", "local_only"))
    return RunReport(
        mode=schedule.mode,
        seed=schedule.seed,
        steps=rows,
        final_eval=final_eval,
        only_global_eval=only_global,
        only_local_eval=only_local,
        config={"steps": list(schedule.steps)},
        diverged=diverged,
    )
