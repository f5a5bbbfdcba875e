"""Local token compression and the text-guided relevance router.

Patch token grids are condensed to a fixed number of query tokens (the
pipeline compresses all of a batch's patches in one stacked pass), then
scored against the text embedding: scores = softmax over image tokens of the
text-averaged similarity z_v . z_x^T. Tokens are kept greedily from the top
score down until the accumulated mass reaches the threshold gamma
(inclusive). Given a generator and a positive noise scale, Gaussian noise
perturbs the sort order only, and the gamma accounting always uses the
noiseless scores; without a generator routing is deterministic.

route_batch scores, sorts and cuts a batch's images in one pass, as the rows
of one array, padded only when their lengths differ, and returns each image's
kept rows flat, image after image; image_selection reads an image's record
off that cut. route_tokens is a batch of one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .adapters import QFormerParams, qformer_apply
from .numerics import check_finite

__all__ = [
    "DEFAULT_NUM_QUERIES",
    "DEFAULT_GAMMA",
    "RouterConfig",
    "RouterSelection",
    "compress_local",
    "select_prefix",
    "route_layout",
    "route_batch",
    "image_selection",
    "pinned_cut",
    "route_tokens",
]

DEFAULT_NUM_QUERIES = 144
DEFAULT_GAMMA = 0.75


@dataclass(frozen=True)
class RouterConfig:
    gamma: float = DEFAULT_GAMMA
    train_noise_sigma: float = 0.1

    def __post_init__(self):
        check_finite("gamma", self.gamma, 0.0, 1.0, "(]")
        check_finite("train_noise_sigma", self.train_noise_sigma, 0.0, np.inf, "[)")


@dataclass
class RouterSelection:
    """Kept token indices in descending-score order plus the score bookkeeping."""

    gamma: float
    kept_indices: np.ndarray        # int64, order of keeping
    scores: np.ndarray              # noiseless softmax scores, one per token
    cumulative_at_cut: float

    def to_json(self) -> dict:
        return {
            "gamma": float(self.gamma),
            "kept": [int(i) for i in self.kept_indices],
            "scores": [float(s) for s in self.scores],
            "cumulative": float(self.cumulative_at_cut),
        }


def compress_local(patch_tokens, params: QFormerParams) -> np.ndarray:
    """Condense one patch's tokens to the n_queries learnable-query tokens."""
    t = np.asarray(patch_tokens, dtype=np.float64)
    if t.ndim != 2 or t.shape[0] < 1:
        raise ValueError("patch tokens must be a non-empty 2-D matrix")
    if params.n_queries >= t.shape[0]:
        warnings.warn("compression expects fewer queries than input tokens",
                      stacklevel=2)
    return qformer_apply(t, params).out


def _matrix(a, what: str, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or 0 in m.shape or not np.isfinite(m).all():
        raise ValueError(f"{what} must be a non-empty 2-D matrix of finite values ({name})")
    return m


def _padded(flat: np.ndarray, real: np.ndarray, fill: float) -> np.ndarray:
    """Values stacked image after image, laid out as the rows of the (B, K_max)
    array whose entries `real` marks, the rest `fill`: a view if all are real."""
    if flat.size == real.size:
        return flat.reshape(real.shape)
    out = np.empty(real.shape)
    out.fill(fill)
    out[real] = flat
    return out


def _cut(scores: np.ndarray, key: np.ndarray, n_tokens, gamma: float):
    """Sort each row of (B, K) non-negative scores by ascending key, ties keeping
    the lower index first; return the orders, the running masses and how many
    tokens each row keeps: up to the first to reach gamma (the mass never falls,
    so all short of it come first), or all if none does or gamma = 1, as the mass
    can round to 1 before a tail too small to move it."""
    check_finite("gamma", gamma, 0.0, 1.0, "(]")
    order = key.argsort(axis=1, kind="stable")
    cum = np.add.accumulate(scores.take(order + np.arange(0, key.size, key.shape[1])[:, None]), 1)
    if gamma == 1.0:
        return order, cum, n_tokens
    return order, cum, np.minimum(np.add.reduce(cum < gamma, axis=1, initial=1), n_tokens)


@lru_cache(maxsize=256)
def route_layout(counts: tuple[int, ...]):
    """route_batch's layout of images of `counts` token rows: their starts (each
    image's first row, then the total), the counts, the padded slots and the
    (B, K_max) real-slot mask; cached per counts and read-only. A hit skips the
    check, safely: only checked counts are cached, and an equal key, such as
    (3.0,) for (3,), names the same rows."""
    if not (isinstance(counts, tuple) and counts and all(
            isinstance(k, (int, np.integer)) and not isinstance(k, bool) for k in counts)):
        raise ValueError("counts must be a non-empty tuple of ints")
    if min(counts) < 1:
        raise ValueError("every image needs at least one of the token rows")
    n = np.array(counts)
    slots = np.arange(max(counts))
    layout = np.array([0, *accumulate(counts)]), n, slots, slots < n[:, None]
    for a in layout:
        a.flags.writeable = False
    return layout


def route_batch(z_v: np.ndarray, z_x: np.ndarray, gamma: float, noise, layout):
    """Route every image of a batch in one pass.

    Image i owns rows starts[i]:starts[i+1] of z_v, as `layout` says. Its scores
    are the softmax over its rows of their similarity to the text, averaged
    over the text tokens. It keeps the shortest prefix of its rows, in
    descending order of score (of score + noise, where `noise` gives one
    value per row), whose score mass reaches gamma. The images are the rows
    of one (B, K_max) array, a ragged batch padded to sort last and weigh
    nothing, and every step works on each row alone (the softmax total is
    summed in token order), so an image gets bit for bit its lone routing.

    The caller checks the float64 matrices against each other and passes
    `layout`, route_layout of the images' row counts; route_tokens does both.
    Returns the cut as (scores, rows, n_kept, cum): the (B, K_max) noiseless
    scores, zero past an image's tokens; the kept rows of z_v, flat, image
    after image and each image's in keeping order; each image's kept count,
    at least one, so image i's rows follow the images' before it; and the
    scores' running masses.
    """
    starts, counts, slots, real = layout
    # each token's dot products with every text token, summed and averaged;
    # row by row, so a token's similarity does not depend on its neighbours
    sim = np.einsum("nd,td->n", z_v, z_x)
    sim /= len(z_x)
    scores = _padded(sim, real, -np.inf)
    scores -= np.maximum.reduce(scores, axis=1, keepdims=True)
    np.exp(scores, out=scores)
    # padding adds exact zeros after a row's tokens, so its running total ends on theirs
    scores /= np.add.accumulate(scores, axis=1)[:, -1:]
    key = -scores if noise is None else np.negative(scores + _padded(noise, real, -np.inf))
    # padding slots come last and weigh exactly zero
    order, cum, n_kept = _cut(scores, key, counts, gamma)
    order += starts[:-1, None]
    return scores, order[slots < n_kept[:, None]], n_kept, cum


def image_selection(cut, starts, i: int, gamma: float) -> RouterSelection:
    """Image i's record, read off route_batch's cut of the batch laid out by
    `starts`: its kept scores and the cut's running mass at its last kept one."""
    scores, rows, n_kept, cum = cut
    first = sum(n_kept[:i].tolist())
    return RouterSelection(gamma, rows[first:first + n_kept[i]] - starts[i],
                           scores[i, :starts[i + 1] - starts[i]], float(cum[i, n_kept[i] - 1]))


def pinned_cut(selections, starts):
    """Records, one per image, each keeping a token or more and none twice, laid
    out as route_batch lays out its cut: the kept rows flat, and the kept counts."""
    if len(selections) != len(starts) - 1:
        raise ValueError(f"{len(selections)} pinned selections for {len(starts) - 1} images; "
                         "give one per image")
    indices = [s.kept_indices for s in selections]
    lens = list(map(len, indices))
    if 0 in lens:   # before the cast, as `[]` is a float array; no profiled call
        raise ValueError("fixed_selections must each keep at least one token")
    n_kept = np.array(lens)
    first = starts[:-1].repeat(n_kept)   # the first row of each kept index's image
    try:
        kept = np.concatenate(indices, dtype=np.intp, casting="same_kind")
    except TypeError:
        raise ValueError("fixed_selections must keep integer indices") from None
    # each index against its image's row count; a negative index wraps to a
    # huge unsigned one, so one test bounds both ends
    if np.maximum.reduce(kept.view(np.uintp) >= starts[1:].repeat(n_kept) - first,
                         initial=False):
        raise IndexError("selection index out of range")
    kept += first
    if np.maximum.reduce(np.bincount(kept)) > 1:
        raise ValueError("fixed_selections must keep no token twice")
    return kept, n_kept


def select_prefix(scores: np.ndarray, gamma: float):
    """Shortest prefix of the tokens, in descending order of score, whose
    non-negative score mass reaches gamma: route_batch's cut on one row. The
    token that reaches gamma is kept, and every token at gamma = 1, however the
    running mass rounds, or whenever the total mass falls short of gamma."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0 or not ((scores >= 0) & (scores < np.inf)).all():
        raise ValueError("scores must be a non-empty 1-D vector of non-negative finite values")
    order, cum, (n_kept,) = _cut(scores[None], -scores[None], [scores.size], gamma)
    return order[0, :n_kept].astype(np.int64), float(cum[0, n_kept - 1])


def route_tokens(z_v, z_x, cfg: RouterConfig,
                 rng: np.random.Generator | None = None) -> RouterSelection:
    """Score local tokens against the text embedding and keep the top prefix:
    route_batch on a batch of one. Given a generator and sigma > 0, one
    normal per token perturbs the order; otherwise nothing is drawn. Tokens
    that are not finite, or whose similarities to the text overflow, fail."""
    v, x = _matrix(z_v, "image tokens", "z_v"), _matrix(z_x, "text tokens", "z_x")
    if v.shape[1] != x.shape[1]:
        raise ValueError("image and text tokens must share their feature width")
    noise = None
    if rng is not None and cfg.train_noise_sigma > 0.0:
        noise = cfg.train_noise_sigma * rng.standard_normal(len(v))
    layout = route_layout((len(v),))
    with np.errstate(over="ignore", invalid="ignore"):
        cut = route_batch(v, x, cfg.gamma, noise, layout)
    if not np.isfinite(cut[0]).all():
        raise ValueError("token-text similarities overflow, so the scores are not finite")
    return image_selection(cut, layout[0], 0, cfg.gamma)
