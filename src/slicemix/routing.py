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
of one padded array, and returns the cut in that layout; image_selection
reads an image's record off it. route_tokens is a batch of one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .adapters import QFormerParams, qformer_apply

__all__ = [
    "DEFAULT_NUM_QUERIES",
    "DEFAULT_GAMMA",
    "RouterConfig",
    "RouterSelection",
    "compress_local",
    "select_prefix",
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
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if self.train_noise_sigma < 0.0:
            raise ValueError("train_noise_sigma must be non-negative")


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


def _matrix(a, what: str) -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] == 0:
        raise ValueError(f"{what} must be a non-empty 2-D matrix")
    return m


def _padded(flat: np.ndarray, real: np.ndarray, fill: float) -> np.ndarray:
    """Values stacked image after image, laid out as the rows of the
    (B, K_max) array whose entries `real` marks, the rest set to `fill`."""
    out = np.full(real.shape, fill)
    out[real] = flat
    return out


def _kept_counts(cum: np.ndarray, gamma: float, n_tokens) -> np.ndarray:
    """Tokens kept per row of cumulative sorted score mass: up to the first to
    reach gamma, or all if none does. Scores are non-negative, so the mass
    never falls and the entries short of gamma all come first. Gamma = 1
    keeps all: the mass can round to 1 before a tail too small to move it."""
    if gamma >= 1.0:
        return n_tokens
    return np.minimum((cum < gamma).sum(axis=-1, initial=1), n_tokens)


def route_batch(z_v, starts, z_x, gamma: float, noise=None):
    """Route every image of a batch in one pass.

    Image i owns rows starts[i]:starts[i+1] of z_v, at least one. Its scores
    are the softmax over its rows of their similarity to the text, averaged
    over the text tokens. It keeps the shortest prefix of its rows, in
    descending order of score (of score + noise, where `noise` gives one
    value per row), whose score mass reaches gamma. The images are the rows
    of one (B, K_max) array, padded to sort last and weigh nothing, and
    every step works on each row alone (the softmax total is summed in token
    order), so an image gets bit for bit what routing it on its own gives.

    Returns the cut as (scores, rows, n_kept, kept): the (B, K_max) noiseless
    scores, zero past an image's tokens; each image's rows of z_v in keeping
    order, as many per image as the most any image keeps; its kept count; and
    the mask of each row's first n_kept slots. Past them the rows are padding
    and may point anywhere, even past the last row.
    """
    v, x = _matrix(z_v, "image tokens"), _matrix(z_x, "text tokens")
    if v.shape[1] != x.shape[1]:
        raise ValueError("image and text tokens must share their feature width")
    starts = np.asarray(starts)
    counts = starts[1:] - starts[:-1]
    lens = counts.tolist()
    if starts[0] != 0 or starts[-1] != len(v) or min(lens) < 1:
        raise ValueError("every image needs at least one of the token rows")
    slots = np.arange(max(lens))
    real = slots < counts[:, None]
    # each token's dot products with every text token, summed and averaged;
    # row by row, so a token's similarity does not depend on its neighbours
    sim = np.einsum("nd,td->n", v, x) / len(x)
    scores = _padded(sim, real, -np.inf)
    scores -= scores.max(axis=1, keepdims=True)
    np.exp(scores, out=scores)
    # padding adds exact zeros after a row's tokens, so its running total ends on theirs
    scores /= scores.cumsum(axis=1)[:, -1:]
    key = -scores if noise is None else np.negative(scores + _padded(noise, real, -np.inf))
    order = key.argsort(axis=1, kind="stable")        # ties keep the lower index first
    # padding slots come last and weigh exactly zero
    cum = scores[np.arange(len(lens))[:, None], order].cumsum(axis=1)
    n_kept = _kept_counts(cum, gamma, counts)
    most = max(n_kept.tolist())
    return scores, order[:, :most] + starts[:-1, None], n_kept, slots[:most] < n_kept[:, None]


def image_selection(cut, starts, i: int, gamma: float) -> RouterSelection:
    """Image i's record, read off route_batch's cut of the batch laid out by
    `starts`: its kept scores summed in keeping order, as the cut sums them."""
    scores, rows, n_kept, _ = cut
    kept = rows[i, :n_kept[i]] - starts[i]
    s = scores[i, :starts[i + 1] - starts[i]]
    return RouterSelection(gamma, kept, s, float(s[kept].cumsum()[-1]))


def pinned_cut(selections, starts):
    """Given records, one per image, laid out as route_batch lays out its own
    cut: each image's rows in keeping order, its kept count, and the kept slots."""
    indices = [s.kept_indices for s in selections]
    n_kept = np.array([len(i) for i in indices])
    kept = np.arange(n_kept.max()) < n_kept[:, None]
    order = np.zeros(kept.shape, dtype=np.intp)
    order[kept] = np.concatenate(indices)
    # a negative index wraps to a huge unsigned one, so one test bounds both ends
    if np.count_nonzero(order.view(np.uintp) >= (starts[1:] - starts[:-1])[:, None]):
        raise IndexError("selection index out of range")
    return order + starts[:-1, None], n_kept, kept


def select_prefix(scores: np.ndarray, gamma: float,
                  order: np.ndarray | None = None):
    """Shortest prefix of `order` whose non-negative score mass reaches gamma.

    The cut is inclusive: the token whose addition reaches gamma is kept.
    Every token is kept at gamma = 1, however the running mass rounds, and
    whenever the total mass falls short of gamma.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if order is None:
        order = np.argsort(-scores, kind="stable")  # ties keep the lower index first
    cum = scores[order].cumsum()
    n_kept = int(_kept_counts(cum, gamma, len(order)))
    return order[:n_kept].astype(np.int64), float(cum[n_kept - 1])


def route_tokens(z_v, z_x, cfg: RouterConfig,
                 rng: np.random.Generator | None = None) -> RouterSelection:
    """Score local tokens against the text embedding and keep the top prefix:
    route_batch on a batch of one. Given a generator and sigma > 0, one
    normal per token perturbs the order; otherwise nothing is drawn."""
    v = _matrix(z_v, "image tokens")
    noise = None
    if rng is not None and cfg.train_noise_sigma > 0.0:
        noise = cfg.train_noise_sigma * rng.standard_normal(len(v))
    starts = [0, len(v)]
    return image_selection(route_batch(v, starts, z_x, cfg.gamma, noise), starts, 0, cfg.gamma)
