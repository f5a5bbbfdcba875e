"""Local token compression and the text-guided relevance router.

Patch token grids are condensed to a fixed number of query tokens (the
pipeline compresses all of a batch's patches in one stacked pass), then
scored against the text embedding: scores = softmax over image tokens of the
text-averaged similarity z_v . z_x^T. Tokens are kept greedily from the top
score down until the accumulated mass reaches the threshold gamma
(inclusive). Given a generator and a positive noise scale, Gaussian noise
perturbs the sort order only, and the gamma accounting always uses the
noiseless scores; without a generator routing is deterministic.

One batched pass routes every image of a batch: route_batch lays the
images out as the rows of one padded array and scores, sorts and cuts all
rows at once. route_tokens is its batch of one.
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
    "relevance_scores",
    "select_prefix",
    "route_batch",
    "route_tokens",
    "apply_selection",
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
    never falls and the entries short of gamma all come first."""
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

    Returns one RouterSelection per image, then three views of the cut:
    each image's rows of z_v in keeping order, as many per image as the
    most any image keeps; the kept count n_kept per image; and the mask of
    each row's first n_kept slots. Past them the rows are padding and may
    point anywhere, even past the last row.
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
    kept_lens = n_kept.tolist()
    sels = [RouterSelection(gamma, o[:m], s[:k], float(c[m - 1]))
            for o, s, c, k, m in zip(order, scores, cum, lens, kept_lens)]
    most = max(kept_lens)
    return sels, order[:, :most] + starts[:-1, None], n_kept, slots[:most] < n_kept[:, None]


def relevance_scores(z_v, z_x) -> np.ndarray:
    """Noiseless router scores: softmax over image tokens of their similarity
    to the text, averaged over the text tokens, as route_batch computes them."""
    v = _matrix(z_v, "image tokens")
    return route_batch(v, [0, len(v)], z_x, 1.0)[0][0].scores


def select_prefix(scores: np.ndarray, gamma: float,
                  order: np.ndarray | None = None):
    """Shortest prefix of `order` whose non-negative score mass reaches gamma.

    The cut is inclusive: the token whose addition reaches gamma is kept.
    If the total mass falls short of gamma (only possible through float
    rounding at gamma = 1), every token is kept.
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
    return route_batch(v, [0, len(v)], z_x, cfg.gamma, noise)[0][0]


def apply_selection(z_v, sel: RouterSelection) -> np.ndarray:
    """Gather the kept token rows in kept order."""
    v = np.asarray(z_v, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError("token matrix must be 2-D")
    idx = np.asarray(sel.kept_indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= v.shape[0]):
        raise IndexError("selection index out of range")
    return v[idx]
