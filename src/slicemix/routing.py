"""Local token compression and the text-guided relevance router.

Patch token grids are condensed to a fixed number of query tokens (the
pipeline compresses all of a batch's patches in one stacked pass), then
scored against the text embedding: scores = softmax over image tokens of the
text-averaged similarity z_v . z_x^T. Tokens are kept greedily from the top
score down until the accumulated mass reaches the threshold gamma
(inclusive); in training mode Gaussian noise perturbs the sort order only,
while the gamma accounting always uses the noiseless scores.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .adapters import QFormerParams, qformer_forward
from .numerics import softmax

__all__ = [
    "DEFAULT_NUM_QUERIES",
    "DEFAULT_GAMMA",
    "RouterConfig",
    "RouterSelection",
    "compress_local",
    "relevance_scores",
    "select_prefix",
    "route_tokens",
    "apply_selection",
]

DEFAULT_NUM_QUERIES = 144
DEFAULT_GAMMA = 0.75


@dataclass(frozen=True)
class RouterConfig:
    gamma: float = DEFAULT_GAMMA
    train_noise_sigma: float = 0.1
    training_mode: bool = False

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
    return qformer_forward(t, params)


def relevance_scores(z_v, z_x) -> np.ndarray:
    """Noiseless router scores: softmax over image tokens of the text-averaged
    similarity matrix z_v . z_x^T."""
    v = np.asarray(z_v, dtype=np.float64)
    x = np.asarray(z_x, dtype=np.float64)
    if v.ndim != 2 or x.ndim != 2 or v.shape[0] == 0 or x.shape[0] == 0:
        raise ValueError("router inputs must be non-empty 2-D matrices")
    if v.shape[1] != x.shape[1]:
        raise ValueError("image and text tokens must share their feature width")
    return softmax((v @ x.T).sum(axis=1) / x.shape[0])


def select_prefix(scores: np.ndarray, gamma: float,
                  order: np.ndarray | None = None):
    """Shortest prefix of `order` whose noiseless score mass reaches gamma.

    The cut is inclusive: the token whose addition reaches gamma is kept.
    If the total mass falls short of gamma (only possible through float
    rounding at gamma = 1), every token is kept.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if order is None:
        order = np.argsort(-scores, kind="stable")  # ties keep the lower index first
    cum = np.cumsum(scores[order])
    reached = np.nonzero(cum >= gamma)[0]
    cut = int(reached[0]) if reached.size else len(order) - 1
    return order[:cut + 1].astype(np.int64), float(cum[cut])


def route_tokens(z_v, z_x, cfg: RouterConfig,
                 rng: np.random.Generator | None = None) -> RouterSelection:
    """Score local tokens against the text embedding and keep the top prefix."""
    scores = relevance_scores(z_v, z_x)
    if cfg.training_mode and cfg.train_noise_sigma > 0.0:
        if rng is None:
            raise ValueError("training-mode routing needs a random generator")
        noisy = scores + cfg.train_noise_sigma * rng.standard_normal(scores.shape)
        order = np.argsort(-noisy, kind="stable")
    else:
        order = np.argsort(-scores, kind="stable")
    kept, cum = select_prefix(scores, cfg.gamma, order)
    return RouterSelection(gamma=cfg.gamma, kept_indices=kept, scores=scores,
                           cumulative_at_cut=cum)


def apply_selection(z_v, sel: RouterSelection) -> np.ndarray:
    """Gather the kept token rows in kept order."""
    v = np.asarray(z_v, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError("token matrix must be 2-D")
    idx = np.asarray(sel.kept_indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= v.shape[0]):
        raise IndexError("selection index out of range")
    return v[idx]
