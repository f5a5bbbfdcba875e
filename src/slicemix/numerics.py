"""Shared dense numerics: stable softmax/softplus, GELU, scaled dot-product
attention with its vector-Jacobian product, seeded generators, and a central
difference gradient checker.

Everything operates on plain float64 numpy arrays; a "matrix" is a 2-D array
in row-major order and a "vector" is 1-D; attention also takes stacked keys
and values. Outputs are finite whenever inputs are finite.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "make_rng",
    "softmax",
    "softplus",
    "gelu",
    "gelu_grad",
    "attention_weights",
    "cross_attention",
    "cross_attention_vjp",
    "fd_grad_check",
]

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
_erf = None  # scipy.special.erf once the first GELU call has bound it


def _load_erf():
    """Bind scipy.special.erf. Only GELU needs scipy, and importing it is most
    of a cold start, so commands that never run a GELU never load it."""
    global _erf
    from scipy.special import erf
    _erf = erf
    return erf


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator. Equal seeds give bitwise-equal draw sequences."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def softmax(v) -> np.ndarray:
    """Stable softmax of a vector, or of each row of a matrix or stack (the max
    is subtracted before exponentiating)."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("empty vector or matrix")
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softplus(x):
    """log(1 + e^x), computed stably for large |x|. Works elementwise."""
    return np.logaddexp(0.0, x)


def gelu(x):
    """Exact (erf-based) GELU."""
    x = np.asarray(x, dtype=np.float64)
    erf = _erf or _load_erf()
    return 0.5 * x * (1.0 + erf(x / _SQRT2))


def gelu_grad(x):
    """Derivative of the erf-based GELU."""
    x = np.asarray(x, dtype=np.float64)
    erf = _erf or _load_erf()
    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return cdf + x * pdf


def attention_weights(queries, keys) -> np.ndarray:
    """Row-stochastic weights softmax(queries . keys^T / sqrt(d)), one row per
    query (per stacked key matrix); callers have already checked the shapes."""
    return softmax(queries @ keys.swapaxes(-1, -2) / math.sqrt(queries.shape[-1]))


def cross_attention(queries, keys, values) -> np.ndarray:
    """Scaled dot-product attention.

    Each output row i is sum_j w_ij * values[j] with
    w_i = softmax(queries[i] . keys^T / sqrt(d)); weight rows sum to 1.
    """
    q, k, v = [np.asarray(a, dtype=np.float64) for a in (queries, keys, values)]
    if q.ndim != 2 or k.ndim not in (2, 3) or v.ndim != k.ndim:
        raise ValueError("attention takes 2-D queries and 2-D or stacked 3-D keys and values")
    if q.shape[1] != k.shape[-1]:
        raise ValueError(f"query dim {q.shape[1]} does not match key dim {k.shape[-1]}")
    if k.shape[:-1] != v.shape[:-1]:
        raise ValueError(f"{k.shape[-2]} key rows vs {v.shape[-2]} value rows")
    if k.shape[-2] == 0:
        raise ValueError("attention needs at least one key")
    return attention_weights(q, k) @ v


def cross_attention_vjp(queries, keys, values, dout, weights):
    """Gradients of cross_attention w.r.t. (queries, keys, values) given dL/dout
    and the attention weights the forward pass saved, whose arrays need no
    second shape check; with stacked keys the query gradient sums over the stack.
    """
    n_q, d = queries.shape
    dv = weights.swapaxes(-1, -2) @ dout
    dw = dout @ values.swapaxes(-1, -2)
    # gradient of the scaled scores q . k^T / sqrt(d)
    ds = weights * (dw - (dw * weights).sum(axis=-1, keepdims=True)) / math.sqrt(d)
    dq = ds.swapaxes(0, -2).reshape(n_q, -1) @ keys.reshape(-1, d)
    return dq, ds.swapaxes(-1, -2) @ queries, dv


def fd_grad_check(f, analytic_grad, point, step: float = 1e-5) -> float:
    """Central-difference check of an analytic gradient.

    Compares (f(p + h e_i) - f(p - h e_i)) / 2h against analytic_grad[i] and
    returns the worst |difference| / max(1, |analytic|) over coordinates; the
    mixed denominator keeps the check meaningful near zero gradients.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    point = np.asarray(point, dtype=np.float64).ravel()
    grad = np.asarray(analytic_grad, dtype=np.float64).ravel()
    if point.shape != grad.shape:
        raise ValueError("gradient and point must have the same length")
    worst = 0.0
    for i in range(point.size):
        hi = point.copy()
        lo = point.copy()
        hi[i] += step
        lo[i] -= step
        f_hi = float(f(hi))
        f_lo = float(f(lo))
        if not (np.isfinite(f_hi) and np.isfinite(f_lo)):
            raise ValueError("non-finite function value in gradient check")
        fd = (f_hi - f_lo) / (2.0 * step)
        err = abs(fd - grad[i]) / max(1.0, abs(grad[i]))
        if err > worst:
            worst = err
    return worst
