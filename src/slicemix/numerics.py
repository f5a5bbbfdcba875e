"""Shared dense numerics: stable softmax/softplus, the normal CDF and GELU's
derivative, scaled dot-product attention with its vector-Jacobian product,
seeded generators, a central difference gradient checker, and the checks the
library's doors run on a count or a number.

Everything operates on plain float64 numpy arrays; a "matrix" is a 2-D array
in row-major order and a "vector" is 1-D; attention also takes stacked keys.
Outputs are finite whenever inputs are finite.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

__all__ = [
    "check_count",
    "check_finite",
    "make_rng",
    "softmax",
    "softplus",
    "normal_cdf",
    "gelu_grad",
    "attention_weights",
    "cross_attention_vjp",
    "fd_grad_check",
]

_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
FD_STEP = 1e-5   # the step h of fd_grad_check's central differences
# the widest a model width or bilinear's d may be: a width x width array is 128 MiB
MAX_WIDTH = 4096
_FLOAT_MAX = sys.float_info.max
# normal_cdf's table: centres 1/512 apart span [-8.5, 8.5], past which Φ lies
# within 1e-17 of 0 or 1, and each value takes its nearest centre. The
# constants are 0-d arrays because numpy converts a Python float operand anew
# on every call.
_CDF_EDGE = 8.5
_CDF_PER_UNIT = 512
_CDF_LOW, _CDF_HIGH, _CDF_SCALE, _CDF_SHIFT, _ZERO = (np.array(v) for v in (
    -_CDF_EDGE, _CDF_EDGE, _CDF_PER_UNIT, _CDF_EDGE * _CDF_PER_UNIT + 0.5, 0.0))


@functools.cache
def _cdf_table() -> np.ndarray:
    """normal_cdf's (6, 8705) table, built on first use from math.erfc and
    math.exp alone, so its bytes do not depend on numpy's SIMD dispatch, a
    centre at a time into one float64 buffer. Column j holds Φ's degree-4
    Taylor coefficients c_0..c_4 about its centre m = j/512 - 8.5, then m:
    c_0 = Φ(m), and c_k = (-1)^(k-1) He_(k-1)(m) φ(m) / k! for k >= 1, He
    being the probabilists' Hermite polynomials. The end columns hold Φ = 0
    and 1 outright."""
    n = round(2 * _CDF_EDGE * _CDF_PER_UNIT)

    def column(j):
        m = j / _CDF_PER_UNIT - _CDF_EDGE   # exact: a multiple of 1/512
        pdf = math.exp(-0.5 * m * m) / math.sqrt(2.0 * math.pi)
        return (0.5 * math.erfc(-m / math.sqrt(2.0)), pdf, -m * pdf / 2.0,
                (m * m - 1.0) * pdf / 6.0, -m * (m * m - 3.0) * pdf / 24.0, m)

    rows = np.fromiter(map(column, range(n + 1)), np.dtype((np.float64, 6)), n + 1)
    rows[[0, n], :5] = [0.0] * 5, [1.0] + [0.0] * 4
    return rows.T.copy()


def normal_cdf(x) -> np.ndarray:
    """The standard normal CDF Φ, elementwise; GELU's one pass over its input.

    Each value gathers its nearest centre's column of the table and runs
    Horner's rule on its offset from that centre, in place. Against
    0.5 * math.erfc(-x / sqrt(2)), the relative error is at most 4e-15 for
    x >= -3 (a few ulps, much of it that reference's own rounding), the
    absolute error at most 4e-16 everywhere, and a multiple of 1/512 gets the
    reference itself. Within half a step of ±8.5 and past it the result is
    exactly 0 or 1, ±inf included; NaN stays NaN.
    """
    # ±inf becomes finite and NaN stays NaN; ±8.5 itself falls in an end column
    x = np.minimum(np.maximum(x, _CDF_LOW), _CDF_HIGH)
    u = x * _CDF_SCALE
    u += _CDF_SHIFT
    # fmax sends NaN to column 0, whose NaN offset keeps the result NaN
    c = _cdf_table().take(np.fmax(u, _ZERO).astype(np.intp), axis=1)
    t = x - c[5]
    y = c[4] * t
    for k in 3, 2, 1:
        y += c[k]
        y *= t
    y += c[0]
    return y


def check_count(name: str, value, least: int, most: int | None = None) -> None:
    """Check that `value` is an integer, not a bool, in [least, most], or raise a ValueError."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least
            or most is not None and value > most):
        rule = (f"be in [{least}, {most}]" if most is not None
                else "be non-negative" if least == 0 else f"be at least {least}")
        raise ValueError(f"{name} must {rule} and an integer")


def check_finite(name: str, value, low: float, high: float, ends: str) -> None:
    """Check that `value` is a number, not a bool, from low to high, each end closed or
    open as `ends` ("(]", "[)", ...) says, or raise a ValueError; an infinite end is open,
    and a whole number past the float range fails too. It only compares, so a training
    step that calls it makes no C call for it."""
    try:
        ok = ((low < value or ends[0] == "[" and value == low)
              and (value < high or ends[1] == "]" and value == high)
              and -_FLOAT_MAX <= value <= _FLOAT_MAX
              and value.__class__ not in (bool, np.bool_, np.ndarray))
    except TypeError:   # a string or another non-number
        ok = False
    if not ok:
        rule = (f"be {'positive' if ends[0] == '(' else 'non-negative'} and finite"
                if (low, high) == (0, math.inf) else f"lie in {ends[0]}{low:g}, {high:g}{ends[1]}")
        raise ValueError(f"{name} must {rule}")


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator. Equal seeds give bitwise-equal draw sequences."""
    check_count("seed", seed, 0)
    return np.random.Generator(np.random.PCG64(seed))


def softmax(v) -> np.ndarray:
    """Stable softmax of a vector, or of each row of a matrix or stack (the max
    is subtracted before exponentiating)."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("empty vector or matrix")
    return _softmax(v)


def _softmax(v: np.ndarray) -> np.ndarray:
    """softmax of a non-empty float64 array, for callers that built it; a
    running total adds each row in order at any length, as attention_weights does."""
    e = np.exp(v - np.maximum.reduce(v, axis=-1, keepdims=True))
    return e / np.add.accumulate(e, axis=-1)[..., -1:]


def softplus(x):
    """log(1 + e^x), computed stably for large |x|. Works elementwise."""
    return np.logaddexp(0.0, x)


def gelu_grad(x, cdf):
    """Derivative Φ(x) + x φ(x) of the exact GELU x Φ(x), given `cdf` = normal_cdf(x)."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.exp(-0.5 * x * x)   # then in place: the pdf, x times it, plus the cdf
    grad *= _INV_SQRT_2PI
    grad *= x
    grad += cdf
    return grad


def attention_weights(queries, keys) -> np.ndarray:
    """Row-stochastic weights softmax(queries . keys^T / sqrt(d)), one row per
    query (per stacked key matrix); callers have already checked the shapes.
    The bytes are softmax's: both add a row's keys in key order. Once the stack
    has more than twice as many rows as keys, the whole softmax runs on a
    key-major copy, whose few long rows numpy reduces faster than many short
    ones, and is written back row-major; on fewer rows the copy costs more
    than it saves, and a running total adds each row in order."""
    s = queries @ keys.swapaxes(-1, -2)
    s /= math.sqrt(queries.shape[-1])
    rows = s.reshape(-1, s.shape[-1])   # a view: s is fresh and contiguous
    if rows.shape[0] > 2 * rows.shape[1]:
        t = rows.T.copy()
        t -= np.maximum.reduce(t, axis=0)
        np.exp(t, out=t)
        t /= np.add.reduce(t, axis=0)   # key by key, each step a pass over every row
        rows[...] = t.T
    else:
        rows -= np.maximum.reduce(rows, axis=1, keepdims=True)
        np.exp(s, out=s)
        s /= np.add.accumulate(s, axis=-1)[..., -1:]
    return s


def cross_attention_vjp(tokens, dout, weights):
    """Gradient of attention_weights(queries, tokens) @ tokens w.r.t. the
    queries, given dL/dout and the attention weights the forward pass saved,
    whose arrays need no second shape check; the weights carry all it needs
    of the queries. With stacked tokens the gradient sums over the stack."""
    n_q, d = weights.shape[-2], tokens.shape[-1]
    # gradient of the scaled scores q . t^T / sqrt(d),
    # weights * (dw - sum(dw * weights)) / sqrt(d), formed in place in dw
    ds = dout @ tokens.swapaxes(-1, -2)
    ds -= np.add.reduce(ds * weights, axis=-1, keepdims=True)
    ds *= weights
    ds /= math.sqrt(d)
    return ds.swapaxes(0, -2).reshape(n_q, -1) @ tokens.reshape(-1, d)


def fd_grad_check(f, analytic_grad, point) -> float:
    """Central-difference check of an analytic gradient.

    Compares (f(p + h e_i) - f(p - h e_i)) / 2h against analytic_grad[i] and
    returns the worst |difference| / max(1, |analytic|) over coordinates; the
    mixed denominator keeps the check meaningful near zero gradients.
    """
    point = np.asarray(point, dtype=np.float64).ravel()
    grad = np.asarray(analytic_grad, dtype=np.float64).ravel()
    if point.shape != grad.shape:
        raise ValueError("gradient and point must have the same length")
    if not np.isfinite(grad).all():
        raise ValueError("non-finite analytic gradient in gradient check")
    worst = 0.0
    for i in range(point.size):
        hi = point.copy()
        lo = point.copy()
        hi[i] += FD_STEP
        lo[i] -= FD_STEP
        f_hi = float(f(hi))
        f_lo = float(f(lo))
        if not (np.isfinite(f_hi) and np.isfinite(f_lo)):
            raise ValueError("non-finite function value in gradient check")
        fd = (f_hi - f_lo) / (2.0 * FD_STEP)
        err = abs(fd - grad[i]) / max(1.0, abs(grad[i]))
        if err > worst:
            worst = err
    return worst
