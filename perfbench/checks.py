"""Output checks made apart from the program.

Every expected value here is recomputed in plain numpy (and the standard
library's `math.erf`) from the formulas the module docstrings state, or is a
property the method must have. Nothing is compared against a stored copy of
the program's own output. Each check raises `CheckError` on a wrong input;
`test_checks.py` feeds each one such an input.
"""

from __future__ import annotations

import math

import numpy as np


class CheckError(AssertionError):
    """A program output disagreed with its independent check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# -- slicing -----------------------------------------------------------------

def brute_force_plan(width: int, height: int, base: int, max_grid: int):
    """(m, n) by enumerating every grid: maximise min(W*H, W*H*s^2) with
    s = min(m*base/W, n*base/H); ties within 1e-9 relative go to the smaller
    wasted area, then the smaller (m, n)."""
    area = float(width) * float(height)
    rows = []
    for m in range(1, max_grid + 1):
        for n in range(1, max_grid + 1):
            s = min(m * base / width, n * base / height)
            used = min(area, area * s * s)
            rows.append((used, max(0.0, float(m * base * n * base) - used), m, n))
    best = max(r[0] for r in rows)
    tied = [r for r in rows if r[0] >= best * (1.0 - 1e-9)]
    _, _, m, n = min(tied, key=lambda r: (r[1], r[2], r[3]))
    return m, n


def check_plan(width: int, height: int, base: int, max_grid: int, plan) -> None:
    m, n = brute_force_plan(width, height, base, max_grid)
    require((plan.m, plan.n) == (m, n),
            f"plan for {width}x{height}: program {plan.m}x{plan.n}, enumeration {m}x{n}")


def check_tiles(tiles, plan) -> None:
    require(len(tiles) == plan.m * plan.n,
            f"{len(tiles)} tiles for a {plan.m}x{plan.n} plan")
    for t in tiles:
        require(np.shape(t) == (plan.base, plan.base),
                f"tile of shape {np.shape(t)}, expected {plan.base}x{plan.base}")


# -- pipeline forward, recomputed ------------------------------------------

def _softmax(a, axis=-1):
    e = np.exp(a - a.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


_erf = np.vectorize(math.erf, otypes=[np.float64])


def _gelu(x):
    return 0.5 * x * (1.0 + _erf(x / math.sqrt(2.0)))


def _query_head(tokens, qf):
    keys = tokens @ qf.wk
    values = tokens @ qf.wv
    weights = _softmax(qf.queries @ keys.T / math.sqrt(qf.queries.shape[1]), axis=1)
    return weights @ values @ qf.wo


def ref_global(tokens, params):
    """Noiseless gate on the mean token, mixing the GELU MLP and the query head."""
    g = _softmax(tokens.mean(axis=0) @ params.gate.w_g)
    mlp = _gelu(tokens @ params.mlp.w1 + params.mlp.b1) @ params.mlp.w2 + params.mlp.b2
    return g[0] * mlp + g[1] * _query_head(tokens, params.qf_global)


def ref_route(local, text, gamma: float):
    """Softmax over tokens of the text-averaged similarity, then the shortest
    descending-score prefix whose mass reaches gamma (inclusive)."""
    scores = _softmax((local @ text.T).mean(axis=1))
    order = np.argsort(-scores, kind="stable")
    cum = np.cumsum(scores[order])
    hit = np.flatnonzero(cum >= gamma)
    cut = int(hit[0]) if hit.size else len(order) - 1
    return order[:cut + 1], scores, float(cum[cut])


def ref_forward(sample, params, text, gamma: float, mode: str = "full"):
    """Evaluation-mode prediction and kept indices (None without a local branch)."""
    rows = []
    kept = None
    if mode != "local_only":
        rows.append(ref_global(sample.global_tokens, params))
    if mode != "global_only":
        local = np.vstack([_query_head(t, params.qf_local) for t in sample.patch_tokens])
        kept, _, _ = ref_route(local, text, gamma)
        rows.append(local[kept])
    return np.vstack(rows).mean(axis=0) @ params.readout, kept


def ref_eval_loss(samples, params, text, gamma: float, mode: str = "full") -> float:
    total = 0.0
    for s in samples:
        r = ref_forward(s, params, text, gamma, mode)[0] - s.target
        total += 0.5 * float(r @ r)
    return total / len(samples)


PRED_RTOL = 1e-10
TIE_RTOL = 1e-12


def check_forward(sample, params, text, gamma: float, pred, kept) -> bool:
    """Prediction and kept indices against the recomputation.

    Kept indices may differ only at a near-tie: equally long selections whose
    scores agree rank by rank within TIE_RTOL, or selections one token apart
    whose shorter prefix sits within TIE_RTOL of gamma. Then the prediction
    cannot be compared and False is returned; True means both matched."""
    ref_pred, ref_kept = ref_forward(sample, params, text, gamma)
    kept = np.asarray(kept)
    if not np.array_equal(kept, ref_kept):
        local = np.vstack([_query_head(t, params.qf_local) for t in sample.patch_tokens])
        scores = ref_route(local, text, gamma)[1]
        a, b = scores[kept], scores[ref_kept]
        if a.size == b.size:
            tied = bool(np.all(np.abs(a - b) <= TIE_RTOL * np.abs(b)))
        else:
            tied = abs(a.size - b.size) == 1 and abs(min(a.sum(), b.sum()) - gamma) <= TIE_RTOL
        require(tied, f"kept {kept.tolist()} but the recomputation keeps {ref_kept.tolist()}")
        return False
    err = float(np.max(np.abs(pred - ref_pred)))
    require(err <= PRED_RTOL * max(1.0, float(np.max(np.abs(ref_pred)))),
            f"prediction differs from the recomputation by {err:.3e}")
    return True


def check_prefix_minimal(selection, gamma: float) -> None:
    """The kept prefix reaches gamma and dropping its last token would not."""
    scores = np.asarray(selection.scores)
    kept = np.asarray(selection.kept_indices)
    require(kept.size >= 1, "no token kept")
    require(np.unique(kept).size == kept.size, "a token is kept twice")
    require(bool(np.all(np.diff(scores[kept]) <= 0.0)), "kept tokens not in descending score order")
    mass = float(np.sum(scores[kept]))
    require(mass >= gamma * (1.0 - 1e-12) or kept.size == scores.size,
            f"kept mass {mass!r} is below gamma {gamma}")
    require(mass - float(scores[kept[-1]]) < gamma,
            f"prefix of {kept.size} tokens is not minimal: mass {mass!r} without its last token")


# -- gradients ---------------------------------------------------------------

FD_STEP = 1e-5      # criterion 08's step
FD_TOL = 1e-4       # and its tolerance on the pipeline gradient


def check_fd(fd, grad, tol: float = FD_TOL) -> float:
    """Criterion 08's error measure, max |fd - analytic| / max(1, |analytic|),
    must stay below tol; returns it."""
    fd = np.asarray(fd, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    require(fd.shape == grad.shape, "FD and analytic gradients differ in length")
    require(bool(np.all(np.isfinite(fd))), "non-finite finite difference")
    err = float(np.max(np.abs(fd - grad) / np.maximum(1.0, np.abs(grad))))
    require(err < tol, f"FD gradient error {err:.3e} exceeds {tol:g}")
    return err


def check_directional(f_plus: float, f_minus: float, grad, direction,
                      step: float = FD_STEP, tol: float = 1e-6) -> float:
    """Central difference along one direction against grad . direction."""
    fd = (f_plus - f_minus) / (2.0 * step)
    exact = float(np.dot(grad, direction))
    err = abs(fd - exact) / max(1.0, abs(exact))
    require(np.isfinite(fd) and err < tol,
            f"directional derivative {fd!r} vs grad.d {exact!r} (error {err:.3e})")
    return err


# -- training ----------------------------------------------------------------

def check_train_report(report, init_eval: float) -> None:
    require(not report.diverged, f"{report.mode} run diverged")
    losses = np.array([row[2] for row in report.steps])
    require(losses.size == sum(report.config["steps"]),
            f"{losses.size} recorded steps, schedule has {sum(report.config['steps'])}")
    require(bool(np.all(np.isfinite(losses))), f"{report.mode} run has a non-finite loss")
    require(np.isfinite(report.final_eval) and report.final_eval < init_eval,
            f"final eval {report.final_eval!r} not below the initial {init_eval!r}")


def check_close(value: float, expected: float, rtol: float, what: str) -> None:
    require(abs(value - expected) <= rtol * max(1.0, abs(expected)),
            f"{what}: {value!r} vs recomputed {expected!r}")


# -- bilinear ----------------------------------------------------------------

def best_rank1_residual(x) -> float:
    """0.5 ||X - X_1||_F^2 for the best rank-1 X_1: the squared Frobenius
    norm minus the largest squared singular value, which for the symmetric X
    is the largest squared eigenvalue."""
    lam = np.linalg.eigvalsh(x)
    return 0.5 * float(np.sum(lam * lam) - np.max(lam * lam))


def check_gd_trace(trace, c: float) -> None:
    """Descent from the antisymmetric start ends at the spurious point:
    loss (1+c)^2/2 and |u|^2 = 1-c."""
    sub = 0.5 * (1.0 + c) ** 2
    require(abs(trace.final_loss - sub) <= 1e-4 * sub,
            f"gd final loss {trace.final_loss!r}, spurious level {sub!r}")
    usq = float(trace.norm_u[-1]) ** 2
    require(abs(usq - (1.0 - c)) < 1e-5, f"gd |u|^2 = {usq!r}, expected 1-c = {1.0 - c!r}")


def check_alt_trace(trace, x) -> None:
    best = best_rank1_residual(x)
    require(abs(trace.final_loss - best) < 1e-8,
            f"alternating final loss {trace.final_loss!r}, best rank-1 residual {best!r}")


def check_csv(csv: str, trace, steps: int) -> None:
    """steps + 1 data rows under a header, and the last row's loss column
    parses back to final_loss; read without splitting a 10^5-row string."""
    require(csv.endswith("\n"), "CSV does not end with a newline")
    rows = csv.count("\n") - 1
    require(rows == steps + 1, f"CSV has {rows} rows, expected {steps + 1}")
    header = csv[:csv.index("\n")]
    last = csv[csv.rindex("\n", 0, len(csv) - 1) + 1:-1]
    require(header.split(",")[-1] == "loss", "CSV header does not end in loss")
    require(float(last.split(",")[-1]) == trace.final_loss,
            "last CSV loss does not parse back to final_loss")
