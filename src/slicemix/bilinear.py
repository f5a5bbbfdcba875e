"""Rank-one factorization laboratory for the symmetric target X = a b^T + b a^T.

The objective L(u, v) = 0.5 * ||u v^T - X||_F^2 is studied under two update
rules: simultaneous gradient descent on (u, v), and exact alternating
minimization (v = X u / |u|^2 then u = X v / |v|^2). With u in span{a, b},
u = alpha a + beta b and the Gram matrix M = [[1, c], [c, 1]] (c = a.b) has
eigenpairs (1 + c, (1,1)/sqrt(2)) and (1 - c, (1,-1)/sqrt(2)); tau and nu are
the coordinates of z = (alpha, beta) along those eigenvectors.

From mirror-symmetric starts (v0 = beta0 a + alpha0 b) gradient descent
reduces exactly to the scalar recurrences

    tau' = (1 + eta (1 + c - |u|^2)) tau,   nu' = (1 + eta (1 - c - |u|^2)) nu,

whose fixed points are |u|^2 = 1 + c (loss 0.5 (1-c)^2, the optimum) and
|u|^2 = 1 - c (loss 0.5 (1+c)^2, spurious, reached only when tau0 = 0).
The spurious point repels the tau direction, so long raw-vector runs escape
it through float rounding; the trace runner therefore propagates gradient
descent in the exact coordinate form and keeps the raw-vector update
available as `gd_vector` for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import MAX_WIDTH, check_count, check_finite, make_rng

__all__ = [
    "BilinearInstance",
    "BilinearState",
    "Trace",
    "check_instance",
    "make_instance",
    "coords_of",
    "eigen_coords",
    "vector_from_coords",
    "energy",
    "loss",
    "loss_grads",
    "loss_from_coords",
    "gd_step",
    "gd_coord_step",
    "alt_step",
    "best_rank1_loss_svd",
    "check_run",
    "run_experiment",
    "METHODS",
    "INITS",
    "resolve_init",
]

CLASSIFY_RTOL = 1e-4
DIVERGENCE_NORM = 1e6
DEGENERATE_TOL = 1e-12
GD_BLOCK_ROWS = 4096   # rows of the float recurrence per block
STOP_WINDOW = 100      # a plateau compares each row's loss with the one this many rows back
CSV_CHUNK_ROWS = 4096  # rows formatted per joined chunk of Trace.to_csv
DEFAULT_D = 16
DEFAULT_ETA = 0.01
DEFAULT_INIT = "generic"

INITS = {
    "generic": (0.9, 0.1),
    "antisym": (0.1, -0.1),
    "sym": (0.1, 0.1),
}


@dataclass(frozen=True)
class BilinearInstance:
    a: np.ndarray
    b: np.ndarray
    c: float
    x: np.ndarray  # (d, d) dense target
    m: np.ndarray  # (2, 2) Gram matrix of (a, b)

    @property
    def lam_plus(self) -> float:
        return 1.0 + self.c

    @property
    def lam_minus(self) -> float:
        return 1.0 - self.c

    @property
    def optimal_loss(self) -> float:
        return 0.5 * (1.0 - self.c) ** 2

    @property
    def suboptimal_loss(self) -> float:
        return 0.5 * (1.0 + self.c) ** 2


@dataclass
class BilinearState:
    """One (u, v) iterate with u's eigen coordinates."""

    u: np.ndarray
    v: np.ndarray
    tau: float
    nu: float
    eta: float

    @classmethod
    def from_vectors(cls, inst: BilinearInstance, u, v, eta: float) -> "BilinearState":
        tau, nu = eigen_coords(*coords_of(inst, u))
        return cls(u=np.asarray(u, dtype=np.float64),
                   v=np.asarray(v, dtype=np.float64), tau=tau, nu=nu, eta=eta)


def check_instance(d: int, c: float) -> None:
    """make_instance's check of its arguments, for a caller that checks before it builds."""
    check_finite("c", c, -1.0, 1.0, "()")
    check_count("d", d, 2, MAX_WIDTH)


def make_instance(d: int = DEFAULT_D, c: float = 0.5, seed: int = 0) -> BilinearInstance:
    """Random unit a plus a Gram-Schmidt-mixed unit b with a.b = c exactly."""
    check_instance(d, c)
    rng = make_rng(seed)
    a = rng.standard_normal(d)
    a = a / np.linalg.norm(a)
    g = rng.standard_normal(d)
    g = g - (a @ g) * a
    b_perp = g / np.linalg.norm(g)
    b = c * a + np.sqrt(1.0 - c * c) * b_perp
    x = np.outer(a, b) + np.outer(b, a)
    m = np.array([[1.0, c], [c, 1.0]])
    return BilinearInstance(a=a, b=b, c=float(c), x=x, m=m)


def coords_of(inst: BilinearInstance, u) -> tuple[float, float]:
    """(alpha, beta) with u = alpha a + beta b, from the Gram system."""
    u = np.asarray(u, dtype=np.float64)
    pa = float(inst.a @ u)
    pb = float(inst.b @ u)
    det = 1.0 - inst.c * inst.c
    return (pa - inst.c * pb) / det, (pb - inst.c * pa) / det


def eigen_coords(alpha: float, beta: float) -> tuple[float, float]:
    """(tau, nu) from (alpha, beta), or back: the rotation is its own inverse."""
    s = 1.0 / np.sqrt(2.0)
    return (alpha + beta) * s, (alpha - beta) * s


def vector_from_coords(inst: BilinearInstance, alpha: float, beta: float) -> np.ndarray:
    return alpha * inst.a + beta * inst.b


def energy(inst: BilinearInstance, tau: float, nu: float) -> float:
    """|u|^2 = z^T M z = (1+c) tau^2 + (1-c) nu^2 for u in the span."""
    return inst.lam_plus * tau * tau + inst.lam_minus * nu * nu


def loss(u, v, inst: BilinearInstance) -> float:
    r = np.outer(u, v) - inst.x
    return 0.5 * float(np.vdot(r, r))


def loss_grads(u, v, inst: BilinearInstance):
    """(d/du, d/dv) of the loss: ((u v^T - X) v, (v u^T - X) u)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    r = np.outer(u, v) - inst.x
    return r @ v, r.T @ u


def loss_from_coords(inst: BilinearInstance, tau: float, nu: float) -> float:
    """Loss at the mirror pair u = alpha a + beta b, v = beta a + alpha b.

    In the eigenbasis of X the residual is diagonal-plus-skew:
    0.5 [ (1+c)^2 (tau^2-1)^2 + (1-c)^2 (1-nu^2)^2 + 2 (1-c^2) tau^2 nu^2 ].
    Works elementwise on arrays. The squares of the first two terms are C
    `pow` (np.float_power), which differs from x * x in the last bit on about
    one value in a thousand.
    """
    lp, lm = inst.lam_plus, inst.lam_minus
    t2, n2 = tau * tau, nu * nu
    return 0.5 * (lp * lp * np.float_power(t2 - 1.0, 2.0)
                  + lm * lm * np.float_power(1.0 - n2, 2.0) + 2.0 * lp * lm * t2 * n2)


def gd_step(state: BilinearState, inst: BilinearInstance) -> BilinearState:
    """One simultaneous raw-vector descent step at `state.eta`; both gradients
    use the pre-step iterates. Coordinates are recomputed from the new vectors."""
    eta = state.eta
    check_finite("eta", eta, 0.0, np.inf, "()")
    gu, gv = loss_grads(state.u, state.v, inst)
    return BilinearState.from_vectors(inst, state.u - eta * gu, state.v - eta * gv, eta)


def gd_coord_step(tau: float, nu: float, u_norm_sq: float,
                  inst: BilinearInstance, eta: float) -> tuple[float, float]:
    """Exact eigen-coordinate form of the descent step on the mirror manifold."""
    c = inst.c
    return ((1.0 + eta * (1.0 + c - u_norm_sq)) * tau,
            (1.0 + eta * (1.0 - c - u_norm_sq)) * nu)


def alt_step(u, inst: BilinearInstance):
    """Exact alternating minimization: the closed-form optimum for each factor.

    Returns (v, u_next) with v = X u / |u|^2 and u_next = X v / |v|^2.
    """
    u = np.asarray(u, dtype=np.float64)
    nrm = float(u @ u)
    if nrm < 1e-24:
        raise ValueError("degenerate iterate")
    v = inst.x @ u / nrm
    u_next = inst.x @ v / float(v @ v)
    return v, u_next


def best_rank1_loss_svd(inst: BilinearInstance) -> float:
    """Independent oracle: residual loss of the SVD rank-1 truncation of X."""
    uu, ss, vt = np.linalg.svd(inst.x)
    x1 = ss[0] * np.outer(uu[:, 0], vt[0])
    r = inst.x - x1
    return 0.5 * float(np.vdot(r, r))


def resolve_init(init) -> tuple[float, float]:
    """Map a named or explicit (alpha0, beta0) start onto coordinates."""
    if isinstance(init, str):
        try:
            return INITS[init]
        except KeyError:
            raise ValueError(f"unknown init '{init}'; options: {sorted(INITS)}") from None
    coords = [float(x) for x in init]
    if len(coords) != 2:
        raise ValueError(f"init must be a name or (alpha0, beta0), got {len(coords)} values")
    if not np.isfinite(coords).all():
        raise ValueError("init coordinates must be finite")
    return coords[0], coords[1]


@dataclass
class Trace:
    """Per-step record of one experiment plus its outcome classification."""

    method: str
    init: tuple[float, float]
    eta: float
    c: float
    step: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    tau: np.ndarray
    nu: np.ndarray
    norm_u: np.ndarray
    norm_v: np.ndarray
    loss: np.ndarray
    diverged: bool
    classification: str
    final_loss: float
    steps_to_converge: int | None

    def to_csv(self) -> str:
        cols = (self.step, self.alpha, self.beta, self.tau, self.nu,
                self.norm_u, self.norm_v, self.loss)
        parts = ["step,alpha,beta,tau,nu,norm_u,norm_v,loss\n"]
        for i in range(0, self.step.size, CSV_CHUNK_ROWS):
            parts.append("".join(
                f"{step},{alpha!r},{beta!r},{tau!r},{nu!r},{norm_u!r},{norm_v!r},{loss_!r}\n"
                for step, alpha, beta, tau, nu, norm_u, norm_v, loss_ in
                zip(*(col[i:i + CSV_CHUNK_ROWS].tolist() for col in cols))))
        return "".join(parts)

    def summary(self) -> dict:
        return {
            "c": self.c,
            "eta": self.eta,
            "method": self.method,
            "init": list(self.init),
            "classification": self.classification,
            "final_loss": self.final_loss,
            "steps_to_converge": self.steps_to_converge,
        }


def classify(inst: BilinearInstance, final_loss: float, diverged: bool) -> str:
    """Label where a run landed: optimal / suboptimal / diverged / degenerate /
    undecided. c = 0 makes the two fixed-point losses coincide, so no label
    can discriminate and the run is reported degenerate."""
    if diverged:
        return "diverged"
    if abs(inst.c) < DEGENERATE_TOL or abs(inst.c) > 1.0 - DEGENERATE_TOL:
        return "degenerate"
    if abs(final_loss - inst.optimal_loss) <= CLASSIFY_RTOL * inst.optimal_loss:
        return "optimal"
    if abs(final_loss - inst.suboptimal_loss) <= CLASSIFY_RTOL * inst.suboptimal_loss:
        return "suboptimal"
    return "undecided"


def _gd_blocks(inst: BilinearInstance, alpha0: float, beta0: float, eta: float,
               rows: int):
    """Descent in exact eigen coordinates. The recurrence runs on plain floats,
    which overflow to inf without raising; each block's columns are then built
    as arrays, bitwise equal to stepping `energy`, `gd_coord_step` and
    `loss_from_coords` row by row. A block ends early after a row whose |u|^2
    exceeds DIVERGENCE_NORM^2, the first candidate for the divergence stop."""
    lp, lm, eta = inst.lam_plus, inst.lam_minus, float(eta)
    usq_limit = DIVERGENCE_NORM * DIVERGENCE_NORM
    tau, nu = (float(x) for x in eigen_coords(alpha0, beta0))
    while rows > 0:
        taus, nus, usqs = [], [], []
        for _ in range(min(rows, GD_BLOCK_ROWS)):
            usq = lp * tau * tau + lm * nu * nu
            taus.append(tau)
            nus.append(nu)
            usqs.append(usq)
            tau = (1.0 + eta * (lp - usq)) * tau
            nu = (1.0 + eta * (lm - usq)) * nu
            if usq > usq_limit:
                break
        rows -= len(taus)
        tau_col, nu_col, norm = np.array(taus), np.array(nus), np.sqrt(usqs)
        yield np.stack([*eigen_coords(tau_col, nu_col), tau_col, nu_col, norm, norm,
                        loss_from_coords(inst, tau_col, nu_col)])


def _vector_row(inst: BilinearInstance, u, v) -> np.ndarray:
    """The trace row of the raw iterates (u, v), as a one-column block."""
    alpha, beta = coords_of(inst, u)
    return np.array([alpha, beta, *eigen_coords(alpha, beta), np.linalg.norm(u),
                     np.linalg.norm(v), loss(u, v, inst)], dtype=np.float64)[:, None]


def _gd_vector_blocks(inst: BilinearInstance, alpha0: float, beta0: float, eta: float,
                      rows: int):
    state = BilinearState.from_vectors(inst, vector_from_coords(inst, alpha0, beta0),
                                       vector_from_coords(inst, beta0, alpha0), eta)
    for _ in range(rows):
        yield _vector_row(inst, state.u, state.v)
        state = gd_step(state, inst)


def _alternating_blocks(inst: BilinearInstance, alpha0: float, beta0: float, eta: float,
                        rows: int):
    """eta is unused. A row holds u and the v that minimizes against it."""
    u = vector_from_coords(inst, alpha0, beta0)
    for _ in range(rows):
        v, u_next = alt_step(u, inst)
        yield _vector_row(inst, u, v)
        u = u_next


# each method's row-block generator, by name
METHODS = {"gd": _gd_blocks, "gd_vector": _gd_vector_blocks,
           "alternating": _alternating_blocks}


def check_run(method: str, steps: int, eta: float) -> None:
    """run_experiment's checks of its step count and step size, for a caller
    that checks before it runs."""
    check_count("steps", steps, 0)
    if method in ("gd", "gd_vector"):
        check_finite("eta", eta, 0.0, np.inf, "()")


def run_experiment(inst: BilinearInstance, init=DEFAULT_INIT,
                   method: str = "alternating", steps: int = 1000,
                   eta: float = DEFAULT_ETA, stop_tol: float | None = 1e-6) -> Trace:
    """Run one trajectory and classify where it lands.

    methods:
      * "alternating" - exact per-factor minimization on raw vectors;
      * "gd"          - descent propagated in exact eigen coordinates
                        (mirror start v0 = beta0 a + alpha0 b is implied);
      * "gd_vector"   - descent on raw vectors from the same mirror start.

    The trace has one row per visited state, at most steps + 1 (steps=0 gives
    the initial row only). Every method stops at the first row t where norm_u
    exceeds DIVERGENCE_NORM (checked first; the run is flagged diverged) or,
    with stop_tol set, t >= STOP_WINDOW and |loss[t] - loss[t - STOP_WINDOW]|
    < stop_tol (t is reported as steps_to_converge). Overflow within a run
    raises no numpy warning: the divergence stop reports it.
    """
    check_run(method, steps, eta)
    if stop_tol is not None:
        check_finite("stop_tol", stop_tol, 0.0, np.inf, "()")
    alpha0, beta0 = resolve_init(init)
    if method not in METHODS:
        raise ValueError(f"unknown method '{method}'")
    blocks, n, lagged = [], 0, np.empty(0)
    diverged, converged_at = False, None
    with np.errstate(over="ignore", invalid="ignore"):
        for block in METHODS[method](inst, alpha0, beta0, eta, steps + 1):
            # block[:, i] is row n + i; lagged holds the STOP_WINDOW losses before it
            k = block.shape[1]
            over = block[4] > DIVERGENCE_NORM
            plateau = np.zeros(k, dtype=bool)
            if stop_tol is not None:
                history = np.concatenate([lagged, block[6]])
                flat = np.abs(history[STOP_WINDOW:] - history[:-STOP_WINDOW]) < stop_tol
                plateau[k - flat.size:] = flat
                lagged = history[-STOP_WINDOW:]
            stop = np.flatnonzero(over | plateau)
            if stop.size:
                i = int(stop[0])
                blocks.append(block[:, :i + 1])
                diverged = bool(over[i])
                converged_at = None if diverged else n + i
                break
            blocks.append(block)
            n += k

    alpha, beta, tau, nu, norm_u, norm_v, loss_col = np.concatenate(blocks, axis=1)
    final_loss = float(loss_col[-1])
    return Trace(method=method, init=(alpha0, beta0), eta=eta, c=inst.c,
                 step=np.arange(loss_col.size), alpha=alpha, beta=beta, tau=tau, nu=nu,
                 norm_u=norm_u, norm_v=norm_v, loss=loss_col, diverged=diverged,
                 classification=classify(inst, final_loss, diverged),
                 final_loss=final_loss, steps_to_converge=converged_at)
