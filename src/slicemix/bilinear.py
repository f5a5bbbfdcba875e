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

from .numerics import make_rng

__all__ = [
    "BilinearInstance",
    "BilinearState",
    "Trace",
    "make_instance",
    "coords_of",
    "eigen_coords",
    "coords_from_eigen",
    "vector_from_coords",
    "energy",
    "loss",
    "loss_grads",
    "loss_from_coords",
    "gd_step",
    "gd_coord_step",
    "alt_step",
    "best_rank1_loss_svd",
    "run_experiment",
    "INITS",
    "resolve_init",
]

CLASSIFY_RTOL = 1e-4
DIVERGENCE_NORM = 1e6
DEGENERATE_TOL = 1e-12

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
    def d(self) -> int:
        return self.a.shape[0]

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
    """One (u, v) iterate with its span and eigen coordinates."""

    u: np.ndarray
    v: np.ndarray
    alpha: float
    beta: float
    tau: float
    nu: float
    eta: float

    @classmethod
    def from_vectors(cls, inst: BilinearInstance, u, v, eta: float) -> "BilinearState":
        alpha, beta = coords_of(inst, u)
        tau, nu = eigen_coords(alpha, beta)
        return cls(u=np.asarray(u, dtype=np.float64),
                   v=np.asarray(v, dtype=np.float64),
                   alpha=alpha, beta=beta, tau=tau, nu=nu, eta=eta)


def make_instance(d: int = 16, c: float = 0.5, seed: int = 0) -> BilinearInstance:
    """Random unit a plus a Gram-Schmidt-mixed unit b with a.b = c exactly."""
    if not -1.0 < c < 1.0:
        raise ValueError("c must lie in (-1, 1)")
    if d < 2:
        raise ValueError("need dimension >= 2")
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
    s = 1.0 / np.sqrt(2.0)
    return (alpha + beta) * s, (alpha - beta) * s


def coords_from_eigen(tau: float, nu: float) -> tuple[float, float]:
    s = 1.0 / np.sqrt(2.0)
    return (tau + nu) * s, (tau - nu) * s


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
    """
    lp, lm = inst.lam_plus, inst.lam_minus
    t2, n2 = tau * tau, nu * nu
    return 0.5 * (lp * lp * (t2 - 1.0) ** 2 + lm * lm * (1.0 - n2) ** 2
                  + 2.0 * lp * lm * t2 * n2)


def gd_step(state: BilinearState, inst: BilinearInstance,
            eta: float | None = None) -> BilinearState:
    """One simultaneous raw-vector descent step; both gradients use the
    pre-step iterates. Coordinates are recomputed from the new vectors."""
    eta = state.eta if eta is None else eta
    if eta <= 0.0:
        raise ValueError("step size must be positive")
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
    alpha0, beta0 = init
    return float(alpha0), float(beta0)


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
        lines = ["step,alpha,beta,tau,nu,norm_u,norm_v,loss"]
        for i in range(self.step.size):
            lines.append(",".join([str(int(self.step[i]))] + [
                repr(float(col[i])) for col in
                (self.alpha, self.beta, self.tau, self.nu,
                 self.norm_u, self.norm_v, self.loss)]))
        return "\n".join(lines) + "\n"

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


class _Recorder:
    def __init__(self, stop_tol, stop_window):
        self.rows = []
        self.stop_tol = stop_tol
        self.stop_window = stop_window

    def add(self, step, alpha, beta, tau, nu, norm_u, norm_v, loss_val) -> bool:
        """Record one row; True means the loss plateaued and iteration may stop."""
        self.rows.append((step, alpha, beta, tau, nu, norm_u, norm_v, loss_val))
        if self.stop_tol is None or len(self.rows) <= self.stop_window:
            return False
        prev = self.rows[-1 - self.stop_window][7]
        return abs(loss_val - prev) < self.stop_tol

    def arrays(self):
        cols = list(zip(*self.rows))
        return (np.array(cols[0], dtype=np.int64),) + tuple(
            np.array(col, dtype=np.float64) for col in cols[1:])


def run_experiment(inst: BilinearInstance, init="generic",
                   method: str = "alternating", steps: int = 1000,
                   eta: float = 0.01, stop_tol: float | None = 1e-6,
                   stop_window: int = 100) -> Trace:
    """Run one trajectory and classify where it lands.

    methods:
      * "alternating" - exact per-factor minimization on raw vectors;
      * "gd"          - descent propagated in exact eigen coordinates
                        (mirror start v0 = beta0 a + alpha0 b is implied);
      * "gd_vector"   - descent on raw vectors from the same mirror start.

    The trace has one row per visited state (steps=0 gives the initial row
    only). Iteration stops early once the loss moves less than stop_tol over
    stop_window steps, or when a norm exceeds the divergence bound.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if method in ("gd", "gd_vector") and not eta > 0.0:
        raise ValueError("step size must be positive")
    alpha0, beta0 = resolve_init(init)
    rec = _Recorder(stop_tol, stop_window)
    diverged = False
    converged_at = None

    if method == "gd":
        tau, nu = eigen_coords(alpha0, beta0)
        for t in range(steps + 1):
            usq = energy(inst, tau, nu)
            alpha, beta = coords_from_eigen(tau, nu)
            nrm = np.sqrt(usq)
            stop = rec.add(t, alpha, beta, tau, nu, nrm, nrm,
                           loss_from_coords(inst, tau, nu))
            if usq > DIVERGENCE_NORM ** 2:
                diverged = True
                break
            if stop:
                converged_at = t
                break
            if t < steps:
                tau, nu = gd_coord_step(tau, nu, usq, inst, eta)
    elif method == "gd_vector":
        state = BilinearState.from_vectors(
            inst,
            vector_from_coords(inst, alpha0, beta0),
            vector_from_coords(inst, beta0, alpha0),
            eta)
        for t in range(steps + 1):
            stop = rec.add(t, state.alpha, state.beta, state.tau, state.nu,
                           float(np.linalg.norm(state.u)),
                           float(np.linalg.norm(state.v)),
                           loss(state.u, state.v, inst))
            if np.linalg.norm(state.u) > DIVERGENCE_NORM:
                diverged = True
                break
            if stop:
                converged_at = t
                break
            if t < steps:
                state = gd_step(state, inst)
    elif method == "alternating":
        u = vector_from_coords(inst, alpha0, beta0)
        for t in range(steps + 1):
            v, u_next = alt_step(u, inst)
            alpha, beta = coords_of(inst, u)
            tau, nu = eigen_coords(alpha, beta)
            stop = rec.add(t, alpha, beta, tau, nu,
                           float(np.linalg.norm(u)), float(np.linalg.norm(v)),
                           loss(u, v, inst))
            if np.linalg.norm(u) > DIVERGENCE_NORM:
                diverged = True
                break
            if stop:
                converged_at = t
                break
            if t < steps:
                u = u_next
    else:
        raise ValueError(f"unknown method '{method}'")

    step_arr, alpha, beta, tau_a, nu_a, nu_u, nu_v, loss_a = rec.arrays()
    final_loss = float(loss_a[-1])
    return Trace(method=method, init=(alpha0, beta0), eta=eta, c=inst.c,
                 step=step_arr, alpha=alpha, beta=beta, tau=tau_a, nu=nu_a,
                 norm_u=nu_u, norm_v=nu_v, loss=loss_a, diverged=diverged,
                 classification=classify(inst, final_loss, diverged),
                 final_loss=final_loss, steps_to_converge=converged_at)
