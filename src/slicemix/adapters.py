"""Two global projection experts and the noisy two-way gate that mixes them.

The experts map vision-feature tokens (L, d_in) into readout space (d_out):
a GELU MLP that keeps every position, and a query head whose learnable query
embeddings cross-attend over the tokens. The soft mixture configures the
query head with exactly L queries so the expert outputs add positionwise.
The gate scores the mean-pooled token and, given a generator, perturbs each
logit with a standard-normal draw scaled by softplus(x . w_noise) before the
softmax. The tokens are frozen features, so the VJPs give parameter gradients
only: hand-derived, FD-checked, and run on the activations the forward pass
saved. Each function also takes a stack of token matrices (one per patch or
image), so a batch runs as one pass; gradients sum over a stack.
"""

from __future__ import annotations

from dataclasses import dataclass, is_dataclass, replace

import numpy as np

from .numerics import (
    attention_weights,
    cross_attention_vjp,
    gelu,
    gelu_grad,
    softmax,
    softplus,
)

__all__ = [
    "MlpParams",
    "QFormerParams",
    "GateParams",
    "GateSample",
    "MlpActivations",
    "QFormerActivations",
    "init_mlp",
    "init_qformer",
    "init_gate",
    "zeros_like_params",
    "mlp_apply",
    "mlp_vjp",
    "qformer_apply",
    "qformer_vjp",
    "gate_weights",
    "gate_sample",
    "moe_apply",
    "adapter_grads",
]


@dataclass
class MlpParams:
    w1: np.ndarray  # (d_in, d_hidden)
    b1: np.ndarray  # (d_hidden,)
    w2: np.ndarray  # (d_hidden, d_out)
    b2: np.ndarray  # (d_out,)


@dataclass
class QFormerParams:
    queries: np.ndarray  # (n_queries, d_in)
    wk: np.ndarray       # (d_in, d_in)
    wv: np.ndarray       # (d_in, d_in)
    wo: np.ndarray       # (d_in, d_out)

    @property
    def n_queries(self) -> int:
        return self.queries.shape[0]


@dataclass
class GateParams:
    w_g: np.ndarray      # (d_in, 2)
    w_noise: np.ndarray  # (d_in, 2)
    noise_enabled: bool = True


@dataclass
class MlpActivations:
    """What mlp_vjp reuses from the forward pass."""

    tokens: np.ndarray
    pre: np.ndarray      # x W1 + b1
    hidden: np.ndarray   # gelu(pre)
    out: np.ndarray


@dataclass
class QFormerActivations:
    """What qformer_vjp reuses from the forward pass."""

    tokens: np.ndarray
    keys: np.ndarray
    values: np.ndarray
    weights: np.ndarray   # attention weights, one row per query
    attended: np.ndarray  # weights @ values
    out: np.ndarray


@dataclass
class GateSample:
    """One gate evaluation (or a stack) plus what the backward needs to replay it.

    moe_apply also saves both experts' activations here, so adapter_grads
    recomputes nothing.
    """

    pooled: np.ndarray                 # (d_in,), or (B, d_in) for a stack
    weights: np.ndarray                # (2,), or (B, 2)
    eps: np.ndarray | None = None      # the normal draws, None when noiseless
    override: bool = False
    mlp: MlpActivations | None = None
    qformer: QFormerActivations | None = None


def init_mlp(rng: np.random.Generator, d_in: int, d_out: int,
             d_hidden: int | None = None) -> MlpParams:
    d_hidden = d_out if d_hidden is None else d_hidden
    return MlpParams(
        w1=rng.standard_normal((d_in, d_hidden)) / np.sqrt(d_in),
        b1=np.zeros(d_hidden),
        w2=rng.standard_normal((d_hidden, d_out)) / np.sqrt(d_hidden),
        b2=np.zeros(d_out),
    )


def init_qformer(rng: np.random.Generator, n_queries: int, d_in: int,
                 d_out: int) -> QFormerParams:
    return QFormerParams(
        queries=rng.standard_normal((n_queries, d_in)) / np.sqrt(d_in),
        wk=rng.standard_normal((d_in, d_in)) / np.sqrt(d_in),
        wv=rng.standard_normal((d_in, d_in)) / np.sqrt(d_in),
        wo=rng.standard_normal((d_in, d_out)) / np.sqrt(d_in),
    )


def init_gate(rng: np.random.Generator, d_in: int,
              noise_enabled: bool = True) -> GateParams:
    return GateParams(
        w_g=rng.standard_normal((d_in, 2)) / np.sqrt(d_in),
        w_noise=rng.standard_normal((d_in, 2)) / np.sqrt(d_in),
        noise_enabled=noise_enabled,
    )


def zeros_like_params(p):
    """A parameter container of the same type, nested containers included,
    with every array replaced by float64 zeros; used as a gradient store."""
    return replace(p, **{name: zeros_like_params(a) if is_dataclass(a) else np.zeros(a.shape)
                         for name, a in vars(p).items()
                         if is_dataclass(a) or isinstance(a, np.ndarray)})


def _check_tokens(tokens, d_in: int, what: str) -> np.ndarray:
    t = np.asarray(tokens, dtype=np.float64)
    if t.ndim not in (2, 3):
        raise ValueError(f"{what} expects 2-D or 3-D tokens")
    if t.shape[-1] != d_in:
        raise ValueError(f"{what}: token width {t.shape[-1]} != parameter width {d_in}")
    return t


def _rows(a: np.ndarray) -> np.ndarray:
    """A vector, matrix or stack of matrices as one matrix of all its rows."""
    return a.reshape(-1, a.shape[-1])


def mlp_apply(tokens, p: MlpParams) -> MlpActivations:
    """Per-token gelu(x W1 + b1) W2 + b2 on a token matrix or a stack of them;
    the token count is preserved. Keeps the activations mlp_vjp reuses."""
    t = _check_tokens(tokens, p.w1.shape[0], "mlp_apply")
    pre = t @ p.w1 + p.b1
    hidden = gelu(pre)
    return MlpActivations(tokens=t, pre=pre, hidden=hidden, out=hidden @ p.w2 + p.b2)


def mlp_vjp(acts: MlpActivations, p: MlpParams, dout, grads: MlpParams) -> None:
    """Add the parameter gradients of sum(acts.out * dout), summed over a
    stack, into `grads`."""
    grads.w2 += _rows(acts.hidden).T @ _rows(dout)
    grads.b2 += _rows(dout).sum(axis=0)
    dh = (dout @ p.w2.T) * gelu_grad(acts.pre)
    grads.w1 += _rows(acts.tokens).T @ _rows(dh)
    grads.b1 += _rows(dh).sum(axis=0)


def qformer_apply(tokens, p: QFormerParams) -> QFormerActivations:
    """Learnable queries cross-attend over projected tokens, keeping the
    activations qformer_vjp reuses. The output always has n_queries rows
    whatever the input length; a (P, L, d_in) stack gives (P, n_queries, d_out)."""
    t = _check_tokens(tokens, p.wk.shape[0], "qformer_apply")
    k = t @ p.wk
    v = t @ p.wv
    w = attention_weights(p.queries, k)
    att = w @ v
    return QFormerActivations(tokens=t, keys=k, values=v, weights=w,
                              attended=att, out=att @ p.wo)


def qformer_vjp(acts: QFormerActivations, p: QFormerParams, dout,
                grads: QFormerParams) -> None:
    """Add the parameter gradients of sum(acts.out * dout), summed over a
    stack, into `grads`."""
    grads.wo += _rows(acts.attended).T @ _rows(dout)
    dq, dk, dv = cross_attention_vjp(p.queries, acts.keys, acts.values,
                                     dout @ p.wo.T, acts.weights)
    grads.queries += dq
    grads.wk += _rows(acts.tokens).T @ _rows(dk)
    grads.wv += _rows(acts.tokens).T @ _rows(dv)


def gate_sample(pooled, p: GateParams, rng: np.random.Generator | None = None,
                override=None, eps=None) -> GateSample:
    """Evaluate the gate on a pooled feature vector, or on each row of a stack.

    Noise is applied only when the parameters enable it AND a generator is
    provided (training mode); without a generator the gate is deterministic.
    A stack draws as its rows would one by one; `eps`, shaped like the
    weights, supplies the draws instead. An explicit override substitutes
    the mixing weights verbatim.
    """
    x = np.asarray(pooled, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != p.w_g.shape[0]:
        raise ValueError("pooled feature width does not match gate parameters")
    if override is not None:
        w = np.asarray(override, dtype=np.float64).ravel()
        if w.shape != (2,):
            raise ValueError("gate override must have exactly 2 entries")
        return GateSample(pooled=x, weights=np.broadcast_to(w, x.shape[:-1] + (2,)),
                          override=True)
    rows = x[..., None, :]   # row by row, so a stack's products are bitwise its rows'
    logits = (rows @ p.w_g)[..., 0, :]
    if p.noise_enabled and eps is None and rng is not None:
        eps = rng.standard_normal(logits.shape)
    if not p.noise_enabled or eps is None:
        return GateSample(pooled=x, weights=softmax(logits))
    if np.shape(eps) != logits.shape:
        raise ValueError("gate noise draws must match the gate weights' shape")
    logits = logits + eps * softplus((rows @ p.w_noise)[..., 0, :])
    return GateSample(pooled=x, weights=softmax(logits), eps=eps)


def gate_weights(pooled, p: GateParams,
                 rng: np.random.Generator | None = None) -> np.ndarray:
    """Mixing weights for the two experts; always in the 2-simplex."""
    return gate_sample(pooled, p, rng).weights


def moe_apply(tokens, mlp: MlpParams, qf: QFormerParams, gate: GateParams,
              rng: np.random.Generator | None = None, gate_override=None, eps=None):
    """Soft two-expert mixture; returns (output, gate sample).

    The gate sees the column mean of the tokens, so one weight pair applies
    to the whole image (one pair per image of a stack); `eps` goes to
    gate_sample. The gate sample also carries both experts' saved
    activations for adapter_grads.
    """
    t = _check_tokens(tokens, mlp.w1.shape[0], "moe_apply")
    if qf.n_queries != t.shape[-2]:
        raise ValueError("global expert shape mismatch")
    sample = gate_sample(t.sum(axis=-2) / t.shape[-2], gate, rng, gate_override, eps)
    sample.mlp = mlp_apply(t, mlp)
    sample.qformer = qformer_apply(t, qf)
    g = sample.weights.T[..., None, None]   # one scale per expert and image
    out = g[0] * sample.mlp.out + g[1] * sample.qformer.out
    return out, sample


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def adapter_grads(mlp: MlpParams, qf: QFormerParams, gate: GateParams, dout,
                  sample: GateSample, grads) -> None:
    """VJP through the soft mixture for a downstream scalar loss.

    `sample` must come from the forward pass (moe_apply): the backward reuses
    the expert activations it saved, and its noise draws, when present, are
    treated as constants so the noise-scale weights still receive gradient.
    Parameter gradients are added into `grads`, a (d_mlp, d_qformer, d_gate)
    triple. `dout` must have the expert outputs' shape; one that only
    broadcasts to it is rejected.
    """
    if np.shape(dout) != sample.mlp.out.shape:
        raise ValueError(f"upstream gradient shape {np.shape(dout)} != expert output "
                         f"shape {sample.mlp.out.shape}")
    d_mlp, d_qf, d_gate = grads
    g = sample.weights
    scale = g.T[..., None, None]
    mlp_vjp(sample.mlp, mlp, scale[0] * dout, d_mlp)
    qformer_vjp(sample.qformer, qf, scale[1] * dout, d_qf)
    if not sample.override:
        dg = np.stack([(dout * sample.mlp.out).sum(axis=(-2, -1)),
                       (dout * sample.qformer.out).sum(axis=(-2, -1))], axis=-1)
        dlogits = g * (dg - (dg * g).sum(axis=-1, keepdims=True))
        d_gate.w_g += _rows(sample.pooled).T @ _rows(dlogits)
        if sample.eps is not None:
            coef = sample.eps * _sigmoid(sample.pooled @ gate.w_noise) * dlogits
            d_gate.w_noise += _rows(sample.pooled).T @ _rows(coef)
