"""Two global projection experts and the noisy two-way gate that mixes them.

The experts map vision-feature tokens (L, d_in) into readout space (d_out):
a GELU MLP that keeps every position, and a query head whose learnable query
embeddings cross-attend over the tokens. The soft mixture configures the
query head with exactly L queries so the expert outputs add positionwise.
The gate scores the mean-pooled token and, given standard-normal draws,
perturbs each logit by one scaled by softplus(x . w_noise) before the
softmax. The tokens are frozen features, so the VJPs give parameter gradients
only: hand-derived, FD-checked, and run on the activations the forward pass
saved. Each function also takes a stack of token matrices (one per patch or
image), so a batch runs as one pass; gradients sum over a stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (_softmax, attention_weights, check_count, cross_attention_vjp, gelu_grad,
                       normal_cdf, softplus)

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
    "mlp_apply",
    "mlp_vjp",
    "qformer_apply",
    "qformer_vjp",
    "gate_weights",
    "gate_sample",
    "global_experts",
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
    cdf: np.ndarray      # normal_cdf(pre), GELU's one CDF pass, reused by the VJP
    hidden: np.ndarray   # gelu(pre)
    out: np.ndarray


@dataclass
class QFormerActivations:
    """What qformer_vjp reuses from the forward pass."""

    tokens: np.ndarray
    weights: np.ndarray   # attention weights, one row per query
    attended: np.ndarray  # weights @ tokens
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
    mlp: MlpActivations | None = None
    qformer: QFormerActivations | None = None


def init_mlp(rng: np.random.Generator, d_in: int, d_out: int) -> MlpParams:
    """A GELU MLP from d_in to d_out whose hidden layer is d_out wide."""
    check_count("d_in", d_in, 1)
    check_count("d_out", d_out, 1)
    return MlpParams(
        w1=rng.standard_normal((d_in, d_out)) / np.sqrt(d_in),
        b1=np.zeros(d_out),
        w2=rng.standard_normal((d_out, d_out)) / np.sqrt(d_out),
        b2=np.zeros(d_out),
    )


def init_qformer(rng: np.random.Generator, n_queries: int, d_in: int,
                 d_out: int) -> QFormerParams:
    for name, n in ("n_queries", n_queries), ("d_in", d_in), ("d_out", d_out):
        check_count(name, n, 1)
    return QFormerParams(
        queries=rng.standard_normal((n_queries, d_in)) / np.sqrt(d_in),
        wk=rng.standard_normal((d_in, d_in)) / np.sqrt(d_in),
        wv=rng.standard_normal((d_in, d_in)) / np.sqrt(d_in),
        wo=rng.standard_normal((d_in, d_out)) / np.sqrt(d_in),
    )


def init_gate(rng: np.random.Generator, d_in: int,
              noise_enabled: bool = True) -> GateParams:
    check_count("d_in", d_in, 1)
    if not isinstance(noise_enabled, (bool, np.bool_)):
        raise ValueError("noise_enabled must be True or False")
    return GateParams(
        w_g=rng.standard_normal((d_in, 2)) / np.sqrt(d_in),
        w_noise=rng.standard_normal((d_in, 2)) / np.sqrt(d_in),
        noise_enabled=noise_enabled,
    )


def _check_tokens(tokens, d_in: int, what: str) -> np.ndarray:
    t = np.asarray(tokens, dtype=np.float64)
    if t.ndim not in (2, 3):
        raise ValueError(f"{what} expects 2-D or 3-D tokens")
    if t.shape[-1] != d_in:
        raise ValueError(f"{what}: token width {t.shape[-1]} != parameter width {d_in}")
    return t


def mlp_apply(tokens, p: MlpParams) -> MlpActivations:
    """Per-token gelu(x W1 + b1) W2 + b2 on a token matrix or a stack of them;
    the token count is preserved. Keeps the activations mlp_vjp reuses."""
    t = _check_tokens(tokens, p.w1.shape[0], "mlp_apply")
    pre = t @ p.w1
    pre += p.b1
    cdf = normal_cdf(pre)
    hidden = pre * cdf   # gelu(pre), on the CDF the VJP reuses
    out = hidden @ p.w2
    out += p.b2
    return MlpActivations(tokens=t, pre=pre, cdf=cdf, hidden=hidden, out=out)


def mlp_vjp(acts: MlpActivations, p: MlpParams, dout, grads: MlpParams) -> None:
    """Add the parameter gradients of sum(acts.out * dout), summed over a
    stack, into `grads`."""
    # each stack as one matrix of all its rows
    rows = dout.reshape(-1, dout.shape[-1])
    grads.w2 += acts.hidden.reshape(-1, acts.hidden.shape[-1]).T @ rows
    grads.b2 += np.add.reduce(rows, axis=0)
    dh = dout @ p.w2.T
    dh *= gelu_grad(acts.pre, acts.cdf)
    dh = dh.reshape(-1, dh.shape[-1])
    grads.w1 += acts.tokens.reshape(-1, acts.tokens.shape[-1]).T @ dh
    grads.b1 += np.add.reduce(dh, axis=0)


def qformer_apply(tokens, p: QFormerParams) -> QFormerActivations:
    """Learnable queries cross-attend over projected tokens, keeping the
    activations qformer_vjp reuses. The output always has n_queries rows
    whatever the input length; a (P, L, d_in) stack gives (P, n_queries, d_out).
    No keys or values are formed: the scores are (q wk^T) t^T and the output
    is (w t)(wv wo), three stacked products."""
    t = _check_tokens(tokens, p.wk.shape[0], "qformer_apply")
    if t.shape[-2] < 1:
        raise ValueError("qformer_apply: tokens must have at least one row to attend over")
    # q wk^T, column-major as the transpose of a product, meets the
    # transposed stack on numpy's BLAS path
    w = attention_weights((p.wk @ p.queries.T).T, t)
    att = w @ t
    return QFormerActivations(tokens=t, weights=w, attended=att, out=att @ (p.wv @ p.wo))


def qformer_vjp(acts: QFormerActivations, p: QFormerParams, dout,
                grads: QFormerParams) -> None:
    """Add the parameter gradients of sum(acts.out * dout), summed over a
    stack, into `grads`, through those of q wk^T and wv wo."""
    d_in = p.wk.shape[0]
    dwvo = acts.attended.reshape(-1, d_in).T @ dout.reshape(-1, dout.shape[-1])
    grads.wv += dwvo @ p.wo.T
    grads.wo += p.wv.T @ dwvo
    # (wv wo)^T, row-major as a product of the transposes, keeps the stacked
    # product on numpy's BLAS path
    dqk = cross_attention_vjp(acts.tokens, dout @ (p.wo.T @ p.wv.T), acts.weights)
    grads.queries += dqk @ p.wk
    grads.wk += dqk.T @ p.queries


def gate_sample(x: np.ndarray, p: GateParams, eps=None) -> GateSample:
    """Evaluate the gate on a float64 pooled feature vector, or on each row of
    a stack, whose width the caller has checked (gate_weights checks it).

    Noise is applied only when the parameters enable it AND normal draws
    `eps`, shaped like the weights, are given (training mode); without them
    the gate is deterministic.
    """
    rows = x[..., None, :]   # row by row, so a stack's products are bitwise its rows'
    logits = (rows @ p.w_g)[..., 0, :]
    if not p.noise_enabled or eps is None:
        return GateSample(pooled=x, weights=_softmax(logits))
    if np.shape(eps) != logits.shape:
        raise ValueError("gate noise draws must match the gate weights' shape")
    logits = logits + eps * softplus((rows @ p.w_noise)[..., 0, :])
    return GateSample(pooled=x, weights=_softmax(logits), eps=eps)


def gate_weights(pooled, p: GateParams,
                 rng: np.random.Generator | None = None) -> np.ndarray:
    """Mixing weights for the two experts; always in the 2-simplex. A noisy
    gate given a generator draws one normal per weight."""
    x = np.asarray(pooled, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != p.w_g.shape[0]:
        raise ValueError("pooled feature width does not match gate parameters")
    eps = rng.standard_normal(x.shape[:-1] + (2,)) if rng is not None and p.noise_enabled else None
    return gate_sample(x, p, eps).weights


def global_experts(tokens, mlp: MlpParams, qf: QFormerParams):
    """Both experts' forward pass: the (MlpActivations, QFormerActivations) moe_apply mixes."""
    m = mlp_apply(tokens, mlp)
    if qf.n_queries != m.tokens.shape[-2]:
        raise ValueError("global expert shape mismatch")
    return m, qformer_apply(m.tokens, qf)


def moe_apply(tokens, mlp: MlpParams, qf: QFormerParams, gate: GateParams, eps=None,
              experts=None):
    """Soft two-expert mixture; returns (output, gate sample).

    The gate sees the column mean of the tokens, so one weight pair applies
    to the whole image (one pair per image of a stack); `eps` goes to
    gate_sample. The gate sample also carries both experts' saved
    activations for adapter_grads. `experts`, global_experts' result on
    these tokens and parameters, stands in for the experts' forward pass.
    """
    m, q = global_experts(tokens, mlp, qf) if experts is None else experts
    # the mean of tokens global_experts checked needs no second check
    sample = gate_sample(np.add.reduce(m.tokens, axis=-2) / m.tokens.shape[-2], gate, eps)
    sample.mlp, sample.qformer = m, q
    g = sample.weights.T[..., None, None]   # one scale per expert and image
    return g[0] * m.out + g[1] * q.out, sample


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
    dg = np.empty(g.shape)
    dg[..., 0] = np.add.reduce(dout * sample.mlp.out, axis=(-2, -1))
    dg[..., 1] = np.add.reduce(dout * sample.qformer.out, axis=(-2, -1))
    dlogits = g * (dg - np.add.reduce(dg * g, axis=-1, keepdims=True))
    pooled = sample.pooled.reshape(-1, sample.pooled.shape[-1]).T   # a lone vector is one row
    d_gate.w_g += pooled @ dlogits.reshape(-1, 2)
    if sample.eps is not None:
        sigmoid = 0.5 * (1.0 + np.tanh(0.5 * (sample.pooled @ gate.w_noise)))
        coef = sample.eps * sigmoid * dlogits
        d_gate.w_noise += pooled @ coef.reshape(-1, 2)
