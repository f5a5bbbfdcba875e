#!/usr/bin/env python3
"""The soft two-expert mixture on a global token grid.

One expert is a per-token MLP projection (keeps everything, easy to train),
the other condenses through learnable attention queries. A two-way gate
scores the mean token and blends the expert outputs; during training each
gate logit is jittered by Normal(0,1) * softplus(x . w_noise) so neither
expert starves early.
"""

import numpy as np

from slicemix import adapters as ad
from slicemix.numerics import make_rng

rng = make_rng(0)
L, d_in, d_out = 9, 8, 8
tokens = rng.standard_normal((L, d_in))

mlp = ad.init_mlp(rng, d_in, d_out)
qf = ad.init_qformer(rng, L, d_in, d_out)   # one query per position
gate = ad.init_gate(rng, d_in, noise_enabled=True)

print("deterministic gate (no generator passed):")
w = ad.gate_weights(tokens.mean(axis=0), gate)
print(f"  weights = [{w[0]:.4f}, {w[1]:.4f}]  (mlp, query head)\n")

print("five noisy training-mode evaluations of the same input:")
for k in range(5):
    w = ad.gate_weights(tokens.mean(axis=0), gate, make_rng(100 + k))
    print(f"  draw {k}: [{w[0]:.4f}, {w[1]:.4f}]")

print("\nmixture output vs the pure branches (first token, first 4 dims):")
out = ad.moe_apply(tokens, mlp, qf, gate)[0]
only_mlp = ad.moe_apply(tokens, mlp, qf, gate, gate_override=[1.0, 0.0])[0]
only_qf = ad.moe_apply(tokens, mlp, qf, gate, gate_override=[0.0, 1.0])[0]
np.set_printoptions(precision=4, suppress=True)
print(f"  mixed : {out[0, :4]}")
print(f"  mlp   : {only_mlp[0, :4]}")
print(f"  query : {only_qf[0, :4]}")

print("\nthe mixture always preserves the token count "
      f"({out.shape[0]} rows for {L} input tokens), and the gate stays on "
      "the 2-simplex no matter how large the logits get.")
