#!/usr/bin/env python3
"""Compressing local patches and routing the survivors by text relevance.

Each patch's token grid is condensed to a fixed number of query tokens;
the router then scores every compressed token against the text embedding
(softmax over tokens of the text-averaged similarity) and keeps the top
scorers until their mass reaches gamma. Smaller gamma = fewer tokens.
"""

import numpy as np

from slicemix import adapters as ad
from slicemix.numerics import make_rng
from slicemix.routing import RouterConfig, compress_local, route_tokens

rng = make_rng(1)
n_patches, tokens_per_patch, d_in, d_model, n_queries = 4, 9, 8, 8, 4

patches = [rng.standard_normal((tokens_per_patch, d_in)) for _ in range(n_patches)]
compressor = ad.init_qformer(rng, n_queries, d_in, d_model)
local = np.vstack([compress_local(p, compressor) for p in patches])
print(f"{n_patches} patches x {tokens_per_patch} tokens -> "
      f"{local.shape[0]} compressed tokens ({n_queries} per patch)\n")

text = rng.standard_normal((1, d_model))

print(f"{'gamma':>6} | {'kept':>4} | kept indices (score order)")
print("-" * 60)
for gamma in (1.0, 0.9, 0.75, 0.5, 0.25, 0.1):
    sel = route_tokens(local, text, RouterConfig(gamma=gamma))
    idx = ", ".join(str(i) for i in sel.kept_indices[:10])
    more = " ..." if len(sel.kept_indices) > 10 else ""
    print(f"{gamma:>6} | {len(sel.kept_indices):>4} | [{idx}{more}]")

sel = route_tokens(local, text, RouterConfig(gamma=0.75))
print(f"\nat gamma=0.75 the kept mass is {sel.cumulative_at_cut:.4f} "
      f"(first prefix to reach 0.75); dropping the last kept token "
      f"would leave {sel.cumulative_at_cut - sel.scores[sel.kept_indices[-1]]:.4f}.")

noisy = route_tokens(local, text, RouterConfig(gamma=0.75, training_mode=True),
                     make_rng(7))
print(f"training mode perturbs the sort order with N(0, 0.1) noise: kept "
      f"{len(noisy.kept_indices)} tokens this draw (mass accounting stays "
      "noiseless, so gamma keeps its meaning).")
