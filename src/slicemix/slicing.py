"""Adaptive grid planning plus pad/resize/patch extraction on synthetic
single-channel pixel grids.

A plan chooses the (m columns, n rows) tiling, each in 1..max_grid, whose
scale s = min(m*base/W, n*base/H) maximizes the utilized resolution
min(W*H, W*H*s^2); utilized ties (relative tolerance 1e-9) are broken by the
smaller wasted resolution m*base*n*base - utilized, then by the smaller
(m, n). Images here are 2-D float arrays with intensities in [0, 1].
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BASE_RESOLUTION",
    "MAX_GRID",
    "PartitionPlan",
    "plan_partition",
    "resize_bilinear",
    "make_global_view",
    "scaled_canvas",
    "extract_patches",
]

BASE_RESOLUTION = 336
MAX_GRID = 6
UTILIZED_RTOL = 1e-9


@dataclass(frozen=True)
class PartitionPlan:
    """Chosen tiling for one image geometry."""

    m: int
    n: int
    scale: float
    utilized: float
    wasted: float
    base: int = BASE_RESOLUTION

    @property
    def num_patches(self) -> int:
        return self.m * self.n

    def grid_px(self) -> tuple[int, int]:
        """(width, height) of the padded tile canvas in pixels."""
        return self.m * self.base, self.n * self.base


def _candidate(width: float, height: float, m: int, n: int, base: int):
    s = min(m * base / width, n * base / height)
    area = width * height
    # area * (s*s) keeps the expression symmetric in width/height so that
    # transposed geometries produce bitwise-mirrored candidate tables.
    utilized = min(area, area * (s * s))
    wasted = max(0.0, float(m * base * n * base) - utilized)
    return m, n, s, utilized, wasted


def plan_partition(width: int, height: int, base: int = BASE_RESOLUTION,
                   max_grid: int = MAX_GRID) -> PartitionPlan:
    """Pick the best tiling among all max_grid x max_grid grid options."""
    if width < 1 or height < 1:
        raise ValueError("image size must be positive")
    if base < 1:
        raise ValueError("base (the tile side) must be positive")
    # the candidates are scored in floats; an area past their range overflows
    if not width * height <= sys.float_info.max:
        raise ValueError("image area is too large for float arithmetic")
    if not (max_grid * base) ** 2 <= sys.float_info.max:
        raise ValueError("largest tile canvas area is too large for float arithmetic")
    w = float(width)
    h = float(height)
    cands = [_candidate(w, h, m, n, base)
             for m in range(1, max_grid + 1) for n in range(1, max_grid + 1)]
    u_max = max(c[3] for c in cands)
    cutoff = u_max * (1.0 - UTILIZED_RTOL)
    tied = [c for c in cands if c[3] >= cutoff]
    m, n, s, utilized, wasted = min(tied, key=lambda c: (c[4], c[0], c[1]))
    return PartitionPlan(m=m, n=n, scale=s, utilized=utilized, wasted=wasted, base=base)


def _axis_samples(n_in: int, n_out: int):
    centers = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    centers = np.clip(centers, 0.0, n_in - 1.0)
    i0 = np.floor(centers).astype(np.intp)
    i1 = np.minimum(i0 + 1, n_in - 1)
    return i0, i1, centers - i0


def resize_bilinear(pixels, out_h: int, out_w: int) -> np.ndarray:
    """Separable bilinear resampling with half-pixel-aligned sample centers."""
    p = np.asarray(pixels, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError("image must be 2-D")
    if out_h < 1 or out_w < 1:
        raise ValueError("output size must be positive")
    in_h, in_w = p.shape
    if out_h == in_h and out_w == in_w:
        return p.copy()
    y0, y1, wy = _axis_samples(in_h, out_h)
    x0, x1, wx = _axis_samples(in_w, out_w)
    top = p[y0][:, x0] * (1.0 - wx) + p[y0][:, x1] * wx
    bot = p[y1][:, x0] * (1.0 - wx) + p[y1][:, x1] * wx
    return top * (1.0 - wy)[:, None] + bot * wy[:, None]


def _pad_center(p: np.ndarray, target_h: int, target_w: int) -> np.ndarray:
    # symmetric zero padding; an odd leftover pixel goes after the image
    out = np.zeros((target_h, target_w), dtype=np.float64)
    top = (target_h - p.shape[0]) // 2
    left = (target_w - p.shape[1]) // 2
    out[top:top + p.shape[0], left:left + p.shape[1]] = p
    return out


def make_global_view(pixels, base: int = BASE_RESOLUTION) -> np.ndarray:
    """Aspect-preserving resize so the longer side equals base, then symmetric
    zero padding of the shorter side, yielding a base x base image."""
    p = np.asarray(pixels, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError("image must be 2-D")
    h, w = p.shape
    if w >= h:
        out_w = base
        out_h = max(1, int(round(h * base / w)))
    else:
        out_h = base
        out_w = max(1, int(round(w * base / h)))
    return _pad_center(resize_bilinear(p, out_h, out_w), base, base)


def scaled_canvas(pixels, plan: PartitionPlan) -> np.ndarray:
    """Image scaled by plan.scale and zero-padded symmetrically onto the
    (n*base) x (m*base) tile canvas."""
    p = np.asarray(pixels, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError("image must be 2-D")
    h, w = p.shape
    target_w, target_h = plan.grid_px()
    out_w = min(target_w, max(1, int(round(w * plan.scale))))
    out_h = min(target_h, max(1, int(round(h * plan.scale))))
    return _pad_center(resize_bilinear(p, out_h, out_w), target_h, target_w)


def extract_patches(pixels, plan: PartitionPlan) -> list[np.ndarray]:
    """Cut the scaled, padded canvas into m*n base x base tiles, returned
    top-to-bottom then left-to-right."""
    canvas = scaled_canvas(pixels, plan)
    base = plan.base
    return [canvas[r * base:(r + 1) * base, c * base:(c + 1) * base].copy()
            for r in range(plan.n) for c in range(plan.m)]
