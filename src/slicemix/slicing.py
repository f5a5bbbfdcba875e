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
from functools import lru_cache

import numpy as np

from .numerics import check_count

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
# a resize or a texture draw runs in bands of about BAND_PIXELS pixels, so a
# default toy image (at most 288 x 288) takes 2-3 of them
BAND_PIXELS = 2**15


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


@lru_cache(maxsize=256, typed=True)
def plan_partition(width: int, height: int, base: int = BASE_RESOLUTION,
                   max_grid: int = MAX_GRID) -> PartitionPlan:
    """Pick the best tiling among all max_grid x max_grid grid options. Plans
    are cached per geometry (a plan is frozen); a bad call is not cached."""
    check_count("width", width, 1)
    check_count("height", height, 1)
    check_count("base", base, 1)
    check_count("max_grid", max_grid, 1)
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


@lru_cache(maxsize=256)
def _axis_samples(n_in: int, n_out: int):
    # one axis's source indices and weights (1 - w, then w), shared by every
    # resize of that geometry, so the arrays are made read-only
    centers = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    centers = np.clip(centers, 0.0, n_in - 1.0)
    i0 = np.floor(centers).astype(np.intp)
    i1 = np.minimum(i0 + 1, n_in - 1)
    w = centers - i0
    samples = i0, i1, 1.0 - w, w
    for a in samples:
        a.flags.writeable = False
    return samples


def _band_rows(height: int, width: int) -> int:
    """Rows per band of `width`-pixel rows: as many as fill BAND_PIXELS, 1 to `height`."""
    return min(height, max(1, BAND_PIXELS // width))


@lru_cache(maxsize=256)
def _bands(in_h: int, out_h: int, rows: int) -> tuple:
    # the output rows in bands of `rows`, each as its first and end output
    # rows, the first and end input rows it reads and whether the x blend
    # runs before the rows are gathered; cached per geometry, as the samples
    # are, and plain ints, so the cache stays small
    y0, y1 = _axis_samples(in_h, out_h)[:2]
    bands = []
    for a in range(0, out_h, rows):
        b = min(a + rows, out_h)
        lo, hi = int(y0[a]), int(y1[b - 1]) + 1
        bands.append((a, b, lo, hi, hi - lo < 2 * (b - a)))
    return tuple(bands)


def _lerp_x(rows: np.ndarray, xs, out=None) -> np.ndarray:
    # rows[:, x0] * (1 - wx) + rows[:, x1] * wx, into out or a fresh gather;
    # take gathers the same bytes as fancy indexing in about half the time,
    # and its indices are in range by construction, so "clip" changes none
    x0, x1, vx, wx = xs
    out = rows.take(x0, axis=1, out=out, mode="clip")
    out *= vx
    right = rows.take(x1, axis=1, mode="clip")
    right *= wx
    out += right
    return out


def _output(out, shape: tuple[int, int]) -> np.ndarray:
    if out is None:
        return np.empty(shape)
    if not (isinstance(out, np.ndarray) and out.shape == shape and out.dtype == np.float64
            and out.flags.writeable):
        raise ValueError(f"out must be a writable float64 array of shape {shape}")
    return out


def _image(pixels) -> np.ndarray:
    p = np.asarray(pixels, dtype=np.float64)
    if p.ndim != 2 or 0 in p.shape:
        raise ValueError("image must be a non-empty 2-D array")
    return p


def resize_bilinear(pixels, out_h: int, out_w: int, *, out: np.ndarray | None = None
                    ) -> np.ndarray:
    """Separable bilinear resampling with half-pixel-aligned sample centers.

    Each output pixel is (p[y0, x0] * (1 - wx) + p[y0, x1] * wx) * (1 - wy)
    + (p[y1, x0] * (1 - wx) + p[y1, x1] * wx) * wy. The output rows are made
    in bands of about BAND_PIXELS (rows counted at the wider of out_w and the
    input's width), so a resize makes no temporary larger than a band. In
    each band the x blend runs either on the input rows the band reads
    before the rows are gathered, or on its 2 * rows gathered rows,
    whichever is fewer; each element sees the same operations either way, so
    every order and band size gives the same bits.

    With out (a writable float64 (out_h, out_w) array, such as a view of a
    larger canvas) the result is written there and out is returned. out must
    not overlap pixels."""
    check_count("out_h", out_h, 1)
    check_count("out_w", out_w, 1)
    p = _image(pixels)
    out = _output(out, (out_h, out_w))
    if np.may_share_memory(p, out):
        raise ValueError("out must not overlap pixels")
    in_h, in_w = p.shape
    if out_h == in_h and out_w == in_w:
        np.copyto(out, p)
        return out
    y0, y1, vy, wy = _axis_samples(in_h, out_h)
    xs = _axis_samples(in_w, out_w)
    bands = _bands(in_h, out_h, _band_rows(out_h, max(in_w, out_w)))
    # top gathers straight into out unless out is strided (take would buffer
    # it), and is weighted before bot is gathered, so a fresh top is freed first
    contiguous = out.flags.c_contiguous
    for a, b, lo, hi, x_first in bands:
        o, src = out[a:b], p[lo:hi]
        i0, i1 = y0[a:b], y1[a:b]
        if lo:   # the band's samples, shifted to the rows it reads
            i0, i1 = i0 - lo, i1 - lo
        into = o if contiguous else None
        if x_first:
            rows = _lerp_x(src, xs)
            top = rows.take(i0, axis=0, out=into, mode="clip")
        else:
            rows = src.take(i1, axis=0, mode="clip")   # bot's input rows
            top = _lerp_x(src.take(i0, axis=0, mode="clip"), xs, out=into)
        np.multiply(top, vy[a:b, None], out=o)
        del top
        bot = rows.take(i1, axis=0, mode="clip") if x_first else _lerp_x(rows, xs)
        bot *= wy[a:b, None]
        o += bot
        del rows, bot   # before the next band makes its own
    return out


def _resize_onto(p: np.ndarray, h: int, w: int, canvas: np.ndarray) -> np.ndarray:
    # p resized to (h, w) in the middle of canvas, the rest zeroed afterwards,
    # so the image's pixels are written once; the padding is symmetric, an odd
    # leftover pixel after the image
    top = (canvas.shape[0] - h) // 2
    left = (canvas.shape[1] - w) // 2
    resize_bilinear(p, h, w, out=canvas[top:top + h, left:left + w])
    canvas[:top] = 0.0
    canvas[top + h:] = 0.0
    canvas[top:top + h, :left] = 0.0
    canvas[top:top + h, left + w:] = 0.0
    return canvas


def make_global_view(pixels, base: int) -> np.ndarray:
    """Aspect-preserving resize so the longer side equals base, then symmetric
    zero padding of the shorter side, yielding a base x base image."""
    check_count("base", base, 1)
    p = _image(pixels)
    h, w = p.shape
    if w >= h:
        out_w = base
        out_h = max(1, int(round(h * base / w)))
    else:
        out_h = base
        out_w = max(1, int(round(w * base / h)))
    return _resize_onto(p, out_h, out_w, np.empty((base, base)))


def scaled_canvas(pixels, plan: PartitionPlan, *, out: np.ndarray | None = None
                  ) -> np.ndarray:
    """Image scaled by plan.scale and zero-padded symmetrically onto the
    (n*base) x (m*base) tile canvas. With out (a writable float64 array of
    the canvas's shape, not overlapping pixels) the canvas is built there
    and out is returned."""
    p = _image(pixels)
    h, w = p.shape
    target_w, target_h = plan.grid_px()
    out_w = min(target_w, max(1, int(round(w * plan.scale))))
    out_h = min(target_h, max(1, int(round(h * plan.scale))))
    return _resize_onto(p, out_h, out_w, _output(out, (target_h, target_w)))


def extract_patches(pixels, plan: PartitionPlan, *, out: np.ndarray | None = None
                    ) -> list[np.ndarray]:
    """Cut the scaled, padded canvas into m*n base x base tiles, returned
    top-to-bottom then left-to-right. The tiles are views of one canvas,
    built in out when it is given (see scaled_canvas), so writing a tile
    writes the canvas, and the next build into out overwrites the tiles."""
    canvas = scaled_canvas(pixels, plan, out=out)
    base = plan.base
    return [canvas[r * base:(r + 1) * base, c * base:(c + 1) * base]
            for r in range(plan.n) for c in range(plan.m)]
