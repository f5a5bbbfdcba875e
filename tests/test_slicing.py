"""Slicing contracts, checked against an independently written brute-force
enumerator and direct pixel-geometry arithmetic, and the per-geometry
caches of plans and resample grids."""

import sys
from pathlib import Path

import numpy as np
import pytest

from slicemix import pipeline as pl
from slicemix.numerics import make_rng
from slicemix.slicing import (
    BASE_RESOLUTION,
    _axis_samples,
    extract_patches,
    make_global_view,
    plan_partition,
    resize_bilinear,
    scaled_canvas,
)


def brute_force_plan(width, height, base=BASE_RESOLUTION, max_grid=6):
    """Oracle: enumerate every grid, apply the selection rule with explicit
    sorting instead of the library's streaming comparison."""
    rows = []
    for m in range(1, max_grid + 1):
        for n in range(1, max_grid + 1):
            s = min(m * base / width, n * base / height)
            area = float(width) * float(height)
            utilized = min(area, area * (s * s))
            wasted = max(0.0, float(m * base * n * base) - utilized)
            rows.append({"m": m, "n": n, "utilized": utilized, "wasted": wasted})
    u_max = max(r["utilized"] for r in rows)
    tied = [r for r in rows if r["utilized"] >= u_max * (1.0 - 1e-9)]
    tied.sort(key=lambda r: (r["wasted"], r["m"], r["n"]))
    return tied[0]["m"], tied[0]["n"]


class TestPlanPartition:
    def test_exact_fit_square(self):
        plan = plan_partition(336, 336)
        assert (plan.m, plan.n) == (1, 1)
        assert plan.utilized == 336.0 * 336.0
        assert plan.wasted == 0.0

    def test_1024_square_picks_4x4(self):
        plan = plan_partition(1024, 1024)
        assert (plan.m, plan.n) == (4, 4)
        assert brute_force_plan(1024, 1024) == (4, 4)

    def test_wide_two_by_one(self):
        plan = plan_partition(672, 336)
        assert (plan.m, plan.n) == (2, 1)
        assert plan.scale == 1.0
        assert plan.wasted == 0.0

    def test_rejects_degenerate_geometry(self):
        with pytest.raises(ValueError):
            plan_partition(0, 10)

    def test_oracle_equivalence_1000_geometries(self):
        rng = make_rng(11)
        for _ in range(1000):
            w = int(rng.integers(64, 4097))
            h = int(rng.integers(64, 4097))
            plan = plan_partition(w, h)
            assert (plan.m, plan.n) == brute_force_plan(w, h), (w, h)

    def test_utilized_at_least_single_tile(self):
        rng = make_rng(12)
        base = BASE_RESOLUTION
        for _ in range(200):
            w = int(rng.integers(64, 4097))
            h = int(rng.integers(64, 4097))
            plan = plan_partition(w, h)
            s1 = min(base / w, base / h)
            u1 = min(w * h, w * h * s1 * s1)
            assert plan.utilized >= u1 - 1e-9

    def test_transpose_symmetry(self):
        rng = make_rng(13)
        for _ in range(300):
            w = int(rng.integers(64, 4097))
            h = int(rng.integers(64, 4097))
            p = plan_partition(w, h)
            q = plan_partition(h, w)
            assert p.m == q.n and p.n == q.m, (w, h)

    def test_scale_formula_stored_exactly(self):
        plan = plan_partition(1000, 500)
        assert plan.scale == min(plan.m * 336 / 1000, plan.n * 336 / 500)


class TestResize:
    def test_identity(self):
        rng = make_rng(14)
        img = rng.random((17, 23))
        assert np.array_equal(resize_bilinear(img, 17, 23), img)

    def test_constant_preserved(self):
        img = np.full((30, 40), 0.625)
        out = resize_bilinear(img, 21, 13)
        np.testing.assert_allclose(out, 0.625, atol=1e-12)

    def test_affine_ramp_exact_on_interior(self):
        # bilinear reproduces affine images away from clamped borders
        h, w = 20, 30
        ys, xs = np.mgrid[0:h, 0:w]
        img = 0.01 * xs + 0.02 * ys
        out = resize_bilinear(img, 40, 60)
        ys2 = (np.arange(40) + 0.5) * (h / 40) - 0.5
        xs2 = (np.arange(60) + 0.5) * (w / 60) - 0.5
        expect = 0.01 * xs2[None, :] + 0.02 * ys2[:, None]
        np.testing.assert_allclose(out[1:-1, 1:-1], expect[1:-1, 1:-1], atol=1e-12)


    @pytest.mark.parametrize("in_shape, out_shape", [
        ((20, 30), (41, 25)),   # x blend first, then rows gathered
        ((60, 30), (21, 44)),   # rows gathered, then x blend
        ((20, 30), (20, 30)),   # same size: a copy
    ])
    def test_out_may_overlap_the_image(self, in_shape, out_shape):
        buffer = make_rng(21).random(3000)
        img = buffer[:in_shape[0] * in_shape[1]].reshape(in_shape)
        want = resize_bilinear(img.copy(), *out_shape)
        out = buffer[7:7 + out_shape[0] * out_shape[1]].reshape(out_shape)
        assert resize_bilinear(img, *out_shape, out=out) is out
        assert out.tobytes() == want.tobytes()


def _read_only(shape):
    out = np.zeros(shape)
    out.setflags(write=False)
    return out


@pytest.mark.parametrize("make_out", [
    lambda shape: np.zeros((shape[0] + 1, shape[1])),
    lambda shape: np.zeros((shape[0], shape[1], 1)),
    lambda shape: np.zeros(shape, dtype=np.float32),
    _read_only,
    lambda shape: np.zeros(shape).tolist(),
], ids=["shape", "ndim", "dtype", "read-only", "list"])
def test_a_bad_out_is_rejected_with_one_message(make_out):
    img = make_rng(22).random((300, 500))
    plan = plan_partition(500, 300, base=96)
    canvas_w, canvas_h = plan.grid_px()
    calls = [(lambda out: resize_bilinear(img, 40, 60, out=out), (40, 60)),
             (lambda out: scaled_canvas(img, plan, out=out), (canvas_h, canvas_w)),
             (lambda out: extract_patches(img, plan, out=out), (canvas_h, canvas_w))]
    for call, shape in calls:
        with pytest.raises(ValueError) as err:
            call(make_out(shape))
        assert str(err.value) == f"out must be a writable float64 array of shape {shape}"


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_an_empty_image_is_rejected_with_one_message(shape):
    # numpy's take raised IndexError on an empty axis, and the global view of
    # a (0, 0) image divided by zero
    img = np.zeros(shape)
    plan = plan_partition(500, 300, base=96)
    for call in (lambda: resize_bilinear(img, 40, 60), lambda: make_global_view(img, 96),
                 lambda: extract_patches(img, plan)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == "image must be a non-empty 2-D array"


@pytest.mark.parametrize("out_h, out_w", [(0, 5), (5, 0), (-1, 5)])
def test_resize_rejects_a_non_positive_size(out_h, out_w):
    with pytest.raises(ValueError) as err:
        resize_bilinear(np.ones((4, 4)), out_h, out_w)
    name = "out_h" if out_h < 1 else "out_w"
    assert str(err.value) == f"{name} must be at least 1 and an integer"


class TestGlobalView:
    @pytest.mark.parametrize("base", [0, -3])
    def test_a_base_below_one_is_named(self, base):
        # base 0 raised the resize's "output size must be positive", and -3
        # numpy's "negative dimensions are not allowed"
        with pytest.raises(ValueError) as err:
            make_global_view(np.ones((10, 20)), base)
        assert str(err.value) == "base must be at least 1 and an integer"

    def test_identity_at_base(self):
        rng = make_rng(15)
        img = rng.random((336, 336))
        assert np.array_equal(make_global_view(img, BASE_RESOLUTION), img)

    def test_constant_downscale(self):
        img = np.full((672, 672), 0.3)
        out = make_global_view(img, BASE_RESOLUTION)
        assert out.shape == (336, 336)
        np.testing.assert_allclose(out, 0.3, atol=1e-12)

    def test_pad_geometry_wide_image(self):
        # 672 wide x 336 tall, all ones: resized to 336x168, padded 84/84
        img = np.ones((336, 672))
        out = make_global_view(img, BASE_RESOLUTION)
        assert out.shape == (336, 336)
        assert np.all(out[:84] == 0.0)
        assert np.all(out[-84:] == 0.0)
        np.testing.assert_allclose(out[84:252], 1.0, atol=1e-12)


class TestExtractPatches:
    def test_single_tile_is_identity(self):
        rng = make_rng(16)
        img = rng.random((336, 336))
        plan = plan_partition(336, 336)
        patches = extract_patches(img, plan)
        assert len(patches) == 1
        assert np.array_equal(patches[0], img)

    def test_2x2_partition_reassembles(self):
        rng = make_rng(17)
        img = rng.random((672, 672))
        plan = plan_partition(672, 672)
        assert (plan.m, plan.n) == (2, 2)
        patches = extract_patches(img, plan)
        top = np.hstack(patches[:2])
        bottom = np.hstack(patches[2:])
        assert np.array_equal(np.vstack([top, bottom]), img)

    def test_patch_grid_geometry_oracle(self):
        # direct index arithmetic against the scaled canvas
        rng = make_rng(18)
        img = rng.random((800, 1000))
        plan = plan_partition(1000, 800)
        canvas = scaled_canvas(img, plan)
        patches = extract_patches(img, plan)
        assert len(patches) == plan.m * plan.n
        base = plan.base
        for idx, patch in enumerate(patches):
            r, c = divmod(idx, plan.m)
            assert np.array_equal(
                patch, canvas[r * base:(r + 1) * base, c * base:(c + 1) * base])

    def test_padding_region_is_zero(self):
        img = np.ones((800, 1000))
        plan = plan_partition(1000, 800)
        canvas = scaled_canvas(img, plan)
        target_w, target_h = plan.grid_px()
        assert canvas.shape == (target_h, target_w)
        inner_h = int(round(800 * plan.scale))
        top = (target_h - inner_h) // 2
        assert np.all(canvas[:top] == 0.0)
        assert np.all(canvas[top + inner_h:] == 0.0)

    @pytest.mark.parametrize("h, w", [(800, 1000), (1000, 800), (333, 1001), (95, 97)])
    def test_tiles_are_views_of_one_canvas(self, h, w):
        img = make_rng(23).random((h, w))
        plan = plan_partition(w, h, base=96)
        canvas_w, canvas_h = plan.grid_px()
        fresh = scaled_canvas(img, plan)
        # a dirty buffer: every pixel of the canvas must be written
        for out in (None, np.full((canvas_h, canvas_w), np.nan)):
            tiles = extract_patches(img, plan, out=out)
            canvas = tiles[0].base if out is None else out
            assert all(t.base is canvas for t in tiles)
            assert canvas.tobytes() == fresh.tobytes()
            rebuilt = np.vstack([np.hstack(tiles[r * plan.m:(r + 1) * plan.m])
                                 for r in range(plan.n)])
            assert rebuilt.tobytes() == canvas.tobytes()
            tiles[-1][...] = 5.0   # a tile writes through to its canvas
            assert np.all(canvas[-96:, -96:] == 5.0)

    def test_1024_square_16_patches(self):
        rng = make_rng(19)
        img = rng.random((1024, 1024))
        plan = plan_partition(1024, 1024)
        patches = extract_patches(img, plan)
        assert len(patches) == 16
        assert plan.num_patches == len(patches)
        # scale 1.3125 fills the 1344px canvas exactly: reassembly matches
        canvas = scaled_canvas(img, plan)
        rowsets = [np.hstack(patches[i * 4:(i + 1) * 4]) for i in range(4)]
        assert np.array_equal(np.vstack(rowsets), canvas)

    def test_partition_property_random_sizes(self):
        rng = make_rng(20)
        for _ in range(10):
            w = int(rng.integers(64, 1200))
            h = int(rng.integers(64, 1200))
            img = rng.random((h, w))
            plan = plan_partition(w, h)
            canvas = scaled_canvas(img, plan)
            patches = extract_patches(img, plan)
            rebuilt = np.vstack([np.hstack(patches[r * plan.m:(r + 1) * plan.m])
                                 for r in range(plan.n)])
            assert np.array_equal(rebuilt, canvas)


class TestGeometryCaches:
    """plan_partition and the resample grids are cached per geometry: a
    cached answer is the uncached one, a bad call is never cached, and the
    shared grid arrays cannot be written."""

    def test_a_plan_is_the_uncached_plan(self):
        rng = make_rng(24)
        sides = rng.integers(1, 2000, size=(300, 2))
        # repeats, so most of the later calls are cache hits
        for w, h in np.concatenate([sides, sides[::7]]).tolist():
            base, max_grid = int(rng.integers(1, 400)), int(rng.integers(1, 7))
            for _ in range(2):
                got = plan_partition(w, h, base=base, max_grid=max_grid)
                assert got == plan_partition.__wrapped__(w, h, base=base, max_grid=max_grid)

    @pytest.mark.parametrize("args, kwargs", [((0, 10), {}), ((10, 10), {"base": 0}),
                                              ((3, 3), {"base": 4, "max_grid": 0}),
                                              ((1.5, 100), {})])
    def test_a_bad_call_raises_on_every_repeat(self, args, kwargs):
        cached = plan_partition.cache_info().currsize
        for _ in range(3):
            with pytest.raises(ValueError):
                plan_partition(*args, **kwargs)
        assert plan_partition.cache_info().currsize == cached

    @pytest.mark.parametrize("n_in, n_out", [(5, 7), (300, 96), (96, 96)])
    def test_grid_arrays_reject_writes(self, n_in, n_out):
        cached = _axis_samples(n_in, n_out)
        fresh = _axis_samples.__wrapped__(n_in, n_out)
        for a, b in zip(cached, fresh):
            assert a.tobytes() == b.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
        assert _axis_samples(n_in, n_out) is cached

    def test_a_build_records_one_plan_span_per_image(self):
        # one size, so every plan after the first comes from the cache
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
        from tracing import Tracer

        tracer = Tracer()
        try:
            tracer.install()
            pl.make_toy_task(5, pl.PipelineConfig(sizes=(128,), n_train=4, n_eval=3))
        finally:
            tracer.uninstall()
        counts = tracer.phase(0, tracer.mark()).counts()
        assert counts["slicing.plan_partition"] == 7
        assert counts["slicing.make_global_view"] == counts["slicing.extract_patches"] == 7
