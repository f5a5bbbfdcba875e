"""Property tests: invariants of the router's prefix cut and of its batched
pass, the pipeline gradient's directional derivative, the partition planner,
bilinear resizing and the factorization runner's stop rule, checked on
inputs that hypothesis draws.

The draws are derandomized, so every run checks the same examples and the
suite stays reproducible; raise max_examples locally to search wider.
"""

import copy
from itertools import accumulate

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slicemix import bilinear as bl
from slicemix import pipeline as pl
from slicemix.numerics import make_rng
from slicemix.routing import (RouterConfig, image_selection, route_batch, route_tokens,
                              select_prefix)
from slicemix.slicing import plan_partition, resize_bilinear

properties = settings(max_examples=300, deadline=None, derandomize=True, database=None)
gammas = st.floats(min_value=1e-6, max_value=1.0)


@st.composite
def score_vectors(draw):
    """Non-negative scores that sum to 1, as the router's softmax gives them."""
    raw = draw(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1,
                        max_size=40).filter(lambda v: sum(v) > 0.0))
    v = np.array(raw)
    return v / v.sum()


class TestSelectPrefix:
    @properties
    @given(score_vectors(), gammas | st.just(1.0))
    def test_prefix_reaches_gamma_and_is_minimal(self, scores, gamma):
        kept, cum = select_prefix(scores, gamma)
        assert len(set(kept.tolist())) == len(kept) >= 1
        assert cum == np.cumsum(scores[kept])[-1]
        if gamma == 1.0 or cum < gamma:
            # gamma = 1 keeps all, and below it only float rounding at gamma
            # near 1 can fall short, which keeps all too
            assert len(kept) == len(scores)
        else:
            # without its last token the prefix no longer reaches gamma
            assert len(kept) == 1 or np.cumsum(scores[kept])[-2] < gamma

    @properties
    @given(score_vectors(), gammas)
    def test_kept_in_descending_score_order(self, scores, gamma):
        kept, _ = select_prefix(scores, gamma)
        assert np.all(np.diff(scores[kept]) <= 0.0)
        # no dropped token scores above the last kept one
        dropped = np.setdiff1d(np.arange(len(scores)), kept)
        assert dropped.size == 0 or scores[dropped].max() <= scores[kept[-1]]


@st.composite
def ragged_batches(draw):
    """1-20 images of 1-40 tokens each, 1-12 features wide, stacked, with
    their row offsets and a text matrix. Hypothesis fills arrays with repeated
    values, so ties occur; widths from 8 on make BLAS products depend on a
    row's position, which the router must not."""
    width = draw(st.integers(min_value=1, max_value=12))
    lens = draw(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=20))
    values = st.floats(min_value=-4.0, max_value=4.0)
    tokens = draw(hnp.arrays(np.float64, (sum(lens), width), elements=values))
    text = draw(hnp.arrays(np.float64, (draw(st.integers(min_value=1, max_value=3)), width),
                           elements=values))
    return tokens, np.array([0, *accumulate(lens)]), text


class TestRouteBatch:
    @properties
    @given(ragged_batches(), gammas | st.just(1.0),
           st.none() | st.integers(min_value=0, max_value=2**32 - 1))
    def test_each_image_routes_as_on_its_own(self, batch, gamma, seed):
        # with a seed, one draw for the whole batch against route_tokens'
        # draws image by image: one normal per token, in token order
        tokens, starts, text = batch
        cfg = RouterConfig(gamma=gamma, train_noise_sigma=0.1)
        r_batch, r_alone, noise = None, None, None
        if seed is not None:
            r_batch, r_alone = make_rng(seed), make_rng(seed)
            noise = cfg.train_noise_sigma * r_batch.standard_normal(len(tokens))
        cut = scores, rows, n_kept, kept = route_batch(tokens, starts, text, gamma, noise)
        sels = [image_selection(cut, starts, i, gamma) for i in range(len(starts) - 1)]
        assert n_kept.tolist() == [len(s.kept_indices) for s in sels]
        # the batch layout: a score slot per token of the longest image, zero
        # past an image's own; as many kept slots per image as the most any
        # keeps, and a mask of the kept ones
        real = np.arange(scores.shape[1]) < np.diff(starts)[:, None]
        assert scores.shape == real.shape and np.all(scores[~real] == 0.0)
        slots = np.arange(rows.shape[1]) < n_kept[:, None]
        assert rows.shape[1] == n_kept.max()
        assert np.array_equal(kept, slots)
        for i, sel in enumerate(sels):
            # bit for bit, so a tie breaks the same way in the batch and alone
            alone = route_tokens(tokens[starts[i]:starts[i + 1]], text, cfg, r_alone)
            assert np.array_equal(sel.kept_indices, alone.kept_indices)
            assert np.array_equal(sel.scores, alone.scores)
            assert sel.cumulative_at_cut == alone.cumulative_at_cut
            assert np.array_equal(rows[i][slots[i]], starts[i] + sel.kept_indices)
        if seed is not None:
            assert r_batch.bit_generator.state == r_alone.bit_generator.state

    @properties
    @given(ragged_batches(), gammas | st.just(1.0),
           st.none() | st.integers(min_value=0, max_value=2**32 - 1))
    def test_cut_is_the_shortest_prefix_reaching_gamma(self, batch, gamma, seed):
        tokens, starts, text = batch
        noise = None if seed is None else 0.1 * make_rng(seed).standard_normal(len(tokens))
        cut = route_batch(tokens, starts, text, gamma, noise)
        for i in range(len(starts) - 1):
            sel = image_selection(cut, starts, i, gamma)
            mass = np.cumsum(sel.scores[sel.kept_indices])
            assert len(set(sel.kept_indices.tolist())) == len(mass) >= 1
            assert sel.cumulative_at_cut == mass[-1]
            if gamma == 1.0:
                assert len(mass) == len(sel.scores)
            else:
                assert mass[-1] >= gamma or len(mass) == len(sel.scores)
                assert len(mass) == 1 or mass[-2] < gamma
            if noise is None:
                # noiseless, the keeping order is the descending score order,
                # and equal scores keep the lower index first
                kept = sel.kept_indices
                dropped = np.setdiff1d(np.arange(len(sel.scores)), kept)
                step = np.diff(sel.scores[kept])
                assert np.all((step < 0.0) | ((step == 0.0) & (np.diff(kept) > 0)))
                last = sel.scores[kept[-1]]
                assert np.all(sel.scores[dropped] <= last)
                assert np.all(dropped[sel.scores[dropped] == last] > kept[-1])


@st.composite
def peaked_batches(draw):
    """1-8 images of 2-60 tokens whose logits, drawn in [-1, 1], are scaled by
    up to 50, stacked as one-wide token rows, so that against the text [[1]]
    the router's scores are their softmax. Such scores put nearly all of the
    mass on a few tokens, and the rest can lie below the rounding of the
    running mass near 1."""
    lens = draw(st.lists(st.integers(min_value=2, max_value=60), min_size=1, max_size=8))
    logits = draw(hnp.arrays(np.float64, sum(lens),
                             elements=st.floats(min_value=-1.0, max_value=1.0)))
    scale = draw(st.floats(min_value=1.0, max_value=50.0))
    return scale * logits[:, None], np.array([0, *accumulate(lens)])


class TestPeakedCut:
    @properties
    @given(peaked_batches(), gammas, gammas)
    def test_gamma_one_keeps_all_and_lower_cuts_are_minimal_and_monotone(self, batch, g1, g2):
        tokens, starts = batch
        lo, hi = sorted((g1, g2))
        cuts = {g: route_batch(tokens, starts, np.ones((1, 1)), g) for g in (lo, hi, 1.0)}
        assert np.array_equal(cuts[1.0][2], np.diff(starts))
        for i in range(len(starts) - 1):
            sels = {g: image_selection(cut, starts, i, g) for g, cut in cuts.items()}
            scores, every = sels[1.0].scores, sels[1.0].kept_indices
            assert np.array_equal(np.sort(every), np.arange(len(scores)))
            for g, sel in sels.items():
                kept = sel.kept_indices
                # select_prefix on the image's scores makes the same cut
                alone, cum = select_prefix(scores, g)
                assert np.array_equal(alone, kept) and cum == sel.cumulative_at_cut
                # every cut is a prefix of the one keeping order: a higher
                # gamma never keeps less
                assert np.array_equal(kept, every[:len(kept)])
                if g < 1.0:
                    mass = np.cumsum(scores[kept])
                    assert mass[-1] >= g or len(kept) == len(scores)
                    assert len(kept) == 1 or mass[-2] < g
            assert len(sels[lo].kept_indices) <= len(sels[hi].kept_indices)


@st.composite
def pipeline_cases(draw):
    """A small toy task with its gate noise on or off, its parameters, a
    forward mode, a gate override (None or a drawn mixing pair), and the seeds
    of the noise generator and of a direction."""
    cfg = pl.PipelineConfig(
        feat_dim=draw(st.integers(min_value=1, max_value=6)),
        model_dim=draw(st.integers(min_value=1, max_value=6)),
        out_dim=draw(st.integers(min_value=1, max_value=4)),
        local_queries=draw(st.integers(min_value=1, max_value=5)),
        gamma=draw(gammas),
        gate_noise=draw(st.booleans()),
        sizes=tuple(draw(st.lists(st.sampled_from((96, 128, 160, 192)), min_size=1,
                                  max_size=3, unique=True))),
        n_train=draw(st.integers(min_value=1, max_value=3)), n_eval=1)
    seeds = st.integers(min_value=0, max_value=2**32 - 1)
    task = pl.make_toy_task(draw(seeds), cfg)
    weight = draw(st.floats(min_value=0.0, max_value=1.0))
    override = draw(st.none() | st.just((weight, 1.0 - weight)))
    return (task, pl.init_params(task, draw(seeds)), draw(st.sampled_from(pl.FORWARD_MODES)),
            override, draw(seeds), draw(seeds))


class TestDirectionalDerivative:
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(pipeline_cases())
    def test_central_difference_matches_the_gradient(self, case):
        # with the router's selection pinned and each evaluation's gate noise,
        # when the task enables it, replayed from an identically seeded
        # generator, the loss is a smooth function of the flat parameter
        # vector, so its central difference along a unit direction v matches g . v
        task, params, mode, override, noise_seed, v_seed = case
        batch = task.train_set
        sels = None
        if mode != "global_only":
            sels = [pl.forward(s, params, task, mode)[1].selection for s in batch]

        def run(p):
            return pl.batch_loss_and_grads(batch, p, task, mode, rng=make_rng(noise_seed),
                                           gate_override=override, fixed_selections=sels)

        _, grads = run(params)
        point = pl.params_vector(params)
        v = make_rng(v_seed).standard_normal(point.size)
        v /= np.linalg.norm(v)
        h, vals = 1e-5, []
        for sign in (1.0, -1.0):
            p = copy.deepcopy(params)
            pl.set_params_vector(p, point + sign * h * v)
            vals.append(run(p)[0])
        fd, exact = (vals[0] - vals[1]) / (2.0 * h), float(pl.params_vector(grads) @ v)
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


sides = st.integers(min_value=1, max_value=5000)


class TestPlanPartition:
    @properties
    @given(sides, sides, st.integers(min_value=1, max_value=800),
           st.integers(min_value=1, max_value=6))
    def test_scaled_image_fits_the_canvas(self, w, h, base, max_grid):
        plan = plan_partition(w, h, base=base, max_grid=max_grid)
        assert 1 <= plan.m <= max_grid and 1 <= plan.n <= max_grid
        canvas_w, canvas_h = plan.grid_px()
        assert w * plan.scale <= canvas_w * (1 + 1e-12)
        assert h * plan.scale <= canvas_h * (1 + 1e-12)
        assert plan.wasted >= 0.0
        assert plan.utilized <= float(w) * float(h)

    @properties
    @given(sides, sides, st.integers(min_value=1, max_value=800))
    def test_transposed_geometry_mirrors_the_plan(self, w, h, base):
        p = plan_partition(w, h, base=base)
        q = plan_partition(h, w, base=base)
        assert (q.m, q.n) == (p.n, p.m)
        assert (q.scale, q.utilized, q.wasted) == (p.scale, p.utilized, p.wasted)


pixel_sides = st.integers(min_value=1, max_value=40)


class TestResizeBilinear:
    @properties
    @given(pixel_sides, pixel_sides, pixel_sides, pixel_sides,
           st.floats(min_value=-1e3, max_value=1e3))
    def test_constant_images_stay_constant(self, in_h, in_w, out_h, out_w, value):
        out = resize_bilinear(np.full((in_h, in_w), value), out_h, out_w)
        assert out.shape == (out_h, out_w)
        # the absolute floor only matters for subnormal values, whose
        # products with the interpolation weights lose relative precision
        np.testing.assert_allclose(out, value, rtol=1e-14, atol=1e-300)

    @properties
    @given(pixel_sides, pixel_sides, pixel_sides, pixel_sides,
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_values_stay_in_the_input_range(self, in_h, in_w, out_h, out_w, seed):
        img = np.random.default_rng(seed).random((in_h, in_w))
        out = resize_bilinear(img, out_h, out_w)
        slack = 1e-15
        assert out.min() >= img.min() - slack and out.max() <= img.max() + slack


starts = st.tuples(st.floats(min_value=-2.0, max_value=2.0),
                   st.floats(min_value=-2.0, max_value=2.0)).filter(
    lambda z: z[0] * z[0] + z[1] * z[1] > 1e-4)


class TestRunExperimentStopRule:
    """Every method records rows until the divergence bound, the loss
    plateau or the step budget ends the run, whichever comes first."""

    @properties
    @given(st.floats(min_value=-0.9, max_value=0.9),
           st.sampled_from(["gd", "gd_vector", "alternating"]), starts,
           st.floats(min_value=1e-3, max_value=3.0), st.integers(min_value=0, max_value=300),
           st.none() | st.floats(min_value=1e-12, max_value=1e-1),
           st.integers(min_value=1, max_value=100))
    def test_one_rule_ends_every_run(self, c, method, init, eta, steps, stop_tol, window):
        inst = bl.make_instance(d=4, c=c, seed=0)
        tr = bl.run_experiment(inst, init=init, method=method, steps=steps, eta=eta,
                               stop_tol=stop_tol, stop_window=window)
        n = len(tr.step)
        assert np.array_equal(tr.step, np.arange(n)) and n <= steps + 1
        assert tr.diverged == (tr.norm_u[-1] > bl.DIVERGENCE_NORM)
        assert np.all(tr.norm_u[:-1] <= bl.DIVERGENCE_NORM)
        plateaus = [] if stop_tol is None else [
            t for t in range(window, n) if abs(tr.loss[t] - tr.loss[t - window]) < stop_tol]
        if tr.steps_to_converge is not None:
            assert not tr.diverged
            assert plateaus[:1] == [tr.steps_to_converge] == [n - 1]
        else:
            # the norm check comes first, so a diverged last row may also plateau
            assert plateaus in ([], [n - 1] if tr.diverged else [])
        if not tr.diverged and tr.steps_to_converge is None:
            assert n == steps + 1
