"""Property tests: invariants of the router's prefix cut and of its batched
pass, the folded query head against the textbook one and its central
differences, the pipeline gradient's directional derivative, a batched
pipeline pass against a loop of lone ones, stage freezes against the all-groups gradient
and a reference training loop, the partition planner,
bilinear resizing, a task build against one from fresh arrays and the
factorization runner's stop rule, checked on
inputs that hypothesis draws.

The draws are derandomized, so every run checks the same examples and the
suite stays reproducible; raise max_examples locally to search wider.
"""

import copy
import json
import math
import sys
from dataclasses import replace
from itertools import accumulate, combinations
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slicemix import adapters as ad
from slicemix import bilinear as bl
from slicemix import pipeline as pl
from slicemix import slicing as sl
from slicemix.numerics import attention_weights, fd_grad_check, make_rng, normal_cdf, softmax
from slicemix.routing import (RouterConfig, image_selection, route_batch, route_layout,
                              route_tokens, select_prefix)
from slicemix.slicing import plan_partition, resize_bilinear
from test_pipeline import lone_generators, noisy_forward, noisy_loss_and_grads

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


@st.composite
def logit_batches(draw):
    """1-8 images of 1-60 tokens, one feature wide, against a text of one 1.0:
    each token's similarity is its logit, a value in [-1, 1] scaled by up to
    50, so an image's score mass may sit on one token or spread over all."""
    lens = draw(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=8))
    scale = draw(st.floats(min_value=0.0, max_value=50.0))
    logits = draw(hnp.arrays(np.float64, (sum(lens), 1),
                             elements=st.floats(min_value=-1.0, max_value=1.0)))
    return scale * logits, np.array([0, *accumulate(lens)]), np.ones((1, 1))


class TestRouteBatch:
    @properties
    @given(logit_batches(), gammas | st.just(1.0))
    def test_each_row_is_select_prefix_on_its_scores(self, batch, gamma):
        # the batch and the one-vector paths share one cut, bit for bit
        tokens, starts, text = batch
        cut = scores, rows, n_kept, _ = route_batch(tokens, starts, text, gamma, None,
                                                   route_layout(starts))
        for i in range(len(starts) - 1):
            kept, cum = select_prefix(scores[i, :starts[i + 1] - starts[i]], gamma)
            assert n_kept[i] == len(kept)
            assert np.array_equal(rows[i, :n_kept[i]] - starts[i], kept)
            assert cum == image_selection(cut, starts, i, gamma).cumulative_at_cut

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
        cut = scores, rows, n_kept, kept = route_batch(tokens, starts, text, gamma, noise,
                                                       route_layout(starts))
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
        cut = route_batch(tokens, starts, text, gamma, noise, route_layout(starts))
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


SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan)


@st.composite
def attention_stacks(draw):
    """Queries and 2-D or stacked 3-D keys, 1-8 features wide, with 1-9 keys
    per row (one key makes one-column score rows) and stacks of up to 30.
    Up to four entries are 0.0, -0.0, +-inf or NaN, and widths from 8 on
    send the products through BLAS's larger kernels."""
    d = draw(st.integers(min_value=1, max_value=8))
    q_shape = (draw(st.integers(min_value=1, max_value=5)), d)
    k_shape = (*draw(st.sampled_from([(), (1,), (30,)]) | st.tuples(
        st.integers(min_value=1, max_value=6))), draw(st.integers(min_value=1, max_value=9)), d)
    q, k = (draw(hnp.arrays(np.float64, shape, elements=st.floats(min_value=-10.0,
                                                                   max_value=10.0)))
            for shape in (q_shape, k_shape))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        a = draw(st.sampled_from([q, k]))
        a.flat[draw(st.integers(min_value=0, max_value=a.size - 1))] = draw(
            st.sampled_from(SPECIAL_FLOATS))
    return q, k


class TestAttentionWeights:
    @properties
    @given(attention_stacks())
    def test_bitwise_softmax_of_the_scaled_scores(self, case):
        # the weights take their row max across a transposed copy on tall
        # stacks and along each row on short ones, and are bitwise softmax's,
        # which takes it along each row: a max is exact in
        # any order, and -0.0 against 0.0 only changes the sign of zeros that
        # exp maps to 1.0. A row with a NaN is all NaN either way, but numpy's
        # own last-axis max picks the payload and sign of its NaN by row
        # length and position, so NaNs compare as NaNs
        q, k = case
        with np.errstate(all="ignore"):
            got = attention_weights(q, k)
            want = softmax(q @ k.swapaxes(-1, -2) / math.sqrt(q.shape[1]))
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()


def textbook_head(tokens, queries, wk, wv, wo):
    """The query head as written, keys and values formed:
    softmax(q (t wk)^T / sqrt(d)) (t wv) wo."""
    k, v = tokens @ wk, tokens @ wv
    s = queries @ k.swapaxes(-1, -2) / math.sqrt(queries.shape[1])
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True) @ v @ wo


@st.composite
def query_head_cases(draw):
    """Query-head parameters and a lone token matrix or a stack of 1-4, with
    1-6 tokens, 1-5 queries (fewer, as many or more), 1-5 features in and 1-4
    out, and an upstream gradient; the values come from a drawn seed."""
    n_q, d_in, d_out, n_tokens = (draw(st.integers(min_value=1, max_value=hi))
                                  for hi in (5, 5, 4, 6))
    stack = draw(st.sampled_from([(), (1,), (2,), (4,)]))
    rng = make_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    p = ad.init_qformer(rng, n_q, d_in, d_out)
    tokens = rng.standard_normal((*stack, n_tokens, d_in))
    return p, tokens, rng.standard_normal((*stack, n_q, d_out))


class TestFoldedQueryHead:
    @settings(max_examples=800, deadline=None, derandomize=True, database=None)
    @given(query_head_cases())
    def test_matches_the_textbook_head_and_its_gradients(self, case):
        # qformer_apply folds wk into the queries and wv into wo; the output
        # matches the head that forms keys and values to rounding, and the
        # four gradients match that head's central differences
        p, tokens, dout = case
        shapes = [a.shape for a in (p.queries, p.wk, p.wv, p.wo)]

        def textbook(vec):
            parts = np.split(vec, list(accumulate(math.prod(s) for s in shapes))[:-1])
            return textbook_head(tokens, *(a.reshape(s) for a, s in zip(parts, shapes)))

        point = np.concatenate([a.ravel() for a in (p.queries, p.wk, p.wv, p.wo)])
        acts = ad.qformer_apply(tokens, p)
        want = textbook(point)
        assert acts.out.shape == want.shape == dout.shape
        assert np.max(np.abs(acts.out - want)) <= 1e-12 * np.max(np.abs(want))
        grads = ad.QFormerParams(*(np.zeros(s) for s in shapes))
        ad.qformer_vjp(acts, p, dout, grads)
        analytic = np.concatenate([a.ravel() for a in (grads.queries, grads.wk, grads.wv,
                                                       grads.wo)])
        assert fd_grad_check(lambda vec: np.vdot(textbook(vec), dout), analytic, point) < 1e-6


class TestNormalCdf:
    @properties
    @given(st.lists(st.floats(min_value=-10.0, max_value=10.0) | st.floats(allow_nan=False),
                    min_size=1, max_size=50))
    # a grid point, cell edges (the farthest from a Taylor centre) at -3, -1
    # and 0, the end cells' edges, and the first floats past ±8.5
    @example([-3.0, -3.0 + 1 / 1024, -1.0 - 1 / 1024, 1 / 1024, -8.5 + 1 / 1024,
              8.5 - 1 / 1024, math.nextafter(8.5, 9.0), math.nextafter(-8.5, -9.0)])
    def test_matches_the_erfc_reference(self, xs):
        # the reference is Φ without the cancellation of 0.5 * (1 + erf(x / sqrt(2))),
        # whose own rounding grows with |x| in the lower tail, so the relative
        # bound holds from -3 up and the absolute one everywhere
        x = np.array(xs)
        got = normal_cdf(x)
        want = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in xs])
        err = np.abs(got - want)
        assert np.all(err <= 4e-16), x[err > 4e-16]
        upper = x >= -3.0
        assert np.all(err[upper] <= 4e-15 * want[upper]), x[upper][err[upper] > 4e-15 * want[upper]]
        assert np.all(got[x > 8.5] == 1.0) and np.all(got[x < -8.5] == 0.0)


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
        layout = route_layout(starts)
        cuts = {g: route_batch(tokens, starts, np.ones((1, 1)), g, None, layout)
                for g in (lo, hi, 1.0)}
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
def pipeline_cases(draw, model_dims=st.integers(min_value=1, max_value=6)):
    """A small toy task with its gate noise on or off, its parameters, a
    forward mode, and the seeds of the noise generator and of a direction."""
    cfg = pl.PipelineConfig(
        feat_dim=draw(st.integers(min_value=1, max_value=6)),
        model_dim=draw(model_dims),
        out_dim=draw(st.integers(min_value=1, max_value=4)),
        local_queries=draw(st.integers(min_value=1, max_value=5)),
        gamma=draw(gammas),
        gate_noise=draw(st.booleans()),
        sizes=tuple(draw(st.lists(st.sampled_from((96, 128, 160, 192)), min_size=1,
                                  max_size=3, unique=True))),
        n_train=draw(st.integers(min_value=1, max_value=3)), n_eval=1)
    seeds = st.integers(min_value=0, max_value=2**32 - 1)
    task = pl.make_toy_task(draw(seeds), cfg)
    return (task, pl.init_params(task, draw(seeds)), draw(st.sampled_from(pl.FORWARD_MODES)),
            draw(seeds), draw(seeds))


class TestDirectionalDerivative:
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(pipeline_cases())
    def test_central_difference_matches_the_gradient(self, case):
        # with the router's selection pinned and each evaluation's gate noise,
        # when the task enables it, replayed from an identically seeded
        # generator, the loss is a smooth function of the flat parameter
        # vector, so its central difference along a unit direction v matches g . v
        task, params, mode, noise_seed, v_seed = case
        batch = task.train_set
        sels = None
        if mode != "global_only":
            sels = [pl.forward(s, params, task, mode)[1].selection for s in batch]

        def run(p):
            return noisy_loss_and_grads(batch, p, task, mode, rng=make_rng(noise_seed),
                                        fixed_selections=sels)

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


class TestBatchEqualsLoop:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    # half the draws at model_dim = 1, where the pooled sum runs along a
    # contiguous axis, which numpy sums pairwise rather than row by row
    @given(pipeline_cases(model_dims=st.just(1) | st.integers(min_value=2, max_value=6)))
    def test_one_noisy_pass_is_a_loop_of_forwards(self, case):
        # the batch's zero padding must not change an image's bytes, given
        # each lone pass the gate pair and router slice the batch drew for it
        task, params, _, noise_seed, _ = case
        images = task.train_set + task.eval_set
        batch = pl._stack(images, params.qf_local.n_queries)
        for mode in pl.FORWARD_MODES:
            r_batch, r_ref = make_rng(noise_seed), make_rng(noise_seed)
            cache = pl._forward_batch(batch, params, task, mode, rng=r_batch)
            lone = [noisy_forward(s, params, task, mode, rng=rng)[1] for s, rng in
                    zip(images, lone_generators(r_ref, images, params, task, mode))]
            assert cache.pred.tobytes() == np.concatenate([c.pred for c in lone]).tobytes()
            assert cache.n_kept.tolist() == [int(c.n_kept[0]) for c in lone]
            if mode != "global_only":
                for rows, kept, start, c in zip(cache.order, cache.kept, batch.starts, lone):
                    assert np.array_equal(rows[kept] - start, c.order[0][c.kept[0]])
            assert r_batch.bit_generator.state == r_ref.bit_generator.state


def two_image_case():
    """A pipeline case of two images, gate noise on, in the full mode."""
    task = pl.make_toy_task(7, pl.PipelineConfig(sizes=(96, 128), n_train=2, n_eval=1))
    return task, pl.init_params(task, 7), "full", 7, 0


class TestDrawSites:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(pipeline_cases(), st.just(0.0) | st.floats(min_value=1e-3, max_value=1.0),
           st.booleans())
    # both noises live over two images, which the drawn cases may miss
    @example(two_image_case(), 0.1, False)
    def test_each_site_draws_exactly_when_its_noise_is_live(self, case, sigma, pinned):
        # the gate draws a pair per image when its noise is on and the mode
        # runs the global branch; the router one normal per compressed local
        # token when sigma > 0, the mode runs the local branch and no
        # selection is pinned. A pass draws the gate's block, as (B, 2) eps,
        # then the router's, scaled by sigma, and advances by those draws and no more
        task, params, mode, noise_seed, _ = case
        task = replace(task, cfg=replace(task.cfg, train_noise_sigma=sigma))
        batch = task.train_set
        sels = [pl.forward(s, params, task, "full")[1].selection for s in batch] \
            if pinned else None
        gate = mode != "local_only" and task.cfg.gate_noise

        def draws(images, pinned):
            router = mode != "global_only" and not pinned and sigma > 0.0
            return sum(2 * gate + router * len(s.patch_tokens) * task.cfg.local_queries
                       for s in images)

        def advanced(n):
            rng = make_rng(noise_seed)
            rng.standard_normal(n)
            return rng.bit_generator.state

        seen = {}

        def spy(name, fn, pick):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                seen[name] = pick(args, out)
                return out
            return wrapper

        rng, twin = make_rng(noise_seed), make_rng(noise_seed)
        with mock.patch.object(pl, "moe_apply", spy("eps", pl.moe_apply,
                                                    lambda args, out: out[1].eps)), \
                mock.patch.object(pl, "route_batch", spy("noise", pl.route_batch,
                                                         lambda args, out: args[4])):
            noisy_loss_and_grads(batch, params, task, mode, rng=rng, fixed_selections=sels)
        n, gate_block = len(batch), 2 * gate * len(batch)
        if gate:
            want = twin.standard_normal(gate_block).reshape(n, 2)
            assert seen["eps"].shape == (n, 2) and seen["eps"].tobytes() == want.tobytes()
        else:
            assert seen.get("eps") is None
        if draws(batch, pinned) > gate_block:
            want = sigma * twin.standard_normal(draws(batch, pinned) - gate_block)
            assert seen["noise"].tobytes() == want.tobytes()
        else:
            assert seen.get("noise") is None
        assert rng.bit_generator.state == twin.bit_generator.state == advanced(
            draws(batch, pinned))
        rng = make_rng(noise_seed)
        for s in batch:
            noisy_forward(s, params, task, mode, rng=rng)
        assert rng.bit_generator.state == advanced(draws(batch, False))


def trained(schedule, task):
    """train's report and the parameters the run trained."""
    init, made = pl.init_params, []
    pl.init_params = lambda *args: made.append(init(*args)) or made[-1]
    try:
        return pl.train(schedule, task), made[0]
    finally:
        pl.init_params = init


def reference_run(schedule, task):
    """train as a loop that computes every group's gradient on every step and
    applies only the stage's groups; returns the report and the parameters."""
    params = pl.init_params(task, schedule.seed)
    rng = make_rng((schedule.seed << 8) ^ 0xA17E12)   # train's noise stream
    plan = [stage for stage, n in zip(pl.stage_plan(schedule.mode), schedule.steps)
            for _ in range(n)]
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):
        for step, (label, fmode, groups) in enumerate(plan):
            loss, grads = noisy_loss_and_grads(task.train_set, params, task, fmode, rng=rng)
            rows.append((step, label, loss))
            if not np.isfinite(loss):
                break
            for group in groups:
                pl.params_arrays(params)[group] -= schedule.lr * pl.params_arrays(grads)[group]
        evals = [pl.evaluate(params, task, fmode) for fmode in pl.FORWARD_MODES]
    return pl.RunReport(schedule.mode, schedule.seed, rows, *evals, config={},
                        diverged=bool(rows) and not np.isfinite(rows[-1][2])), params


class TestStageFreezes:
    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(pipeline_cases())
    def test_each_subset_of_groups_gets_its_slices_of_all_groups(self, case):
        # a step that computes only some groups' gradients keeps the loss and
        # the draws of the all-groups pass, gives its groups' bytes, and leaves
        # the other slices exactly zero, in every forward mode, on one batch
        # stacked once for all the passes
        task, params, _, noise_seed, _ = case
        batch = pl._stack(task.train_set, params.qf_local.n_queries)
        subsets = [set(c) for k in range(4) for c in combinations(pl.PARAM_GROUPS, k)]
        for mode in pl.FORWARD_MODES:
            r_all = make_rng(noise_seed)
            want_loss, want = noisy_loss_and_grads(task.train_set, params, task, mode,
                                                   rng=r_all)
            for groups in subsets:
                rng = make_rng(noise_seed)
                grads = pl._on_buffer(np.zeros_like(params.buffer), params.layout,
                                      params.gate.noise_enabled)
                loss = pl._loss_into(grads, batch, params, task, mode, rng, None, groups)
                assert loss == want_loss
                assert rng.bit_generator.state == r_all.bit_generator.state
                for name, got in pl.params_arrays(grads).items():
                    ref = pl.params_arrays(want)[name] if name in groups else np.zeros(got.size)
                    assert got.tobytes() == ref.tobytes(), (mode, groups, name)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(pipeline_cases(), st.lists(st.integers(min_value=0, max_value=3), min_size=3,
                                      max_size=3))
    def test_a_short_run_is_the_reference_loop(self, case, steps):
        # skipped gradients and frozen experts kept across steps change no
        # byte of a run, in every training mode and so every forward mode
        task, _, _, seed, _ = case
        for mode in pl.STAGE_PLANS:
            n = len(pl.stage_plan(mode))
            schedule = pl.StageSchedule(mode, tuple(steps[:n]), pl.DEFAULT_LR, seed)
            (report, params), (want, want_params) = (trained(schedule, task),
                                                     reference_run(schedule, task))
            assert report.to_csv() == want.to_csv(), mode
            assert json.dumps(report.summary()) == json.dumps(want.summary()), mode
            assert params.buffer.tobytes() == want_params.buffer.tobytes(), mode


sides = st.integers(min_value=1, max_value=5000)


class TestPlanPartition:
    @properties
    @given(sides, sides, st.integers(min_value=1, max_value=800),
           st.integers(min_value=1, max_value=6))
    def test_scaled_image_fits_the_canvas(self, w, h, base, max_grid):
        plan = plan_partition(w, h, base=base, max_grid=max_grid)
        assert 1 <= plan.m <= max_grid and 1 <= plan.n <= max_grid
        # nor more tiles along a side than cover it; make_toy_task sizes its
        # canvas buffer by this
        assert plan.m <= -(-w // base) and plan.n <= -(-h // base)
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


def four_gather_resize(p, out_h, out_w):
    """resize_bilinear as first written: each of the four corner sets gathered
    from the whole image, then blended along x and along y."""
    in_h, in_w = p.shape
    if (out_h, out_w) == (in_h, in_w):
        return p.copy()

    def axis(n_in, n_out):
        centers = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
        i0 = np.floor(centers).astype(np.intp)
        return i0, np.minimum(i0 + 1, n_in - 1), centers - i0

    y0, y1, wy = axis(in_h, out_h)
    x0, x1, wx = axis(in_w, out_w)
    top = p[y0][:, x0] * (1.0 - wx) + p[y0][:, x1] * wx
    bot = p[y1][:, x0] * (1.0 - wx) + p[y1][:, x1] * wx
    return top * (1.0 - wy)[:, None] + bot * wy[:, None]


@st.composite
def band_cases(draw):
    """A finite image of 1-40 by 1-40 pixels, a band of 1-6 output rows and an
    output height a multiple of it, one row less or one more, by 1-40 columns."""
    in_h, in_w, out_w = (draw(pixel_sides) for _ in range(3))
    img = draw(hnp.arrays(np.float64, (in_h, in_w), elements=st.floats(-1e6, 1e6)))
    rows = draw(st.integers(min_value=1, max_value=6))
    out_h = max(1, rows * draw(st.integers(1, 5)) + draw(st.integers(-1, 1)))
    return img, out_h, out_w, rows


@st.composite
def resize_cases(draw):
    """An image of 1-40 by 1-40 pixels, any float64 values (infinities, NaN
    and signed zeros included), and an output size of 1-40 by 1-40."""
    in_h, in_w, out_h, out_w = (draw(pixel_sides) for _ in range(4))
    img = draw(hnp.arrays(np.float64, (in_h, in_w), elements=st.floats(width=64)))
    return img, out_h, out_w


class TestResizeBilinear:
    @properties
    @given(resize_cases())
    # both pass orders (x blend first when in_h < 2 * out_h), each with y and
    # x scaled the same way and in opposite ways
    @example((np.arange(15.0).reshape(5, 3), 40, 31))    # up, up: x first
    @example((np.arange(120.0).reshape(40, 3), 9, 31))   # down y, up x: gathered rows
    @example((np.arange(120.0).reshape(3, 40), 31, 9))   # up y, down x: x first
    @example((np.arange(1600.0).reshape(40, 40), 7, 5))  # down, down: gathered rows
    @example((np.arange(1600.0).reshape(40, 40), 25, 5))  # down y by < 2: x first
    @example((np.arange(12.0).reshape(3, 4), 3, 4))      # same size: a copy
    def test_bitwise_equal_to_the_four_gather_formula(self, case):
        img, out_h, out_w = case
        before = img.tobytes()
        img.setflags(write=False)   # any write into the caller's array raises
        with np.errstate(all="ignore"):   # inf * 0 makes NaN, in both formulas
            want = four_gather_resize(img, out_h, out_w)
            out = resize_bilinear(img, out_h, out_w)
            assert out.shape == (out_h, out_w) and out.flags.writeable
            assert out.tobytes() == want.tobytes()
            # out= as one block and as a strided window of a larger canvas,
            # whose other pixels it must leave alone
            canvas = np.full((out_h + 3, out_w + 2), -7.0)
            for into in (np.full((out_h, out_w), np.nan), canvas[1:-2, 2:]):
                assert resize_bilinear(img, out_h, out_w, out=into) is into
                assert into.tobytes() == want.tobytes()
            assert np.all(canvas[:1] == -7.0) and np.all(canvas[-2:] == -7.0)
            assert np.all(canvas[:, :2] == -7.0)
        assert img.tobytes() == before

    @properties
    @given(band_cases(), st.sampled_from(["fresh", "block", "strided", "overlapping"]))
    # both pass orders, bands of one row, and one band that starts past input
    # row 0 (288 -> 96 rows reads from row 1), written over the image it reads
    @example((np.arange(120.0).reshape(8, 15), 17, 9, 4), "block")     # x first
    @example((np.arange(600.0).reshape(40, 15), 7, 9, 3), "strided")   # gathered rows
    @example((np.arange(15.0).reshape(3, 5), 5, 4, 1), "overlapping")
    @example((np.arange(864.0).reshape(288, 3), 96, 5, 96), "overlapping")
    def test_bands_are_the_four_gather_formula(self, case, into):
        """Resizes split into bands of `rows` output rows, each band reading
        only the input rows it needs, into a fresh array, a block, a strided
        window of a canvas, or the canvas that holds the image itself."""
        img, out_h, out_w, rows = case
        want = four_gather_resize(img, out_h, out_w)
        in_h, in_w = img.shape
        canvas = np.full((max(out_h, in_h) + 3, max(out_w, in_w) + 2), -7.0)
        if into == "overlapping":
            canvas[1:1 + in_h, 2:2 + in_w] = img
            img = canvas[1:1 + in_h, 2:2 + in_w]
        out = {"fresh": None, "block": np.empty((out_h, out_w)),
               "strided": canvas[1:1 + out_h, 2:2 + out_w],
               "overlapping": canvas[:out_h, :out_w]}[into]
        width = max(in_w, out_w)
        with mock.patch.object(sl, "BAND_PIXELS", rows * width):
            assert sl._band_rows(out_h, width) == min(rows, out_h)
            got = resize_bilinear(img, out_h, out_w, out=out)
        assert out is None or got is out
        assert got.tobytes() == want.tobytes()

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


def reference_task(seed: int, cfg: pl.PipelineConfig) -> pl.ToyTask:
    """make_toy_task built from fresh arrays throughout: each resize by the
    four-gather formula, each canvas an np.zeros with the resized image
    copied in, each tile a .copy(), featurized one tile at a time."""

    rng = make_rng(seed)
    w_feat = rng.standard_normal((cfg.cell * cfg.cell, cfg.feat_dim)) / cfg.cell
    w_teacher = rng.standard_normal((cfg.feat_dim, cfg.out_dim)) / np.sqrt(cfg.feat_dim)
    w_coarse = 0.3 * rng.standard_normal((cfg.feat_dim, cfg.out_dim)) / np.sqrt(cfg.feat_dim)
    text_embed = rng.standard_normal((1, cfg.model_dim))

    def featurize(tile):
        cells = tile.reshape(cfg.grid, cfg.cell, cfg.grid, cfg.cell).transpose(0, 2, 1, 3)
        return cells.reshape(cfg.tokens_per_tile, cfg.cell * cfg.cell) @ w_feat

    def padded(img, h, w, canvas_h, canvas_w):
        canvas = np.zeros((canvas_h, canvas_w))
        top, left = (canvas_h - h) // 2, (canvas_w - w) // 2
        canvas[top:top + h, left:left + w] = four_gather_resize(img, h, w)
        return canvas

    def sample():
        w, h = int(rng.choice(cfg.sizes)), int(rng.choice(cfg.sizes))
        smooth = 0.7 * four_gather_resize(rng.random((5, 5)), h, w)
        img = smooth + 0.3 * rng.random((h, w))
        base = cfg.base
        if w >= h:
            view = padded(img, max(1, int(round(h * base / w))), base, base, base)
        else:
            view = padded(img, base, max(1, int(round(w * base / h))), base, base)
        plan = plan_partition(w, h, base=base, max_grid=cfg.max_grid)
        canvas_w, canvas_h = plan.grid_px()
        canvas = padded(img, min(canvas_h, max(1, int(round(h * plan.scale)))),
                        min(canvas_w, max(1, int(round(w * plan.scale)))), canvas_h, canvas_w)
        tiles = [canvas[r * base:(r + 1) * base, c * base:(c + 1) * base].copy()
                 for r in range(plan.n) for c in range(plan.m)]
        g_tokens = featurize(view)
        p_tokens = np.stack([featurize(t) for t in tiles])
        target = (p_tokens.reshape(-1, cfg.feat_dim).mean(axis=0) @ w_teacher
                  + g_tokens.mean(axis=0) @ w_coarse)
        return pl.Sample(w, h, g_tokens, p_tokens, target)

    train_set = [sample() for _ in range(cfg.n_train)]
    return pl.ToyTask(cfg, seed, text_embed, train_set, [sample() for _ in range(cfg.n_eval)])


def task_bytes(task: pl.ToyTask) -> list:
    arrays = [task.text_embed]
    for s in task.train_set + task.eval_set:
        arrays += [np.array([s.width, s.height]), s.global_tokens, s.patch_tokens, s.target]
    return [(a.shape, a.tobytes()) for a in arrays]


@st.composite
def task_cases(draw):
    """A task seed and a small config whose image sides are no multiple of
    the tile side, so every canvas and global view is padded."""
    grid = draw(st.integers(min_value=1, max_value=3))
    base = grid * draw(st.integers(min_value=2, max_value=8))
    sides = st.integers(min_value=1, max_value=3 * base).filter(lambda n: n % base)
    cfg = pl.PipelineConfig(
        feat_dim=draw(st.integers(min_value=1, max_value=6)),
        model_dim=draw(st.integers(min_value=1, max_value=6)),
        out_dim=draw(st.integers(min_value=1, max_value=4)), base=base, grid=grid,
        sizes=tuple(draw(st.lists(sides, min_size=1, max_size=3, unique=True))),
        n_train=draw(st.integers(min_value=1, max_value=3)),
        n_eval=draw(st.integers(min_value=0, max_value=2)))
    return draw(st.integers(min_value=0, max_value=2**32 - 1)), cfg


class TestTaskBytes:
    """A task build reuses its buffers, cuts its tiles as views, and resizes,
    draws its texture and featurizes in bands; its tokens stay those of a
    build from fresh arrays, byte for byte."""

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(task_cases(), st.integers(min_value=1, max_value=200))
    def test_a_build_is_the_fresh_array_reference(self, case, band):
        # every resize and texture draw split into bands of `band` pixels, a
        # few rows or one row each; a canvas spans up to three tile rows
        seed, cfg = case
        with mock.patch.object(sl, "BAND_PIXELS", band):
            built = pl.make_toy_task(seed, cfg)
        assert task_bytes(built) == task_bytes(reference_task(seed, cfg))

    def test_each_workload_builds_the_reference_inputs(self):
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads

        def rebuilt(task):
            return reference_task(task.seed, task.cfg)

        train = workloads.Train(5)
        grad = workloads.Gradcheck(5)
        hires = workloads.InferHires(5)
        refs = [copy.copy(wl) for wl in (train, grad, hires)]
        refs[0].tasks = [rebuilt(t) for t in train.tasks]
        refs[1].items = [(rebuilt(t), p) for t, p in grad.items]
        refs[2].task = rebuilt(hires.task)
        for wl, ref in zip((train, grad, hires), refs):
            assert ref.inputs_digest() == wl.inputs_digest(), wl.name


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
        with mock.patch.object(bl, "STOP_WINDOW", window):
            tr = bl.run_experiment(inst, init=init, method=method, steps=steps, eta=eta,
                                   stop_tol=stop_tol)
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
