"""Toy-task contracts: degenerate-config forwards, FD-checked end-to-end
gradients with the selection pinned, the flat parameter store, exact stage
freezes, determinism, and the frozen golden forward trace and training runs."""

import collections
import copy
import dataclasses
import gc
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from slicemix import pipeline as pl
from slicemix import slicing as sl
from slicemix.numerics import fd_grad_check, make_rng
from slicemix.routing import RouterSelection

GOLDEN = Path(__file__).parent / "data" / "golden_forward.json"
GOLDEN_TRAIN = Path(__file__).parent / "data" / "golden_train.json"


@pytest.fixture(scope="module")
def task():
    return pl.make_toy_task(1)


@pytest.fixture(scope="module")
def params(task):
    return pl.init_params(task, 1)


def noisy_loss_and_grads(samples, params, task, mode="full", rng=None, fixed_selections=None):
    """batch_loss_and_grads with gate and router noise drawn from `rng`, as a
    training step draws it: train's private pass on a fresh stack and store."""
    batch = pl._stack(samples, params.qf_local.n_queries)
    grads = pl._on_buffer(np.zeros_like(params.buffer), params.layout, params.gate.noise_enabled)
    return pl._loss_into(grads, batch, params, task, mode, rng, fixed_selections,
                         pl.PARAM_GROUPS), grads


def noisy_forward(sample, params, task, mode="full", rng=None):
    """forward with gate and router noise drawn from `rng`: a batch of one."""
    cache = pl._forward_batch(pl._stack([sample], params.qf_local.n_queries), params, task,
                              mode, rng)
    return cache.pred[0], cache


class Replay:
    """A stand-in generator whose normals are `values`, handed out in order."""

    def __init__(self, values):
        self.values = values

    def standard_normal(self, n):
        out, self.values = self.values[:n], self.values[n:]
        assert len(out) == n
        return out


def lone_generators(rng, samples, params, task, mode):
    """One noisy pass's two blocks of draws from `rng` (the gate's pair per
    image when its noise is live in `mode`, then one router normal per
    compressed local token), cut into each image's own gate pair and router
    slice: a Replay per image, so a lone pass draws what the batch gave it."""
    n, gate = len(samples), mode != "local_only" and params.gate.noise_enabled
    routed = mode != "global_only" and task.cfg.train_noise_sigma > 0.0
    starts = pl._stack(samples, params.qf_local.n_queries).starts
    pairs = rng.standard_normal(2 * n * gate).reshape(n, 2 * gate)
    router = rng.standard_normal(starts[-1] * routed)
    return [Replay(np.concatenate([pairs[i], router[starts[i]:starts[i + 1]]]))
            for i in range(n)]


def profiler_events(fn) -> collections.Counter:
    """Python-level (`call`) and C-level (`c_call`) profiler events of fn().
    Operator ufuncs (`@`, `*`, `+`) do not appear as `c_call` events on
    Python 3.11, so the arithmetic itself is not counted: bounds on these
    counts pin per-call overhead. No bound is loosened: a change that adds
    calls pays for them inside the bounds, and a bound comes down to the
    count when the count falls. The cycle collector is paused while fn runs:
    a collection it happened to trigger would run the Python callbacks in
    `gc.callbacks` (hypothesis installs one), events that are not fn's."""
    counts = collections.Counter()

    def profile(frame, event, arg):
        counts[event] += 1
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return counts


class TestToyTask:
    def test_deterministic_construction(self):
        t1 = pl.make_toy_task(3)
        t2 = pl.make_toy_task(3)
        assert np.array_equal(t1.text_embed, t2.text_embed)
        for a, b in zip(t1.train_set, t2.train_set):
            assert (a.width, a.height) == (b.width, b.height)
            assert np.array_equal(a.target, b.target)
            assert np.array_equal(a.global_tokens, b.global_tokens)

    def test_token_grid_shapes(self, task):
        cfg = task.cfg
        for s in task.train_set:
            assert s.global_tokens.shape == (cfg.tokens_per_tile, cfg.feat_dim)
            for pt in s.patch_tokens:
                assert pt.shape == (cfg.tokens_per_tile, cfg.feat_dim)
            assert s.target.shape == (cfg.out_dim,)

    def test_grid_divisibility_enforced(self):
        with pytest.raises(ValueError):
            pl.PipelineConfig(base=100, grid=3)

    def test_a_build_holds_one_band_beside_its_image_and_canvas(self):
        # a 2000-px image on a 2016-px canvas of 336-px tiles: beside the two,
        # a build holds one tile row's cells (featurized a tile row at a time)
        # and 3 MiB for its bands, their cached plans, the featurizer's
        # weights and the tokens; four more full-size temporaries read 5.1
        # image-sizes here. A small build first does numpy's lazy imports
        cfg = pl.PipelineConfig(sizes=(2000,), base=336, n_train=1, n_eval=0)
        side = 6 * cfg.base
        pl.make_toy_task(1, pl.PipelineConfig(sizes=(100,), n_train=1, n_eval=0))
        tracemalloc.start()
        try:
            pl.make_toy_task(1, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        image, canvas, tile_row = 2000 * 2000 * 8, side * side * 8, cfg.base * side * 8
        assert peak < image + canvas + tile_row + 3 * 2**20, peak / image

    def test_a_default_build_holds_a_few_bands_beside_its_image_and_canvas(self):
        # the default task's largest image and canvas are 288 x 288 pixels. A
        # resize holds at most four bands at once (its x blend's two operands,
        # each of up to twice a band's rows), and 0.5 MiB covers the task's
        # tokens, the featurizer's weights and the resample grids and plans,
        # cached afresh here; resizes made in one pass would read 3.4 MiB
        pl.make_toy_task(1, pl.PipelineConfig(sizes=(100,), n_train=1, n_eval=0))
        for cache in sl._axis_samples, sl._bands, sl.plan_partition:
            cache.cache_clear()
        tracemalloc.start()
        try:
            pl.make_toy_task(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        image = canvas = 288 * 288 * 8
        assert peak < image + canvas + 4 * sl.BAND_PIXELS * 8 + 2**19, peak / 2**20


class TestForward:
    def test_zero_readout_zero_prediction(self, task, params):
        p2 = copy.deepcopy(params)
        p2.readout[:] = 0.0
        pred, _ = pl.forward(task.train_set[0], p2, task, "full")
        assert np.all(pred == 0.0)

    def test_full_gamma_pools_the_mixture_and_every_local_token(self, task):
        # gamma=1 keeps all local tokens and local queries = full token count,
        # so the pooled rows are the noiseless mixture's rows plus every
        # compressed local token, gathered by the cut
        cfg = pl.PipelineConfig(gamma=1.0, local_queries=9)
        t = pl.make_toy_task(2, cfg)
        p = pl.init_params(t, 2)
        sample = t.train_set[0]
        pred, cache = pl.forward(sample, p, t, "full")
        from slicemix.adapters import moe_apply, qformer_apply
        g_rows, _ = moe_apply(sample.global_tokens, p.mlp, p.qf_global, p.gate)
        local = np.vstack([qformer_apply(tk, p.qf_local).out for tk in sample.patch_tokens])
        kept = local[cache.selection.kept_indices]
        assert len(cache.selection.kept_indices) == local.shape[0]
        expect = np.vstack([g_rows, kept]).mean(axis=0) @ p.readout
        np.testing.assert_allclose(pred, expect, rtol=1e-12)

    def test_modes_change_pooled_rows(self, task, params):
        sample = task.train_set[0]
        _, full = pl.forward(sample, params, task, "full")
        _, glob = pl.forward(sample, params, task, "global_only")
        _, loc = pl.forward(sample, params, task, "local_only")
        assert glob.n_rows == task.cfg.tokens_per_tile
        assert full.n_rows == glob.n_rows + loc.n_rows
        with pytest.raises(ValueError):
            pl.forward(sample, params, task, "sideways")

    def test_golden_trace(self):
        fix = json.loads(GOLDEN.read_text())
        t = pl.make_toy_task(fix["task_seed"])
        p = pl.init_params(t, fix["param_seed"])
        for rec in fix["records"]:
            sample = t.train_set[rec["sample"]]
            assert (sample.width, sample.height) == (rec["width"], rec["height"])
            pred, cache = pl.forward(sample, p, t, "full")
            np.testing.assert_allclose(pred, np.array(rec["pred"]), rtol=1e-12)
            assert cache.selection.kept_indices.tolist() == rec["kept"]
            assert cache.selection.cumulative_at_cut == pytest.approx(
                rec["cumulative"], abs=1e-12)


class TestGradients:
    @pytest.mark.parametrize("mode", ["full", "global_only", "local_only"])
    def test_fd_check_per_mode(self, task, params, mode):
        batch = task.train_set[:2]
        sels = None
        if mode != "global_only":
            sels = [pl.forward(s, params, task, mode)[1].selection for s in batch]
        loss0, grads = pl.batch_loss_and_grads(batch, params, task, mode,
                                               fixed_selections=sels)
        assert np.isfinite(loss0)

        def f(vec):
            p2 = copy.deepcopy(params)
            pl.set_params_vector(p2, vec)
            val, _ = pl.batch_loss_and_grads(batch, p2, task, mode,
                                             fixed_selections=sels)
            return val

        err = fd_grad_check(f, pl.params_vector(grads), pl.params_vector(params))
        assert err < 1e-4

    @pytest.mark.parametrize("mode", ["full", "global_only"])
    def test_fd_check_with_live_gate_noise(self, task, params, mode):
        # a freshly seeded generator per evaluation replays the same gate
        # draws, and the pinned selections keep the router from drawing, so
        # the noise is a constant and the w_noise path is checked end to end
        assert task.cfg.gate_noise
        batch = task.train_set[:2]
        sels = None
        if mode != "global_only":
            sels = [pl.forward(s, params, task, mode)[1].selection for s in batch]

        def run(p):
            return noisy_loss_and_grads(batch, p, task, mode, rng=make_rng(11),
                                        fixed_selections=sels)

        _, grads = run(params)
        assert np.any(grads.gate.w_noise != 0.0)

        def f(vec):
            p2 = copy.deepcopy(params)
            pl.set_params_vector(p2, vec)
            return run(p2)[0]

        err = fd_grad_check(f, pl.params_vector(grads), pl.params_vector(params))
        assert err < 1e-4

    def test_backward_draws_no_random_numbers(self, task, params):
        # the generator must advance exactly as over the forward passes alone
        batch = task.train_set[:3]
        r1, r2 = make_rng(12), make_rng(12)
        noisy_loss_and_grads(batch, params, task, "full", rng=r1)
        for s in batch:
            noisy_forward(s, params, task, "full", rng=r2)
        assert r1.bit_generator.state == r2.bit_generator.state

    @pytest.mark.parametrize("mode", ["full", "local_only"])
    def test_fd_check_one_patch_images(self, mode):
        # 96 px images plan a single tile, so the patch stack has P = 1
        t = pl.make_toy_task(8, pl.PipelineConfig(sizes=(96,), n_train=2, n_eval=1))
        p = pl.init_params(t, 8)
        assert all(s.patch_tokens.shape[0] == 1 for s in t.train_set)
        sels = [pl.forward(s, p, t, mode)[1].selection for s in t.train_set]
        _, grads = pl.batch_loss_and_grads(t.train_set, p, t, mode,
                                           fixed_selections=sels)
        assert np.any(grads.qf_local.queries != 0.0)

        def f(vec):
            p2 = copy.deepcopy(p)
            pl.set_params_vector(p2, vec)
            return pl.batch_loss_and_grads(t.train_set, p2, t, mode,
                                           fixed_selections=sels)[0]

        assert fd_grad_check(f, pl.params_vector(grads), pl.params_vector(p)) < 1e-4

    def test_one_query_head_call_per_image(self, task, params, monkeypatch):
        # a batch runs each branch once, forward and backward, on the stack
        # of all its patches and of all its global views, through the names
        # the pipeline binds; a single forward is a batch of one
        # the shape of the stack each call runs on: its tokens, or the output
        # of the activations it differentiates
        stack_shape = {"qformer_apply": lambda args: np.shape(args[0]),
                       "qformer_vjp": lambda args: args[0].out.shape,
                       "moe_apply": lambda args: np.shape(args[0]),
                       "adapter_grads": lambda args: args[4].mlp.tokens.shape}
        calls = {name: [] for name in stack_shape}

        def counting(name):
            fn = getattr(pl, name)

            def wrapper(*args, **kwargs):
                calls[name].append(stack_shape[name](args))
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(pl, name, counting(name))
        batch = task.train_set[:3]
        n_q = params.qf_local.n_queries
        patches = (sum(len(s.patch_tokens) for s in batch),) + batch[0].patch_tokens.shape[1:]
        views = (len(batch),) + batch[0].global_tokens.shape
        noisy_loss_and_grads(batch, params, task, "full", rng=make_rng(13))
        assert calls == {"qformer_apply": [patches],
                         "qformer_vjp": [(patches[0], n_q, task.cfg.model_dim)],
                         "moe_apply": [views], "adapter_grads": [views]}
        for name in calls:
            calls[name].clear()
        pl.forward(task.eval_set[0], params, task, "local_only")
        assert calls["qformer_apply"] == [task.eval_set[0].patch_tokens.shape]
        assert not calls["moe_apply"]

    def test_one_router_call_per_batch(self, task, params, monkeypatch):
        # the router runs once over all of a batch's local tokens, through the
        # name the pipeline binds, and never image by image
        calls = []
        route = pl.route_batch

        def counting(z_v, starts, *args, **kwargs):
            calls.append((len(starts) - 1, len(z_v)))
            return route(z_v, starts, *args, **kwargs)

        def alone(*args, **kwargs):
            raise AssertionError("route_tokens called by the pipeline")

        monkeypatch.setattr(pl, "route_batch", counting)
        monkeypatch.setattr(pl, "route_tokens", alone)
        batch = task.train_set[:3]
        n_q = params.qf_local.n_queries
        noisy_loss_and_grads(batch, params, task, "full", rng=make_rng(14))
        assert calls == [(3, n_q * sum(len(s.patch_tokens) for s in batch))]
        calls.clear()
        pl.forward(task.eval_set[0], params, task, "local_only")
        assert calls == [(1, n_q * len(task.eval_set[0].patch_tokens))]

    def test_fixed_selection_out_of_its_image_rejected(self, task, params):
        # an index past an image's own local tokens, even one that names a
        # row of the next image in the stack, is rejected
        batch = task.train_set[:2]
        sels = [pl.forward(s, params, task)[1].selection for s in batch]
        n_tokens = len(batch[0].patch_tokens) * params.qf_local.n_queries
        for bad in (n_tokens, -1):
            sels[0] = RouterSelection(0.75, np.array([0, bad]), sels[0].scores, 1.0)
            with pytest.raises(IndexError, match="out of range"):
                pl.batch_loss_and_grads(batch, params, task, "full", fixed_selections=sels)

    @pytest.mark.parametrize("mode, kept", [("full", [0, 0]), ("local_only", [])],
                             ids=["repeated-index", "empty-in-local-only"])
    def test_fixed_selection_keeping_a_token_twice_or_none_rejected(self, task, params,
                                                                     mode, kept):
        # a repeated index was pooled twice forward but given its gradient
        # once backward, and a record keeping nothing made the loss NaN
        batch = task.train_set[:2]
        sels = [pl.forward(s, params, task)[1].selection for s in batch]
        sels[0] = RouterSelection(0.75, np.array(kept, dtype=np.int64), sels[0].scores, 1.0)
        with pytest.raises(ValueError, match="fixed_selections"):
            pl.batch_loss_and_grads(batch, params, task, mode, fixed_selections=sels)

    def test_pinned_selection_count_must_match_the_images(self):
        # images of 2, 4 and 1 patches: too few or too many records would
        # otherwise fail inside numpy, or read as an index out of range
        task = pl.make_toy_task(5, pl.PipelineConfig(n_train=3, n_eval=1, sizes=(96, 128)))
        params = pl.init_params(task, 1)
        assert [len(s.patch_tokens) for s in task.train_set] == [2, 4, 1]
        sels = [pl.forward(s, params, task)[1].selection for s in task.train_set]
        pl.batch_loss_and_grads(task.train_set, params, task, fixed_selections=sels)
        for wrong in (sels[:1], sels[:2], sels + sels[:1]):
            with pytest.raises(ValueError, match=f"{len(wrong)} pinned selections for 3 images"):
                pl.batch_loss_and_grads(task.train_set, params, task, fixed_selections=wrong)

    def test_frozen_groups_get_zero_grads_in_global_mode(self, task, params):
        _, grads = pl.batch_loss_and_grads(task.train_set[:2], params, task,
                                           "global_only")
        assert np.all(pl.params_arrays(grads)["local"] == 0.0)


class TestFlatStore:
    """The parameters and each gradient store are views into one buffer laid
    out as params_vector, so whole-model operations are one array operation."""

    @staticmethod
    def arrays(p):
        """Every trainable array of p, found field by field, in field order."""
        parts = (p.mlp, p.qf_global, p.gate, p.qf_local)
        return [a for part in parts for a in vars(part).values()
                if isinstance(a, np.ndarray)] + [p.readout]

    def test_every_field_is_a_view_of_its_buffer(self, task, params):
        p = copy.deepcopy(params)
        _, grads = noisy_loss_and_grads(task.train_set[:3], p, task, "full",
                                        rng=make_rng(31))
        for store in (params, p, grads):
            arrays = self.arrays(store)
            assert all(np.shares_memory(a, store.buffer) for a in arrays)
            # the fields tile the buffer in params_vector's order
            assert np.array_equal(np.concatenate([a.ravel() for a in arrays]),
                                  pl.params_vector(store))
            assert sum(a.size for a in arrays) == store.buffer.size
        groups = pl.params_arrays(grads)
        assert np.array_equal(np.concatenate([groups[g] for g in pl.PARAM_GROUPS]),
                              grads.buffer)
        assert np.shares_memory(groups["readout"], grads.readout)

    def test_deep_copy_shares_nothing(self, params):
        p = copy.deepcopy(params)
        for a in self.arrays(p) + [p.buffer]:
            assert not any(np.shares_memory(a, b) for b in self.arrays(params) + [params.buffer])
        assert p.gate.noise_enabled == params.gate.noise_enabled
        before = pl.params_vector(params)
        p.buffer[:] = 0.0
        assert np.array_equal(pl.params_vector(params), before)

    def test_wrong_length_vector_changes_nothing(self, params):
        p = copy.deepcopy(params)
        before = pl.params_vector(p)
        for n in (before.size - 5, before.size + 5):
            with pytest.raises(ValueError, match="length"):
                pl.set_params_vector(p, np.full(n, 7.0))
            assert np.array_equal(pl.params_vector(p), before)
        pl.set_params_vector(p, before + 1.0)
        assert np.array_equal(p.readout.ravel(), before[-p.readout.size:] + 1.0)


class TestBatchedPass:
    """A batch runs as one stacked pass; it must give every image exactly what
    a loop of single-image forwards gives it, each handed its own draws."""

    @pytest.mark.parametrize("n", [3, 20])
    @pytest.mark.parametrize("mode", pl.FORWARD_MODES)
    def test_matches_a_loop_of_forwards(self, task, params, n, mode):
        batch = task.train_set[:n]
        assert len(batch) == n
        r_batch, r_ref, r_loss = make_rng(21), make_rng(21), make_rng(21)
        stack = pl._stack(batch, params.qf_local.n_queries)
        cache = pl._forward_batch(stack, params, task, mode, rng=r_batch)
        preds, sels, lone = [], [], lone_generators(r_ref, batch, params, task, mode)
        for s, rng in zip(batch, lone):
            pred, c = noisy_forward(s, params, task, mode, rng=rng)
            preds.append(pred)
            sels.append(c.selection)
        assert all(rng.values.size == 0 for rng in lone)
        assert np.array_equal(cache.pred, np.array(preds))
        if mode == "global_only":
            assert cache.selection is None and cache.order is None and sels == [None] * n
        else:
            # the batch's cut, row by row, is each lone image's kept local
            # tokens shifted by the image's first row in the stack
            starts = stack.starts
            assert cache.n_kept.tolist() == [len(s.kept_indices) for s in sels]
            for rows, kept, start, want in zip(cache.order, cache.kept, starts, sels):
                assert np.array_equal(rows[kept], start + want.kept_indices)
            # the cache keeps the first image's record, bit for bit a lone pass's
            first = cache.selection
            assert np.array_equal(first.kept_indices, sels[0].kept_indices)
            assert np.array_equal(first.scores, sels[0].scores)
            assert first.cumulative_at_cut == sels[0].cumulative_at_cut
        # the draws themselves: the gate's block, then the router's
        assert r_batch.bit_generator.state == r_ref.bit_generator.state
        loss, _ = noisy_loss_and_grads(batch, params, task, mode, rng=r_loss)
        expect = 0.0
        for pred, s in zip(preds, batch):
            expect += (1.0 / n) * (0.5 * float((pred - s.target) @ (pred - s.target)))
        assert loss == expect
        assert r_loss.bit_generator.state == r_ref.bit_generator.state

    @pytest.mark.parametrize("mode", pl.FORWARD_MODES)
    def test_gradients_are_the_mean_of_single_image_gradients(self, task, params, mode):
        batch = task.train_set[:5]
        _, grads = noisy_loss_and_grads(batch, params, task, mode, rng=make_rng(22))
        total = 0.0
        for s, rng in zip(batch, lone_generators(make_rng(22), batch, params, task, mode)):
            total = total + pl.params_vector(
                noisy_loss_and_grads([s], params, task, mode, rng=rng)[1])
        got, want = pl.params_vector(grads), total / len(batch)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("mode", pl.FORWARD_MODES)
    def test_evaluate_is_the_per_image_mean(self, task, params, mode):
        total = 0.0
        for s in task.eval_set:
            resid = pl.forward(s, params, task, mode)[0] - s.target
            total += 0.5 * float(resid @ resid)
        assert pl.evaluate(params, task, mode) == total / len(task.eval_set)


class TestTrain:
    def test_zero_steps_reports_initial_state(self, task):
        sched = pl.StageSchedule(mode="e2e", steps=(0,), lr=0.5, seed=1)
        report = pl.train(sched, task)
        assert report.steps == []
        assert np.isfinite(report.final_eval)

    def test_stage_freezes_are_bitwise_exact(self, monkeypatch):
        # train against a reference loop that computes every group's gradient
        # on every step and applies only the stage's groups, with gate and
        # router noise live: the per-step losses, the report and the trained
        # parameters agree bit for bit, so neither the skipped gradients nor
        # frozen experts kept across a stage boundary change anything
        task = pl.make_toy_task(4)
        assert task.cfg.gate_noise and task.cfg.train_noise_sigma > 0.0
        init, trained = pl.init_params, []
        monkeypatch.setattr(pl, "init_params",
                            lambda *args: trained.append(init(*args)) or trained[-1])
        for mode, steps in (("alternating", (4, 4, 4)), ("e2e", (6,))):
            sched = pl.StageSchedule(mode, steps, pl.DEFAULT_LR, seed=4)
            trained.clear()
            report = pl.train(sched, task)
            rng = make_rng((4 << 8) ^ 0xA17E12)
            p, rows = init(task, 4), []
            for (label, fmode, groups), n_steps in zip(pl.stage_plan(mode), steps):
                before = {g: a.copy() for g, a in pl.params_arrays(p).items()}
                for _ in range(n_steps):
                    loss, g = noisy_loss_and_grads(task.train_set, p, task, fmode, rng=rng)
                    rows.append((len(rows), label, loss))
                    for group in groups:
                        pl.params_arrays(p)[group] -= sched.lr * pl.params_arrays(g)[group]
                # the stage moved exactly its own groups
                for group, now in pl.params_arrays(p).items():
                    assert np.array_equal(now, before[group]) == (group not in groups)
            assert report == dataclasses.replace(
                report, steps=rows, final_eval=pl.evaluate(p, task, "full"),
                only_global_eval=pl.evaluate(p, task, "global_only"),
                only_local_eval=pl.evaluate(p, task, "local_only"), diverged=False)
            assert len(trained) == 1 and trained[0].buffer.tobytes() == p.buffer.tobytes()

    @pytest.mark.parametrize("mode, steps, adapter_vjps, expert_passes", [
        ("alternating", (0, 5, 0), 0, 1),
        ("alternating", (3, 5, 2), 5, 6),
        ("e2e", (5,), 5, 5),
    ])
    def test_frozen_work_is_skipped(self, mode, steps, adapter_vjps, expert_passes,
                                    monkeypatch):
        # a stage that freezes the adapter never runs its VJP, and runs the
        # frozen global experts on the training views once, at the stage's
        # start, instead of once per step; the training set and the eval set
        # are stacked once each
        from slicemix import adapters as ad
        task = pl.make_toy_task(4, pl.PipelineConfig(n_train=3, n_eval=2))
        calls = {"adapter_grads": [], "mlp_apply": [], "_stack": []}
        shape_of = {"adapter_grads": lambda args: args[4].mlp.tokens.shape,
                    "mlp_apply": lambda args: np.shape(args[0]),
                    "_stack": lambda args: len(args[0])}

        def counting(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name].append(shape_of[name](args))
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        # global_experts runs both experts' forward through the adapters
        # module's mlp_apply and qformer_apply; qformer_apply also serves the
        # local compression, so mlp_apply counts the experts' passes
        for module, name in ((pl, "adapter_grads"), (ad, "mlp_apply"), (pl, "_stack")):
            counting(module, name)
        report = pl.train(pl.StageSchedule(mode, steps, 0.25, seed=4), task)
        assert len(report.steps) == sum(steps) and not report.diverged
        train_views = (3,) + task.train_set[0].global_tokens.shape
        eval_views = (2,) + train_views[1:]
        assert calls["adapter_grads"] == [train_views] * adapter_vjps
        # the evaluations after training run full and global_only once each
        assert calls["mlp_apply"] == [train_views] * expert_passes + [eval_views] * 2
        assert calls["_stack"] == [3, 2]

    def test_what_the_run_fixes_is_built_once(self, monkeypatch):
        # one gradient store per run (init_params lays out the parameters
        # with the only other _on_buffer call), one stack of the training set
        # and one of the eval set, and no np.split: each count is the same
        # for runs of 10 and of 40 steps
        task = pl.make_toy_task(4, pl.PipelineConfig(n_train=3, n_eval=2))
        calls = collections.Counter()
        for module, name in ((pl, "_on_buffer"), (pl, "_stack"), (np, "split")):
            def wrapper(*args, fn=getattr(module, name), name=name, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)
        per_run = {}
        for n_steps in (10, 40):
            calls.clear()
            for mode in ("alternating", "e2e"):
                pl.train(pl.default_schedule(mode, seed=4, total_steps=n_steps), task)
            per_run[n_steps] = dict(calls)
        assert per_run[10] == per_run[40] == {"_on_buffer": 4, "_stack": 4}

    def test_calls_per_step_are_bounded(self):
        """Profiler events per training step, from the difference between a
        30-step and a 60-step run, so the run's fixed cost cancels. The
        bounds sit at the counts measured once a step stopped re-checking
        the arrays the pipeline built, the query head's backward stopped
        forming key and value gradients and the noise gate's sigmoid was
        written into its backward (see profiler_events)."""
        task = pl.make_toy_task(3)
        pl.train(pl.default_schedule("e2e", seed=3, total_steps=3), task)  # lazy imports

        def events(mode, n_steps):
            schedule = pl.default_schedule(mode, seed=3, total_steps=n_steps)
            return profiler_events(lambda: pl.train(schedule, task))

        for mode, bounds in (("e2e", {"call": 46.0, "c_call": 76.0}),
                             ("alternating", {"call": 103 / 3, "c_call": 54.0})):
            short, long = events(mode, 30), events(mode, 60)
            per_step = {e: (long[e] - short[e]) / 30 for e in bounds}
            assert all(per_step[e] <= bounds[e] for e in bounds), (mode, per_step)

    def test_calls_per_operation_are_bounded(self):
        # criterion 08's unit of work, a 2-image all-groups loss and gradient
        # with the selections pinned, and one 30-patch forward, each after a
        # first call that does the lazy imports (see profiler_events)
        task = pl.make_toy_task(900, pl.PipelineConfig(n_train=2, n_eval=1, sizes=(96, 128)))
        params = pl.init_params(task, 0)
        sels = [pl.forward(s, params, task)[1].selection for s in task.train_set]
        hires = pl.make_toy_task(1, pl.PipelineConfig(sizes=(416, 512), n_train=4, n_eval=0))
        image = next(s for s in hires.train_set if len(s.patch_tokens) == 30)
        hires_params = pl.init_params(hires, 1)
        for op, bounds in (
                (lambda: pl.batch_loss_and_grads(task.train_set, params, task,
                                                 fixed_selections=sels),
                 {"call": 62, "c_call": 88}),
                (lambda: pl.forward(image, hires_params, hires), {"call": 35, "c_call": 40})):
            op()
            counts = profiler_events(op)
            assert all(counts[e] <= bounds[e] for e in bounds), (bounds, counts)

    def test_a_reused_batch_gives_a_fresh_batchs_bytes(self, task, params):
        # the route layout a batch keeps after its first routed pass gives
        # every later pass, steps and evaluations alike, the bytes a freshly
        # stacked batch gives
        n_q = params.qf_local.n_queries
        reused = pl._stack(task.train_set, n_q)
        grads = pl._on_buffer(np.empty_like(params.buffer), params.layout,
                              params.gate.noise_enabled)
        r_reused, r_fresh = make_rng(31), make_rng(31)
        for mode in ("full", "global_only", "local_only", "full", "global_only"):
            grads.buffer.fill(0.0)
            loss = pl._loss_into(grads, reused, params, task, mode, r_reused, None,
                                 pl.PARAM_GROUPS)
            want_loss, want = noisy_loss_and_grads(task.train_set, params, task, mode,
                                                   rng=r_fresh)
            assert loss == want_loss and grads.buffer.tobytes() == want.buffer.tobytes(), mode
        assert reused.route is not None
        evals = pl._stack(task.eval_set, n_q)
        for mode in pl.FORWARD_MODES * 2:
            assert pl._eval_loss(evals, params, task, mode) == pl.evaluate(params, task, mode)

    def test_a_training_step_reads_no_record(self, monkeypatch):
        # the first image's RouterSelection is read off the cut only when a
        # caller asks for it, once; training never does
        calls = []
        image_selection = pl.image_selection
        monkeypatch.setattr(pl, "image_selection",
                            lambda *args: calls.append(args) or image_selection(*args))
        task = pl.make_toy_task(4, pl.PipelineConfig(n_train=3, n_eval=2))
        for mode in ("alternating", "e2e"):
            pl.train(pl.default_schedule(mode, seed=4, total_steps=6), task)
        assert calls == []
        cache = pl.forward(task.train_set[0], pl.init_params(task, 4), task)[1]
        assert calls == [] and cache.selection is cache.selection and len(calls) == 1

    @pytest.mark.parametrize("mode", pl.FORWARD_MODES)
    def test_group_gradients_are_slices_of_the_full_gradient(self, task, params, mode):
        # a training step's subset of the groups gives batch_loss_and_grads'
        # loss, draws and bytes in its own slices, and exact zeros in the others
        batch = task.train_set[:4]
        r_full = make_rng(41)
        full_loss, full = noisy_loss_and_grads(batch, params, task, mode, rng=r_full)
        stacked = pl._stack(batch, params.qf_local.n_queries)
        for groups in (pl.PARAM_GROUPS, {"adapter"}, {"local"}, {"readout"},
                       {"adapter", "readout"}, ()):
            rng = make_rng(41)
            grads = pl._on_buffer(np.zeros_like(params.buffer), params.layout,
                                  params.gate.noise_enabled)
            loss = pl._loss_into(grads, stacked, params, task, mode, rng, None, groups)
            assert loss == full_loss
            assert rng.bit_generator.state == r_full.bit_generator.state
            for name, got in pl.params_arrays(grads).items():
                want = pl.params_arrays(full)[name] if name in groups else np.zeros(got.size)
                assert got.tobytes() == want.tobytes(), (groups, name)

    def test_stage_one_loss_decreases_first_ten_steps(self):
        # noise disabled so the descent property is well defined: live gate
        # and router draws perturb individual steps by design
        cfg = pl.PipelineConfig(gate_noise=False, train_noise_sigma=0.0)
        lr = pl.default_schedule("alternating").lr
        for seed in (1, 2, 3, 4, 5):
            task = pl.make_toy_task(seed, cfg)
            sched = pl.StageSchedule(mode="alternating", steps=(10, 0, 0),
                                     lr=lr, seed=seed)
            report = pl.train(sched, task)
            losses = [row[2] for row in report.steps]
            assert len(losses) == 10
            assert all(b < a for a, b in zip(losses, losses[1:])), seed

    def test_reports_are_byte_identical_across_runs(self):
        task = pl.make_toy_task(5)
        sched = pl.default_schedule("alternating", seed=5, total_steps=30)
        r1 = pl.train(sched, task)
        r2 = pl.train(sched, pl.make_toy_task(5))
        assert r1.to_csv() == r2.to_csv()
        assert json.dumps(r1.summary(), sort_keys=True) == \
            json.dumps(r2.summary(), sort_keys=True)

    def test_golden_training_runs(self):
        # per-step losses and held-out losses of a 30-step alternating and a
        # 30-step e2e run, gate and router noise live, as record_training
        # gives them. Regenerate with `python tests/test_pipeline.py` (prints the JSON)
        fix = json.loads(GOLDEN_TRAIN.read_text())
        task = pl.make_toy_task(fix["task_seed"])
        for run in fix["runs"]:
            report = pl.train(pl.default_schedule(run["mode"], seed=run["seed"],
                                                  total_steps=fix["total_steps"]), task)
            assert [stage for _, stage, _ in report.steps] == run["stages"]
            np.testing.assert_allclose([loss for *_, loss in report.steps], run["losses"],
                                       rtol=1e-12, atol=0.0)
            for name in ("final_eval", "only_global_eval", "only_local_eval"):
                np.testing.assert_allclose(getattr(report, name), run[name],
                                           rtol=1e-12, atol=0.0)

    def test_schedule_stage_count_enforced(self):
        with pytest.raises(ValueError):
            pl.StageSchedule(mode="alternating", steps=(10,), lr=0.5)
        with pytest.raises(ValueError):
            pl.StageSchedule(mode="e2e", steps=(10, 10), lr=0.5)
        with pytest.raises(ValueError):
            pl.stage_plan("warmup")

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            pl.StageSchedule("e2e", (-3,), 0.1)
        with pytest.raises(ValueError, match="non-negative"):
            pl.default_schedule("alternating", total_steps=-5)
        assert pl.StageSchedule("alternating", (10, 0, 0), 0.1).steps == (10, 0, 0)

    def test_task_without_eval_set_rejected_before_training(self, monkeypatch):
        task = pl.make_toy_task(5, pl.PipelineConfig(n_train=2, n_eval=0, sizes=(96,)))

        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(pl, "_loss_into", no_step)
        with pytest.raises(ValueError, match="at least one eval sample"):
            pl.train(pl.default_schedule("e2e", total_steps=3), task)

    def test_empty_batch_rejected(self):
        task = pl.make_toy_task(5, pl.PipelineConfig(n_train=2, n_eval=0, sizes=(96,)))
        params = pl.init_params(task, 1)
        with pytest.raises(ValueError, match="at least one sample"):
            pl.evaluate(params, task)
        with pytest.raises(ValueError, match="at least one sample"):
            pl.batch_loss_and_grads([], params, task)

    def test_divergence_flagged_not_crashed(self):
        task = pl.make_toy_task(6)
        sched = pl.StageSchedule(mode="e2e", steps=(200,), lr=50.0, seed=6)
        report = pl.train(sched, task)
        assert report.diverged
        assert report.summary()["diverged"] is True

    def test_a_long_schedule_takes_no_memory_per_step(self, monkeypatch):
        # the stage plan is iterated, not listed: a list of 5 * 10^6 entries
        # would take about 40 MB before the first step
        task = pl.make_toy_task(5, pl.PipelineConfig(n_train=1, n_eval=1, sizes=(96,)))
        monkeypatch.setattr(pl, "_loss_into", lambda *args: math.nan)
        tracemalloc.start()
        try:
            report = pl.train(pl.StageSchedule("e2e", (5_000_000,), 0.1), task)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.diverged and len(report.steps) == 1
        assert peak < 2**20, peak

    def test_divergence_to_nan_flagged_not_crashed(self):
        # at the default learning rate this run's loss turns NaN at step 11,
        # where test_divergence_flagged_not_crashed's overflows to inf; the
        # run ends flagged, and its evaluations give NaN without raising
        report = pl.train(pl.default_schedule("e2e", seed=1019), pl.make_toy_task(1019))
        assert report.summary()["diverged"] is True
        assert math.isnan(report.steps[-1][2]) and math.isnan(report.final_eval)

    def test_run_report_csv_schema(self):
        task = pl.make_toy_task(6)
        report = pl.train(pl.default_schedule("e2e", seed=6, total_steps=3), task)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "step,stage,loss"
        assert len(lines) == 4
        step, stage, loss_val = lines[1].split(",")
        assert step == "0" and stage == "e2e"
        float(loss_val)


class TestAblate:
    def test_zeroed_local_branch_makes_only_global_equal_full(self, task):
        p = pl.init_params(task, 1)
        p.qf_local.wv[:] = 0.0
        p.qf_local.wo[:] = 0.0
        full = pl.evaluate(p, task, "full")
        only_global = pl.evaluate(p, task, "global_only")
        # local tokens are exactly zero rows; pooling dilutes the global mean,
        # so compare against a forward that keeps the dilution explicit
        sample = task.eval_set[0]
        pred_full, cache = pl.forward(sample, p, task, "full")
        pred_glob, _ = pl.forward(sample, p, task, "global_only")
        k = cache.n_rows - task.cfg.tokens_per_tile
        scale = task.cfg.tokens_per_tile / cache.n_rows
        np.testing.assert_allclose(pred_full, pred_glob * scale, rtol=1e-10)
        assert np.isfinite(full) and np.isfinite(only_global)

    def test_small_gamma_shrinks_kept_set(self, task, params):
        cfg_small = pl.PipelineConfig(gamma=0.05)
        t_small = pl.make_toy_task(1, cfg_small)
        sample = t_small.train_set[0]
        _, cache = pl.forward(sample, pl.init_params(t_small, 1), t_small, "full")
        _, cache_big = pl.forward(task.train_set[0], params, task, "full")
        assert len(cache.selection.kept_indices) <= len(cache_big.selection.kept_indices)
        assert len(cache.selection.kept_indices) >= 1

    def test_small_gamma_pulls_full_toward_only_global(self):
        # continuity: with ~1 kept local token the full pass differs little
        # from the global-only pass, compared with the default gamma
        def gap(gamma):
            cfg = pl.PipelineConfig(gamma=gamma)
            t = pl.make_toy_task(3, cfg)
            p = pl.init_params(t, 3)
            return abs(pl.evaluate(p, t, "full") - pl.evaluate(p, t, "global_only"))

        assert gap(0.05) < gap(0.75)

    def test_trained_local_branch_beats_untrained(self):
        import warnings
        warnings.filterwarnings("ignore")
        task = pl.make_toy_task(2)
        report = pl.train(pl.default_schedule("alternating", seed=2,
                                              total_steps=120), task)
        untrained = pl.evaluate(pl.init_params(task, 2), task, "local_only")
        assert np.isfinite(report.only_local_eval)
        assert report.only_local_eval < untrained


def record_training() -> dict:
    """The golden training record: train(default_schedule(mode, seed=3,
    total_steps=30), make_toy_task(3)) in the alternating and e2e modes."""
    task = pl.make_toy_task(3)
    runs = []
    for mode in ("alternating", "e2e"):
        report = pl.train(pl.default_schedule(mode, seed=3, total_steps=30), task)
        runs.append({"mode": mode, "seed": 3, "losses": [loss for *_, loss in report.steps],
                     "stages": [stage for _, stage, _ in report.steps],
                     **{name: getattr(report, name)
                        for name in ("final_eval", "only_global_eval", "only_local_eval")}})
    return {"task_seed": 3, "total_steps": 30, "runs": runs}


if __name__ == "__main__":
    json.dump(record_training(), sys.stdout, indent=1)
    sys.stdout.write("\n")
