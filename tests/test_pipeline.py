"""Toy-task contracts: degenerate-config forwards, FD-checked end-to-end
gradients with the selection pinned, the flat parameter store, exact stage
freezes, determinism, and the frozen golden forward trace and training runs."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from slicemix import pipeline as pl
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


class TestToyTask:
    def test_deterministic_construction(self):
        t1 = pl.make_toy_task(3)
        t2 = pl.make_toy_task(3)
        assert np.array_equal(t1.w_feat, t2.w_feat)
        assert np.array_equal(t1.w_teacher, t2.w_teacher)
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


class TestForward:
    def test_zero_readout_zero_prediction(self, task, params):
        p2 = copy.deepcopy(params)
        p2.readout[:] = 0.0
        pred, _ = pl.forward(task.train_set[0], p2, task, "full")
        assert np.all(pred == 0.0)

    def test_gate_forced_to_mlp_with_full_gamma_is_plain_projection(self, task):
        # gamma=1 keeps all local tokens, local queries = full token count,
        # and the forced gate turns the global branch into the bare MLP: a
        # plain projection pipeline
        cfg = pl.PipelineConfig(gamma=1.0, local_queries=9)
        t = pl.make_toy_task(2, cfg)
        p = pl.init_params(t, 2)
        sample = t.train_set[0]
        pred, cache = pl.forward(sample, p, t, "full", gate_override=[1.0, 0.0])
        from slicemix.adapters import mlp_apply, qformer_apply
        g_rows = mlp_apply(sample.global_tokens, p.mlp).out
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
            return pl.batch_loss_and_grads(batch, p, task, mode, rng=make_rng(11),
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
        pl.batch_loss_and_grads(batch, params, task, "full", rng=r1)
        for s in batch:
            pl.forward(s, params, task, "full", rng=r2)
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
        pl.batch_loss_and_grads(batch, params, task, "full", rng=make_rng(13))
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
        route_batch = pl.route_batch

        def counting(z_v, starts, *args, **kwargs):
            calls.append((len(starts) - 1, len(z_v)))
            return route_batch(z_v, starts, *args, **kwargs)

        def alone(*args, **kwargs):
            raise AssertionError("route_tokens called by the pipeline")

        monkeypatch.setattr(pl, "route_batch", counting)
        monkeypatch.setattr(pl, "route_tokens", alone)
        batch = task.train_set[:3]
        n_q = params.qf_local.n_queries
        pl.batch_loss_and_grads(batch, params, task, "full", rng=make_rng(14))
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
        _, grads = pl.batch_loss_and_grads(task.train_set[:3], p, task, "full",
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
    a loop of single-image forwards gives it, with the same noise draws."""

    @pytest.mark.parametrize("n", [3, 20])
    @pytest.mark.parametrize("mode", pl.FORWARD_MODES)
    def test_matches_a_loop_of_forwards(self, task, params, n, mode):
        batch = task.train_set[:n]
        assert len(batch) == n
        r_batch, r_loop, r_loss = make_rng(21), make_rng(21), make_rng(21)
        cache = pl._forward_batch(*pl._stack(batch), params, task, mode, rng=r_batch)
        preds, sels = [], []
        for s in batch:
            pred, c = pl.forward(s, params, task, mode, rng=r_loop)
            preds.append(pred)
            sels.append(c.selection)
        assert np.array_equal(cache.pred, np.array(preds))
        if mode == "global_only":
            assert cache.selection is None and cache.order is None and sels == [None] * n
        else:
            # the batch's cut, row by row, is each lone image's kept local
            # tokens shifted by the image's first row in the stack
            starts = pl._stack(batch)[2] * params.qf_local.n_queries
            assert cache.n_kept.tolist() == [len(s.kept_indices) for s in sels]
            for rows, kept, start, want in zip(cache.order, cache.kept, starts, sels):
                assert np.array_equal(rows[kept], start + want.kept_indices)
            # the cache keeps the first image's record, bit for bit a lone pass's
            first = cache.selection
            assert np.array_equal(first.kept_indices, sels[0].kept_indices)
            assert np.array_equal(first.scores, sels[0].scores)
            assert first.cumulative_at_cut == sels[0].cumulative_at_cut
        assert r_batch.bit_generator.state == r_loop.bit_generator.state
        # the draws themselves: per image, the gate pair, then one router
        # draw per compressed local token
        r_ref = make_rng(21)
        for s in batch:
            if mode != "local_only":
                r_ref.standard_normal(2)
            if mode != "global_only":
                r_ref.standard_normal(len(s.patch_tokens) * task.cfg.local_queries)
        assert r_batch.bit_generator.state == r_ref.bit_generator.state
        loss, _ = pl.batch_loss_and_grads(batch, params, task, mode, rng=r_loss)
        expect = 0.0
        for pred, s in zip(preds, batch):
            expect += (1.0 / n) * (0.5 * float((pred - s.target) @ (pred - s.target)))
        assert loss == expect
        assert r_loss.bit_generator.state == r_loop.bit_generator.state

    @pytest.mark.parametrize("mode", pl.FORWARD_MODES)
    def test_gradients_are_the_mean_of_single_image_gradients(self, task, params, mode):
        batch = task.train_set[:5]
        _, grads = pl.batch_loss_and_grads(batch, params, task, mode, rng=make_rng(22))
        rng, total = make_rng(22), 0.0
        for s in batch:
            total = total + pl.params_vector(
                pl.batch_loss_and_grads([s], params, task, mode, rng=rng)[1])
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
        sched = pl.StageSchedule(mode="e2e", steps=(0,), lr=(0.5,), seed=1)
        report = pl.train(sched, task)
        assert report.steps == []
        assert np.isfinite(report.final_eval)

    def test_stage_freezes_are_bitwise_exact(self):
        # run stage I+II only and watch the frozen groups
        task = pl.make_toy_task(4)
        sched = pl.StageSchedule(mode="alternating", steps=(5, 5, 0),
                                 lr=(0.5, 0.5, 0.5), seed=4)
        params = pl.init_params(task, 4)
        before = {g: a.copy() for g, a in pl.params_arrays(params).items()}
        # replicate the training loop's first two stages manually via train();
        # then verify against a fresh init that stage II never touched adapter
        report = pl.train(sched, task)
        assert not report.diverged
        # direct check through the internals: advance I then II with the
        # library loop and compare snapshots around stage II
        rng = make_rng((4 << 8) ^ 0xA17E12)
        p = pl.init_params(task, 4)
        for _ in range(5):  # stage I trains adapter only
            _, g = pl.batch_loss_and_grads(task.train_set, p, task, "global_only",
                                           rng=rng)
            pl.params_arrays(p)["adapter"] -= 0.5 * pl.params_arrays(g)["adapter"]
        after_one = {g: a.copy() for g, a in pl.params_arrays(p).items()}
        for _ in range(5):  # stage II trains local only
            _, g = pl.batch_loss_and_grads(task.train_set, p, task, "full", rng=rng)
            pl.params_arrays(p)["local"] -= 0.5 * pl.params_arrays(g)["local"]
        now = pl.params_arrays(p)
        assert np.array_equal(now["adapter"], after_one["adapter"])
        assert np.array_equal(now["readout"], after_one["readout"])
        assert not np.array_equal(now["local"], after_one["local"])
        # stage I must not have touched local/readout either
        for g in ("local", "readout"):
            assert np.array_equal(after_one[g], before[g])

    def test_stage_one_loss_decreases_first_ten_steps(self):
        # noise disabled so the descent property is well defined: live gate
        # and router draws perturb individual steps by design
        cfg = pl.PipelineConfig(gate_noise=False, router_noise_sigma=0.0)
        lr = pl.default_schedule("alternating").lr[0]
        for seed in (1, 2, 3, 4, 5):
            task = pl.make_toy_task(seed, cfg)
            sched = pl.StageSchedule(mode="alternating", steps=(10, 0, 0),
                                     lr=(lr,) * 3, seed=seed)
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
        # 30-step e2e run, gate and router noise live, recorded while the
        # router still ran image by image:
        # train(default_schedule(mode, seed=3, total_steps=30), make_toy_task(3))
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
            pl.StageSchedule(mode="alternating", steps=(10,), lr=(0.5,))
        with pytest.raises(ValueError):
            pl.StageSchedule(mode="e2e", steps=(10, 10), lr=(0.5, 0.5))
        with pytest.raises(ValueError):
            pl.stage_plan("warmup")

    def test_divergence_flagged_not_crashed(self):
        task = pl.make_toy_task(6)
        sched = pl.StageSchedule(mode="e2e", steps=(200,), lr=(50.0,), seed=6)
        report = pl.train(sched, task)
        assert report.diverged
        assert report.summary()["diverged"] is True

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
    def test_arms_match_eval_modes(self, task, params):
        assert pl.ablate(params, task, "only_global") == \
            pl.evaluate(params, task, "global_only")
        assert pl.ablate(params, task, "only_local") == \
            pl.evaluate(params, task, "local_only")
        with pytest.raises(ValueError):
            pl.ablate(params, task, "only_text")

    def test_zeroed_local_branch_makes_only_global_equal_full(self, task):
        p = pl.init_params(task, 1)
        p.qf_local.wv[:] = 0.0
        p.qf_local.wo[:] = 0.0
        full = pl.evaluate(p, task, "full")
        only_global = pl.ablate(p, task, "only_global")
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
            return abs(pl.evaluate(p, t, "full") - pl.ablate(p, t, "only_global"))

        assert gap(0.05) < gap(0.75)

    def test_trained_local_branch_beats_untrained(self):
        import warnings
        warnings.filterwarnings("ignore")
        task = pl.make_toy_task(2)
        report = pl.train(pl.default_schedule("alternating", seed=2,
                                              total_steps=120), task)
        untrained = pl.ablate(pl.init_params(task, 2), task, "only_local")
        assert np.isfinite(report.only_local_eval)
        assert report.only_local_eval < untrained
