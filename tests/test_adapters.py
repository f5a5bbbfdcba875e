"""Expert/gate contracts: hand-rolled reference evaluations, simplex and
determinism guarantees, and FD-checked gradients."""

import math

import numpy as np
import pytest

from slicemix import adapters as ad
from slicemix.numerics import fd_grad_check, make_rng


def flatten_all(mlp, qf, gate):
    return np.concatenate([a.ravel() for a in (
        mlp.w1, mlp.b1, mlp.w2, mlp.b2,
        qf.queries, qf.wk, qf.wv, qf.wo, gate.w_g, gate.w_noise)])


def zero_grads(mlp, qf, gate):
    return tuple(ad.zeros_like_params(p) for p in (mlp, qf, gate))


def mixture_grads(mlp, qf, gate, dout, sample):
    """adapter_grads into a fresh gradient store, which it returns."""
    grads = zero_grads(mlp, qf, gate)
    ad.adapter_grads(mlp, qf, gate, dout, sample, grads)
    return grads


def make_trio(seed, n_tokens, d_in, d_out, noise=False):
    rng = make_rng(seed)
    return (ad.init_mlp(rng, d_in, d_out),
            ad.init_qformer(rng, n_tokens, d_in, d_out),
            ad.init_gate(rng, d_in, noise_enabled=noise))


class TestMlpForward:
    def test_zero_params_zero_output(self):
        p = ad.MlpParams(np.zeros((3, 4)), np.zeros(4), np.zeros((4, 2)), np.zeros(2))
        out = ad.mlp_apply(np.ones((5, 3)), p).out
        assert out.shape == (5, 2)
        assert np.all(out == 0.0)

    def test_identity_params_on_large_inputs(self):
        # gelu(x) ~ x for x >> 0, so identity weights pass tokens through
        d = 4
        p = ad.MlpParams(np.eye(d), np.zeros(d), np.eye(d), np.zeros(d))
        tokens = make_rng(0).uniform(8.0, 12.0, size=(6, d))
        np.testing.assert_allclose(ad.mlp_apply(tokens, p).out, tokens, rtol=1e-12)

    def test_matches_hand_rolled_reference(self):
        rng = make_rng(21)
        tokens = rng.standard_normal((2, 3))
        p = ad.init_mlp(rng, 3, 5, d_hidden=4)
        out = ad.mlp_apply(tokens, p).out
        # independent re-evaluation of the two affine maps, scalar-wise
        from scipy.special import erf
        expect = np.empty((2, 5))
        for i in range(2):
            hidden = [sum(tokens[i, k] * p.w1[k, j] for k in range(3)) + p.b1[j]
                      for j in range(4)]
            act = [0.5 * h * (1 + erf(h / math.sqrt(2))) for h in hidden]
            for j in range(5):
                expect[i, j] = sum(act[k] * p.w2[k, j] for k in range(4)) + p.b2[j]
        np.testing.assert_allclose(out, expect, rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        p = ad.MlpParams(np.zeros((3, 4)), np.zeros(4), np.zeros((4, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            ad.mlp_apply(np.ones((5, 7)), p)


class TestQFormerForward:
    def test_single_token_weight_one(self):
        rng = make_rng(22)
        p = ad.init_qformer(rng, 3, 4, 2)
        token = rng.standard_normal((1, 4))
        out = ad.qformer_apply(token, p).out
        expect = np.tile(token @ p.wv @ p.wo, (3, 1))
        np.testing.assert_allclose(out, expect, rtol=1e-12)

    def test_zero_values_zero_output(self):
        rng = make_rng(23)
        p = ad.init_qformer(rng, 2, 4, 3)
        p.wv[:] = 0.0
        out = ad.qformer_apply(rng.standard_normal((7, 4)), p).out
        assert np.all(out == 0.0)

    def test_matches_stepwise_reference(self):
        rng = make_rng(24)
        tokens = rng.standard_normal((3, 4))
        p = ad.init_qformer(rng, 2, 4, 5)
        out = ad.qformer_apply(tokens, p).out
        # oracle: projections and attention assembled step by step
        from slicemix.numerics import cross_attention
        keys = tokens @ p.wk
        values = tokens @ p.wv
        expect = cross_attention(p.queries, keys, values) @ p.wo
        np.testing.assert_allclose(out, expect, rtol=1e-13)
        assert out.shape == (2, 5)

    def test_output_rows_equal_query_count(self):
        rng = make_rng(25)
        p = ad.init_qformer(rng, 7, 3, 3)
        for n_tokens in (1, 4, 64, 333, 1024):
            out = ad.qformer_apply(rng.standard_normal((n_tokens, 3)), p).out
            assert out.shape == (7, 3)


class TestGate:
    def test_zero_weights_give_even_split(self):
        gate = ad.GateParams(np.zeros((3, 2)), np.zeros((3, 2)), noise_enabled=False)
        np.testing.assert_allclose(ad.gate_weights(np.ones(3), gate), [0.5, 0.5],
                                   atol=1e-15)

    def test_logit_one_zero(self):
        gate = ad.GateParams(np.array([[1.0, 0.0]]), np.zeros((1, 2)),
                             noise_enabled=False)
        w = ad.gate_weights(np.array([1.0]), gate)
        e = math.exp(1.0)
        np.testing.assert_allclose(w, [e / (1 + e), 1 / (1 + e)], rtol=1e-12)

    def test_vanishing_noise_scale_matches_noiseless(self):
        rng = make_rng(26)
        pooled = rng.standard_normal(5)
        w_g = rng.standard_normal((5, 2))
        noisy = ad.GateParams(w_g, np.full((5, 2), -50.0), noise_enabled=True)
        quiet = ad.GateParams(w_g, np.zeros((5, 2)), noise_enabled=False)
        # softplus of a hugely negative noise logit is ~0, silencing the draws
        pooled_pos = np.abs(pooled) + 1.0
        got = ad.gate_weights(pooled_pos, noisy, make_rng(9))
        want = ad.gate_weights(pooled_pos, quiet)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_simplex_with_and_without_noise(self):
        rng = make_rng(27)
        for trial in range(500):
            gate = ad.init_gate(rng, 4, noise_enabled=trial % 2 == 0)
            w = ad.gate_weights(rng.standard_normal(4), gate, rng)
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) < 1e-12

    def test_noise_off_deterministic(self):
        rng = make_rng(28)
        gate = ad.init_gate(rng, 6, noise_enabled=False)
        x = rng.standard_normal(6)
        assert np.array_equal(ad.gate_weights(x, gate), ad.gate_weights(x, gate))

    def test_no_rng_means_no_noise(self):
        rng = make_rng(29)
        gate = ad.init_gate(rng, 6, noise_enabled=True)
        x = rng.standard_normal(6)
        assert np.array_equal(ad.gate_weights(x, gate), ad.gate_weights(x, gate))


class TestMoeForward:
    def setup_method(self):
        self.mlp, self.qf, self.gate = make_trio(30, n_tokens=4, d_in=5, d_out=3)
        self.tokens = make_rng(31).standard_normal((4, 5))

    def test_forced_mlp_expert_bitwise(self):
        out, _ = ad.moe_apply(self.tokens, self.mlp, self.qf, self.gate,
                              gate_override=[1.0, 0.0])
        assert np.array_equal(out, ad.mlp_apply(self.tokens, self.mlp).out)

    def test_forced_qformer_expert_bitwise(self):
        out, _ = ad.moe_apply(self.tokens, self.mlp, self.qf, self.gate,
                              gate_override=[0.0, 1.0])
        assert np.array_equal(out, ad.qformer_apply(self.tokens, self.qf).out)

    def test_even_gate_averages_branches(self):
        out, _ = ad.moe_apply(self.tokens, self.mlp, self.qf, self.gate,
                              gate_override=[0.5, 0.5])
        expect = 0.5 * (ad.mlp_apply(self.tokens, self.mlp).out
                        + ad.qformer_apply(self.tokens, self.qf).out)
        np.testing.assert_allclose(out, expect, rtol=1e-14)

    def test_token_count_preserved(self):
        out, _ = ad.moe_apply(self.tokens, self.mlp, self.qf, self.gate)
        assert out.shape == (4, 3)

    def test_query_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="global expert shape mismatch"):
            ad.moe_apply(make_rng(0).standard_normal((7, 5)),
                         self.mlp, self.qf, self.gate)


class TestAdapterGrads:
    def test_zero_upstream_gives_zero_grads(self):
        mlp, qf, gate = make_trio(32, 3, 4, 2)
        tokens = make_rng(33).standard_normal((3, 4))
        _, sample = ad.moe_apply(tokens, mlp, qf, gate)
        d_mlp, d_qf, d_gate = mixture_grads(mlp, qf, gate, np.zeros((3, 2)), sample)
        assert all(np.all(a == 0.0) for a in
                   (d_mlp.w1, d_mlp.b1, d_mlp.w2, d_mlp.b2, d_qf.queries,
                    d_qf.wk, d_qf.wv, d_qf.wo, d_gate.w_g, d_gate.w_noise))

    def test_single_token_mlp_chain_rule(self):
        # quadratic loss on the MLP-only path with 1x1 weights: d/dw2 and
        # d/dw1 follow the scalar chain rule computed symbolically
        from scipy.special import erf
        w1, b1, w2, b2, x = 0.7, 0.1, -1.3, 0.2, 0.9
        mlp = ad.MlpParams(np.array([[w1]]), np.array([b1]),
                           np.array([[w2]]), np.array([b2]))
        qf = ad.init_qformer(make_rng(34), 1, 1, 1)
        gate = ad.init_gate(make_rng(35), 1, noise_enabled=False)
        tokens = np.array([[x]])
        out, sample = ad.moe_apply(tokens, mlp, qf, gate, gate_override=[1.0, 0.0])
        y = float(out[0, 0])
        dout = np.array([[y]])  # loss = y^2 / 2
        d_mlp, _, _ = mixture_grads(mlp, qf, gate, dout, sample)
        h = x * w1 + b1
        cdf = 0.5 * (1 + erf(h / math.sqrt(2)))
        pdf = math.exp(-0.5 * h * h) / math.sqrt(2 * math.pi)
        a = h * cdf
        assert d_mlp.w2[0, 0] == pytest.approx(y * a, rel=1e-12)
        assert d_mlp.b2[0] == pytest.approx(y, rel=1e-12)
        assert d_mlp.w1[0, 0] == pytest.approx(y * w2 * (cdf + h * pdf) * x, rel=1e-12)
        assert d_mlp.b1[0] == pytest.approx(y * w2 * (cdf + h * pdf), rel=1e-12)

    def test_broadcasting_dout_rejected(self):
        # a (4, 3) upstream gradient broadcasts over a stack of 3 images
        mlp, qf, gate = make_trio(36, 4, 5, 3)
        tokens = make_rng(37).standard_normal((3, 4, 5))
        _, sample = ad.moe_apply(tokens, mlp, qf, gate)
        assert sample.mlp.out.shape == (3, 4, 3)
        with pytest.raises(ValueError, match="upstream gradient shape"):
            mixture_grads(mlp, qf, gate, np.ones((4, 3)), sample)
        mixture_grads(mlp, qf, gate, np.ones((3, 4, 3)), sample)

    @pytest.mark.parametrize("seed", range(20))
    def test_full_moe_path_fd(self, seed):
        rng = make_rng(100 + seed)
        n_tokens, d_in, d_out = 3, 4, 3
        mlp, qf, gate = make_trio(200 + seed, n_tokens, d_in, d_out)
        tokens = rng.standard_normal((n_tokens, d_in))
        dout = rng.standard_normal((n_tokens, d_out))
        shapes = [(d_in, d_out), (d_out,), (d_out, d_out), (d_out,),
                  (n_tokens, d_in), (d_in, d_in), (d_in, d_in), (d_in, d_out),
                  (d_in, 2), (d_in, 2)]

        def unflatten(vec):
            arrs, pos = [], 0
            for s in shapes:
                n = int(np.prod(s))
                arrs.append(vec[pos:pos + n].reshape(s))
                pos += n
            return (ad.MlpParams(*arrs[:4]), ad.QFormerParams(*arrs[4:8]),
                    ad.GateParams(arrs[8], arrs[9], noise_enabled=False))

        def f(vec):
            m, q, g = unflatten(vec)
            return float(np.vdot(ad.moe_apply(tokens, m, q, g)[0], dout))

        _, sample = ad.moe_apply(tokens, mlp, qf, gate)
        d_mlp, d_qf, d_gate = mixture_grads(mlp, qf, gate, dout, sample)
        err = fd_grad_check(f, flatten_all(d_mlp, d_qf, d_gate),
                            flatten_all(mlp, qf, gate))
        assert err < 1e-5

    def test_frozen_noise_reparameterized_grads(self):
        # with the normal draws pinned, gradients flow through the softplus
        # noise scale and still pass FD
        from slicemix.numerics import softmax, softplus
        rng = make_rng(40)
        mlp, qf, gate = make_trio(41, 3, 4, 2, noise=True)
        tokens = rng.standard_normal((3, 4))
        dout = rng.standard_normal((3, 2))
        _, sample = ad.moe_apply(tokens, mlp, qf, gate, rng=make_rng(7))
        assert sample.eps is not None
        eps = sample.eps
        d_mlp, d_qf, d_gate = mixture_grads(mlp, qf, gate, dout, sample)

        def f(vec):
            w_g = vec[:8].reshape(4, 2)
            w_noise = vec[8:].reshape(4, 2)
            x = tokens.mean(axis=0)
            logits = x @ w_g + eps * softplus(x @ w_noise)
            w = softmax(logits)
            out = (w[0] * ad.mlp_apply(tokens, mlp).out
                   + w[1] * ad.qformer_apply(tokens, qf).out)
            return float(np.vdot(out, dout))

        grad = np.concatenate([d_gate.w_g.ravel(), d_gate.w_noise.ravel()])
        point = np.concatenate([gate.w_g.ravel(), gate.w_noise.ravel()])
        assert fd_grad_check(f, grad, point) < 1e-6


class TestStackedQueryHead:
    """qformer_apply and qformer_vjp on a stack of token matrices, the form
    the pipeline uses to compress all of an image's patches in one pass."""

    def setup_method(self):
        rng = make_rng(50)
        self.p = ad.init_qformer(rng, 4, 5, 3)
        self.tokens = rng.standard_normal((3, 6, 5))   # 3 patches of 6 tokens
        self.dout = rng.standard_normal((3, 4, 3))

    def test_matches_per_patch_loop(self):
        acts = ad.qformer_apply(self.tokens, self.p)
        grads = ad.zeros_like_params(self.p)
        ad.qformer_vjp(acts, self.p, self.dout, grads)
        loop = ad.zeros_like_params(self.p)
        for i, t in enumerate(self.tokens):
            a = ad.qformer_apply(t, self.p)
            np.testing.assert_allclose(acts.out[i], a.out, rtol=1e-13, atol=0)
            ad.qformer_vjp(a, self.p, self.dout[i], loop)
        for name in ("queries", "wk", "wv", "wo"):
            got, want = getattr(grads, name), getattr(loop, name)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name

    def test_fd_param_grads(self):
        d_in, n_q, d_out = 5, 4, 3
        shapes = [(n_q, d_in), (d_in, d_in), (d_in, d_in), (d_in, d_out)]

        def unflatten(vec):
            arrs, pos = [], 0
            for s in shapes:
                n = int(np.prod(s))
                arrs.append(vec[pos:pos + n].reshape(s))
                pos += n
            return ad.QFormerParams(*arrs)

        def f(vec):
            return float(np.vdot(ad.qformer_apply(self.tokens, unflatten(vec)).out,
                                 self.dout))

        grads = ad.zeros_like_params(self.p)
        ad.qformer_vjp(ad.qformer_apply(self.tokens, self.p), self.p, self.dout, grads)
        point = np.concatenate([a.ravel() for a in (
            self.p.queries, self.p.wk, self.p.wv, self.p.wo)])
        analytic = np.concatenate([a.ravel() for a in (
            grads.queries, grads.wk, grads.wv, grads.wo)])
        assert fd_grad_check(f, analytic, point) < 1e-6

    def test_stack_of_one_equals_the_matrix(self):
        t = self.tokens[0]
        stacked = ad.qformer_apply(t[None], self.p)
        assert stacked.out.shape == (1, 4, 3)
        assert np.array_equal(stacked.out[0], ad.qformer_apply(t, self.p).out)

    def test_other_ranks_rejected(self):
        with pytest.raises(ValueError, match="expects 2-D or 3-D tokens"):
            ad.qformer_apply(self.tokens[None], self.p)
        with pytest.raises(ValueError, match="expects 2-D or 3-D tokens"):
            ad.mlp_apply(self.tokens[None], ad.init_mlp(make_rng(0), 5, 3))


class TestStackedMixture:
    """moe_apply, gate_sample and adapter_grads on a (B, L, d_in) stack of
    token matrices, the form the pipeline uses to run every global view of a
    batch in one pass."""

    def setup_method(self):
        rng = make_rng(60)
        self.mlp, self.qf, self.gate = make_trio(61, 4, 5, 3, noise=True)
        self.tokens = rng.standard_normal((3, 4, 5))   # 3 images of 4 tokens
        self.dout = rng.standard_normal((3, 4, 3))

    def test_fd_with_live_gate_noise(self):
        # a fresh generator per evaluation replays the same (B, 2) draws
        d_in, d_out, n = 5, 3, 4
        shapes = [(d_in, d_out), (d_out,), (d_out, d_out), (d_out,),
                  (n, d_in), (d_in, d_in), (d_in, d_in), (d_in, d_out),
                  (d_in, 2), (d_in, 2)]

        def unflatten(vec):
            arrs, pos = [], 0
            for s in shapes:
                k = int(np.prod(s))
                arrs.append(vec[pos:pos + k].reshape(s))
                pos += k
            return (ad.MlpParams(*arrs[:4]), ad.QFormerParams(*arrs[4:8]),
                    ad.GateParams(arrs[8], arrs[9], noise_enabled=True))

        def f(vec):
            out, _ = ad.moe_apply(self.tokens, *unflatten(vec), rng=make_rng(9))
            return float(np.vdot(out, self.dout))

        _, sample = ad.moe_apply(self.tokens, self.mlp, self.qf, self.gate, rng=make_rng(9))
        assert sample.eps.shape == (3, 2) and sample.weights.shape == (3, 2)
        grads = mixture_grads(self.mlp, self.qf, self.gate, self.dout, sample)
        assert np.any(grads[2].w_noise != 0.0)
        assert fd_grad_check(f, flatten_all(*grads),
                             flatten_all(self.mlp, self.qf, self.gate)) < 1e-6

    def test_matches_per_image_loop(self):
        # a stack draws the same noise as its images one by one; outputs and
        # gate weights are bitwise equal, gradients sum over the stack
        out, sample = ad.moe_apply(self.tokens, self.mlp, self.qf, self.gate,
                                   rng=make_rng(10))
        grads = mixture_grads(self.mlp, self.qf, self.gate, self.dout, sample)
        rng = make_rng(10)
        loop = zero_grads(self.mlp, self.qf, self.gate)
        for i, t in enumerate(self.tokens):
            out_i, sample_i = ad.moe_apply(t, self.mlp, self.qf, self.gate, rng=rng)
            assert np.array_equal(out[i], out_i)
            assert np.array_equal(sample.weights[i], sample_i.weights)
            ad.adapter_grads(self.mlp, self.qf, self.gate, self.dout[i], sample_i, loop)
        got, want = flatten_all(*grads), flatten_all(*loop)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_stack_of_one_equals_the_matrix(self):
        t, dout = self.tokens[0], self.dout[0]
        out, sample = ad.moe_apply(t, self.mlp, self.qf, self.gate, rng=make_rng(11))
        out1, sample1 = ad.moe_apply(t[None], self.mlp, self.qf, self.gate,
                                     rng=make_rng(11))
        assert out.shape == t.shape[:1] + (3,) and sample.weights.shape == (2,)
        assert np.array_equal(out1[0], out)
        assert np.array_equal(sample1.weights[0], sample.weights)
        grads = mixture_grads(self.mlp, self.qf, self.gate, dout, sample)
        grads1 = mixture_grads(self.mlp, self.qf, self.gate, dout[None], sample1)
        assert np.array_equal(flatten_all(*grads), flatten_all(*grads1))

    def test_supplied_draws_replace_the_generator(self):
        pooled = self.tokens.mean(axis=1)
        drawn = ad.gate_sample(pooled, self.gate, make_rng(12))
        given = ad.gate_sample(pooled, self.gate, eps=make_rng(12).standard_normal((3, 2)))
        assert np.array_equal(drawn.weights, given.weights)
        with pytest.raises(ValueError, match="noise draws"):
            ad.gate_sample(pooled, self.gate, eps=np.zeros(2))

    def test_override_applies_to_every_image(self):
        out, sample = ad.moe_apply(self.tokens, self.mlp, self.qf, self.gate,
                                   gate_override=[1.0, 0.0])
        assert sample.weights.shape == (3, 2)
        assert np.array_equal(out, ad.mlp_apply(self.tokens, self.mlp).out)
