"""Numerics contracts: softmax/softplus stability, attention as convex
combination, generator reproducibility, and the FD checker itself."""

import math

import numpy as np
import pytest

from slicemix.numerics import (
    attention_weights,
    cross_attention,
    cross_attention_vjp,
    fd_grad_check,
    gelu,
    gelu_grad,
    make_rng,
    softmax,
    softplus,
)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_direct_evaluation(self):
        # e^1 / (e^1 + e^0) computed independently
        e = math.exp(1.0)
        np.testing.assert_allclose(softmax([1.0, 0.0]),
                                   [e / (e + 1.0), 1.0 / (e + 1.0)], rtol=1e-14)

    def test_no_overflow_on_huge_logits(self):
        out = softmax([1000.0, 0.0])
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0, abs=1e-12)
        assert out[1] == pytest.approx(0.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty vector"):
            softmax([])

    def test_sum_one_and_positive_random(self):
        rng = make_rng(0)
        for n in (1, 2, 17, 1000, 10_000):
            v = rng.standard_normal(n) * rng.uniform(0.1, 50.0)
            out = softmax(v)
            assert abs(out.sum() - 1.0) < 1e-12
            assert np.all(out > 0.0)
            assert np.argmax(out) == np.argmax(v)

    def test_shift_invariance(self):
        rng = make_rng(1)
        for _ in range(50):
            v = rng.standard_normal(rng.integers(1, 40))
            c = rng.uniform(-100.0, 100.0)
            np.testing.assert_allclose(softmax(v + c), softmax(v), atol=1e-12)


class TestSoftplus:
    def test_at_zero(self):
        assert softplus(0.0) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_large_positive_asymptote(self):
        assert softplus(50.0) == pytest.approx(50.0, rel=1e-12)

    def test_large_negative_tail(self):
        # log1p(e^x) ~ e^x for very negative x
        assert softplus(-50.0) == pytest.approx(math.exp(-50.0), rel=1e-10)

    def test_positive_everywhere(self):
        xs = np.linspace(-30, 30, 101)
        assert np.all(softplus(xs) > 0.0)


class TestCrossAttention:
    def test_single_matching_key_passes_value_through(self):
        q = np.array([[0.3, -1.2]])
        v = np.array([[5.0, 7.0, -1.0]])
        np.testing.assert_allclose(cross_attention(q, q, v), v, rtol=1e-14)

    def test_identical_keys_average_values(self):
        q = np.array([[1.0, 2.0]])
        k = np.array([[0.5, -0.5], [0.5, -0.5]])
        v = np.array([[2.0], [6.0]])
        np.testing.assert_allclose(cross_attention(q, k, v), [[4.0]], rtol=1e-14)

    def test_two_key_hand_evaluation(self):
        q = np.array([[1.0, 0.0]])
        k = np.array([[1.0, 0.0], [0.0, 1.0]])
        v = np.array([[2.0], [4.0]])
        # weights: softmax([1/sqrt(2), 0]), evaluated with plain math
        s = 1.0 / math.sqrt(2.0)
        w = math.exp(s) / (math.exp(s) + 1.0)
        expected = w * 2.0 + (1.0 - w) * 4.0
        np.testing.assert_allclose(cross_attention(q, k, v), [[expected]], rtol=1e-14)

    def test_rows_are_convex_combinations(self):
        rng = make_rng(2)
        q = rng.standard_normal((6, 5))
        k = rng.standard_normal((9, 5))
        ones = np.ones((9, 1))
        weights = cross_attention(q, k, np.hstack([np.eye(9), ones]))
        w, row_sums = weights[:, :9], weights[:, 9]
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        np.testing.assert_allclose(row_sums, 1.0, atol=1e-12)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cross_attention(np.zeros((1, 3)), np.zeros((2, 4)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            cross_attention(np.zeros((1, 3)), np.zeros((2, 3)), np.zeros((3, 2)))

    def test_vjp_against_fd(self):
        rng = make_rng(3)
        q = rng.standard_normal((3, 4))
        k = rng.standard_normal((5, 4))
        v = rng.standard_normal((5, 2))
        dout = rng.standard_normal((3, 2))
        dq, dk, dv = cross_attention_vjp(q, k, v, dout, attention_weights(q, k))
        for name, arr, grad in (("q", q, dq), ("k", k, dk), ("v", v, dv)):
            others = {"q": q, "k": k, "v": v}

            def f(vec, _name=name, _shape=arr.shape):
                args = dict(others)
                args[_name] = vec.reshape(_shape)
                return float(np.vdot(cross_attention(args["q"], args["k"], args["v"]), dout))

            assert fd_grad_check(f, grad.ravel(), arr.ravel()) < 1e-8


class TestGelu:
    def test_matches_definition(self):
        from scipy.special import erf
        xs = np.linspace(-4, 4, 9)
        np.testing.assert_allclose(gelu(xs), 0.5 * xs * (1 + erf(xs / np.sqrt(2))),
                                   rtol=1e-15)

    def test_grad_against_fd(self):
        rng = make_rng(4)
        x = rng.standard_normal(20)

        def f(vec):
            return float(gelu(vec).sum())

        assert fd_grad_check(f, gelu_grad(x), x) < 1e-9


class TestRng:
    def test_equal_seeds_bitwise_equal(self):
        a = make_rng(1234).standard_normal(1000)
        b = make_rng(1234).standard_normal(1000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_rng(1).standard_normal(10),
                                  make_rng(2).standard_normal(10))


class TestFdGradCheck:
    def test_exact_quadratic(self):
        rng = make_rng(5)
        p = rng.standard_normal(8)
        err = fd_grad_check(lambda v: 0.5 * float(v @ v), p, p)
        assert err < 1e-8

    def test_constant_function_zero_grad(self):
        p = np.ones(4)
        err = fd_grad_check(lambda v: 3.5, np.zeros(4), p)
        assert err == 0.0

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            fd_grad_check(lambda v: 0.0, np.zeros(1), np.zeros(1), step=0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            fd_grad_check(lambda v: float("nan"), np.zeros(1), np.zeros(1))
