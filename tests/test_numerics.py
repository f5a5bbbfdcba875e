"""Numerics contracts: softmax/softplus stability, attention as convex
combination, generator reproducibility, and the FD checker itself."""

import math
import tracemalloc

import numpy as np
import pytest

from slicemix import numerics
from slicemix.numerics import (
    attention_weights,
    cross_attention_vjp,
    fd_grad_check,
    gelu_grad,
    make_rng,
    normal_cdf,
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
    """Attention as the query head forms it: attention_weights(q, k) @ v."""

    def test_single_matching_key_passes_value_through(self):
        q = np.array([[0.3, -1.2]])
        v = np.array([[5.0, 7.0, -1.0]])
        np.testing.assert_allclose(attention_weights(q, q) @ v, v, rtol=1e-14)

    def test_identical_keys_average_values(self):
        q = np.array([[1.0, 2.0]])
        k = np.array([[0.5, -0.5], [0.5, -0.5]])
        v = np.array([[2.0], [6.0]])
        np.testing.assert_allclose(attention_weights(q, k) @ v, [[4.0]], rtol=1e-14)

    def test_two_key_hand_evaluation(self):
        q = np.array([[1.0, 0.0]])
        k = np.array([[1.0, 0.0], [0.0, 1.0]])
        v = np.array([[2.0], [4.0]])
        # weights: softmax([1/sqrt(2), 0]), evaluated with plain math
        s = 1.0 / math.sqrt(2.0)
        w = math.exp(s) / (math.exp(s) + 1.0)
        expected = w * 2.0 + (1.0 - w) * 4.0
        np.testing.assert_allclose(attention_weights(q, k) @ v, [[expected]], rtol=1e-14)

    def test_rows_are_convex_combinations(self):
        rng = make_rng(2)
        q = rng.standard_normal((6, 5))
        k = rng.standard_normal((9, 5))
        ones = np.ones((9, 1))
        weights = attention_weights(q, k) @ np.hstack([np.eye(9), ones])
        w, row_sums = weights[:, :9], weights[:, 9]
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        np.testing.assert_allclose(row_sums, 1.0, atol=1e-12)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_vjp_against_fd(self):
        rng = make_rng(3)
        q = rng.standard_normal((3, 4))
        t = rng.standard_normal((5, 4))
        dout = rng.standard_normal((3, 4))
        # the query gradient of a lone token matrix, and of a stack, summed over it
        for t, dout in ((t, dout),
                        (rng.standard_normal((2, 5, 4)), rng.standard_normal((2, 3, 4)))):
            dq = cross_attention_vjp(t, dout, attention_weights(q, t))

            def f(vec, _t=t, _dout=dout):
                return float(np.vdot(attention_weights(vec.reshape(q.shape), _t) @ _t, _dout))

            assert fd_grad_check(f, dq.ravel(), q.ravel()) < 1e-8


class TestGelu:
    def test_matches_definition(self):
        # 0.5 * (1 + erf(x / sqrt(2))) would lose digits to cancellation for x < 0
        xs = np.linspace(-4, 4, 9)
        want = [0.5 * x * math.erfc(-x / math.sqrt(2.0)) for x in xs]
        np.testing.assert_allclose(xs * normal_cdf(xs), want, rtol=1e-15)

    def test_non_finite_inputs(self):
        # the CDF is exactly 1 and 0 at ±inf and NaN stays NaN, without an
        # error or a warning; GELU is x * Φ(x), so -inf * 0 is NaN, as x * (1 +
        # erf(x / sqrt(2))) / 2 gives it
        cdf = normal_cdf(np.array([np.inf, -np.inf, np.nan, 1e300, -1e300]))
        assert cdf[[0, 3]].tolist() == [1.0, 1.0] and cdf[[1, 4]].tolist() == [0.0, 0.0]
        assert np.isnan(cdf[2])
        with np.errstate(invalid="ignore"):
            x = np.array([np.inf, -np.inf, np.nan])
            y = x * normal_cdf(x)
        assert y[0] == np.inf and np.isnan(y[1:]).all()

    def test_grad_against_fd(self):
        rng = make_rng(4)
        x = rng.standard_normal(20)

        def f(vec):
            return float((vec * normal_cdf(vec)).sum())

        assert fd_grad_check(f, gelu_grad(x, normal_cdf(x)), x) < 1e-9

    def test_the_table_is_built_in_one_buffer(self):
        """The CDF table is the list-of-columns build's, byte for byte, and its
        rebuild peaks at about its own two copies (0.4 MiB each: the rows, then
        the transposed table), not at a Python float per coefficient (2.9 MiB)."""
        cols = [[0.0] * 5 + [-8.5]]
        for j in range(1, 8704):
            m = j / 512 - 8.5
            pdf = math.exp(-0.5 * m * m) / math.sqrt(2.0 * math.pi)
            cols.append([0.5 * math.erfc(-m / math.sqrt(2.0)), pdf, -m * pdf / 2.0,
                         (m * m - 1.0) * pdf / 6.0, -m * (m * m - 3.0) * pdf / 24.0, m])
        cols.append([1.0] + [0.0] * 4 + [8.5])
        want = np.array(cols).T.copy()
        del cols
        numerics._cdf_table.cache_clear()
        tracemalloc.start()
        try:
            table = numerics._cdf_table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape == want.shape == (6, 8705) and table.flags.c_contiguous
        assert table.tobytes() == want.tobytes()
        assert peak < 2**20, peak / 2**20


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

    def test_error_is_relative_to_a_large_gradient(self):
        # the central difference of 0.5 p^2 at 10 is 10, so the error is
        # |10 - 10.5| / 10.5, divided by the analytic gradient, not multiplied
        err = fd_grad_check(lambda p: 0.5 * p @ p, [10.5], [10.0])
        assert err == pytest.approx(0.5 / 10.5, rel=1e-6)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            fd_grad_check(lambda v: float("nan"), np.zeros(1), np.zeros(1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_analytic_gradient(self, bad):
        # a NaN never compares above the worst error seen, so it used to pass
        with pytest.raises(ValueError, match="non-finite analytic gradient"):
            fd_grad_check(lambda p: float(p @ p), np.array([bad, 2.0]), np.ones(2))
