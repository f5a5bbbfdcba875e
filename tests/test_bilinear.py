"""Factorization-lab contracts: FD-checked gradients, exact recurrence
equivalences between raw-vector and eigen-coordinate dynamics, fixed-point
classification, and the SVD rank-1 oracle."""

import numpy as np
import pytest

from slicemix import bilinear as bl
from slicemix.numerics import fd_grad_check, make_rng


def random_cs(seed, n, lo=0.05, hi=0.95):
    rng = make_rng(seed)
    return rng.uniform(lo, hi, size=n)


class TestInstance:
    def test_unit_vectors_and_alignment(self):
        for c in (-0.7, 0.0, 0.3, 0.9):
            inst = bl.make_instance(d=16, c=c, seed=5)
            assert abs(np.linalg.norm(inst.a) - 1.0) < 1e-12
            assert abs(np.linalg.norm(inst.b) - 1.0) < 1e-12
            assert abs(float(inst.a @ inst.b) - c) < 1e-12
            assert np.array_equal(inst.x, inst.x.T)

    def test_gram_eigenpairs(self):
        inst = bl.make_instance(c=0.4, seed=6)
        w_plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        w_minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(inst.m @ w_plus, inst.lam_plus * w_plus, atol=1e-12)
        np.testing.assert_allclose(inst.m @ w_minus, inst.lam_minus * w_minus, atol=1e-12)

    def test_degenerate_c_rejected(self):
        with pytest.raises(ValueError):
            bl.make_instance(c=1.0)
        with pytest.raises(ValueError):
            bl.make_instance(c=-1.0)

    def test_coordinates_round_trip(self):
        inst = bl.make_instance(c=0.6, seed=7)
        rng = make_rng(8)
        for _ in range(20):
            alpha, beta = rng.standard_normal(2)
            u = bl.vector_from_coords(inst, alpha, beta)
            a2, b2 = bl.coords_of(inst, u)
            assert abs(a2 - alpha) < 1e-10
            assert abs(b2 - beta) < 1e-10


class TestLoss:
    def test_at_origin_equals_half_frobenius(self):
        for c in (0.1, 0.5, 0.9):
            inst = bl.make_instance(c=c, seed=9)
            zero = np.zeros(inst.d)
            expect = 0.5 * ((1 + c) ** 2 + (1 - c) ** 2)
            assert bl.loss(zero, zero, inst) == pytest.approx(expect, rel=1e-12)

    def test_best_rank1_matches_svd_oracle(self):
        for c in (0.1, 0.5, 0.9):
            inst = bl.make_instance(c=c, seed=10)
            assert inst.optimal_loss == pytest.approx(
                bl.best_rank1_loss_svd(inst), abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_grads_pass_fd(self, seed):
        rng = make_rng(300 + seed)
        inst = bl.make_instance(d=8, c=float(rng.uniform(0.05, 0.95)), seed=seed)
        u = rng.standard_normal(8)
        v = rng.standard_normal(8)
        gu, gv = bl.loss_grads(u, v, inst)

        def f(vec):
            return bl.loss(vec[:8], vec[8:], inst)

        err = fd_grad_check(f, np.concatenate([gu, gv]), np.concatenate([u, v]))
        assert err < 1e-6

    def test_loss_from_coords_matches_dense(self):
        rng = make_rng(11)
        for _ in range(30):
            c = float(rng.uniform(-0.9, 0.9))
            inst = bl.make_instance(c=c, seed=12)
            alpha, beta = rng.standard_normal(2)
            u = bl.vector_from_coords(inst, alpha, beta)
            v = bl.vector_from_coords(inst, beta, alpha)
            tau, nu = bl.eigen_coords(alpha, beta)
            assert bl.loss_from_coords(inst, tau, nu) == pytest.approx(
                bl.loss(u, v, inst), rel=1e-11, abs=1e-12)


class TestGdStep:
    def test_fixed_point_is_stationary(self):
        inst = bl.make_instance(c=0.5, seed=13)
        # tau = 1, nu = 0 scaled so |u|^2 = 1 + c
        alpha, beta = bl.coords_from_eigen(1.0, 0.0)
        u = bl.vector_from_coords(inst, alpha, beta)
        state = bl.BilinearState.from_vectors(inst, u, u.copy(), eta=0.01)
        after = bl.gd_step(state, inst)
        assert np.max(np.abs(after.u - state.u)) < 1e-12
        assert np.max(np.abs(after.v - state.v)) < 1e-12

    def test_one_step_matches_update_matrix(self):
        # symmetric start: z1 = F0 z0 with F0 built explicitly
        c, eta = 0.5, 0.01
        inst = bl.make_instance(c=c, seed=14)
        alpha0 = beta0 = 0.1
        z0 = np.array([alpha0, beta0])
        u0 = bl.vector_from_coords(inst, alpha0, beta0)
        v0 = bl.vector_from_coords(inst, beta0, alpha0)
        state = bl.BilinearState.from_vectors(inst, u0, v0, eta)
        after = bl.gd_step(state, inst)
        u_sq = float(u0 @ u0)
        f0 = np.array([[1 + eta * (1 - u_sq), eta * c],
                       [eta * c, 1 + eta * (1 - u_sq)]])
        z1 = f0 @ z0
        assert after.alpha == pytest.approx(z1[0], abs=1e-12)
        assert after.beta == pytest.approx(z1[1], abs=1e-12)

    def test_norm_symmetry_under_mirror_inits(self):
        rng = make_rng(15)
        for seed in range(20):
            c = float(rng.uniform(0.05, 0.95))
            inst = bl.make_instance(c=c, seed=400 + seed)
            alpha0, beta0 = rng.uniform(-1, 1, size=2)
            state = bl.BilinearState.from_vectors(
                inst,
                bl.vector_from_coords(inst, alpha0, beta0),
                bl.vector_from_coords(inst, beta0, alpha0), 0.01)
            for _ in range(50):
                state = bl.gd_step(state, inst)
                assert abs(np.linalg.norm(state.u) - np.linalg.norm(state.v)) < 1e-10

    def test_span_invariance(self):
        rng = make_rng(16)
        for seed in range(10):
            inst = bl.make_instance(c=float(rng.uniform(0.1, 0.9)), seed=500 + seed)
            alpha0, beta0 = rng.uniform(-1, 1, size=2)
            state = bl.BilinearState.from_vectors(
                inst,
                bl.vector_from_coords(inst, alpha0, beta0),
                bl.vector_from_coords(inst, beta0, alpha0), 0.01)
            for _ in range(50):
                state = bl.gd_step(state, inst)
                recon = bl.vector_from_coords(inst, state.alpha, state.beta)
                assert np.linalg.norm(state.u - recon) < 1e-10


class TestGdCoordStep:
    def test_tau_zero_stays_zero(self):
        inst = bl.make_instance(c=0.3, seed=17)
        tau, nu = 0.0, 0.2
        for _ in range(100):
            tau, nu = bl.gd_coord_step(tau, nu, bl.energy(inst, tau, nu), inst, 0.05)
            assert tau == 0.0

    def test_nu_zero_stays_zero(self):
        inst = bl.make_instance(c=0.3, seed=18)
        tau, nu = 0.2, 0.0
        for _ in range(100):
            tau, nu = bl.gd_coord_step(tau, nu, bl.energy(inst, tau, nu), inst, 0.05)
            assert nu == 0.0

    def test_50_steps_match_direct_simulation(self):
        # coordinate law vs raw-vector trace, per step
        inst = bl.make_instance(c=0.3, seed=19)
        alpha0, beta0 = 0.07, 0.12
        tau, nu = bl.eigen_coords(alpha0, beta0)
        state = bl.BilinearState.from_vectors(
            inst,
            bl.vector_from_coords(inst, alpha0, beta0),
            bl.vector_from_coords(inst, beta0, alpha0), 0.05)
        for _ in range(50):
            tau, nu = bl.gd_coord_step(tau, nu, bl.energy(inst, tau, nu), inst, 0.05)
            state = bl.gd_step(state, inst)
            assert abs(state.tau - tau) < 1e-10
            assert abs(state.nu - nu) < 1e-10

    def test_energy_identity(self):
        rng = make_rng(20)
        for _ in range(30):
            inst = bl.make_instance(c=float(rng.uniform(-0.9, 0.9)), seed=21)
            alpha, beta = rng.standard_normal(2)
            u = bl.vector_from_coords(inst, alpha, beta)
            tau, nu = bl.eigen_coords(alpha, beta)
            assert bl.energy(inst, tau, nu) == pytest.approx(float(u @ u), abs=1e-12)


class TestAltStep:
    def test_top_eigendirection_converges_immediately(self):
        inst = bl.make_instance(c=0.5, seed=22)
        u0 = inst.a + inst.b  # z0 along w_plus
        v, u1 = bl.alt_step(u0, inst)
        assert bl.loss(u0, v, inst) == pytest.approx(inst.optimal_loss, abs=1e-12)
        v1, _ = bl.alt_step(u1, inst)
        assert bl.loss(u1, v1, inst) == pytest.approx(inst.optimal_loss, abs=1e-12)

    def test_minus_ray_is_invariant(self):
        inst = bl.make_instance(c=0.5, seed=23)
        u = inst.a - inst.b
        for _ in range(5):
            v, u = bl.alt_step(u, inst)
            alpha, beta = bl.coords_of(inst, u)
            tau, _ = bl.eigen_coords(alpha, beta)
            assert abs(tau) < 1e-12

    def test_degenerate_iterate_rejected(self):
        inst = bl.make_instance(c=0.5, seed=24)
        with pytest.raises(ValueError, match="degenerate iterate"):
            bl.alt_step(np.zeros(inst.d), inst)

    def test_direction_matches_power_iteration(self):
        inst = bl.make_instance(c=0.5, seed=25)
        z = np.array([0.9, 0.1])
        u = bl.vector_from_coords(inst, z[0], z[1])
        m2 = inst.m @ inst.m
        w_plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        for step in range(30):
            _, u = bl.alt_step(u, inst)
            z = m2 @ z
            z = z / np.linalg.norm(z)
        alpha, beta = bl.coords_of(inst, u)
        zu = np.array([alpha, beta])
        zu = zu / np.linalg.norm(zu)
        # both land on w_plus up to positive scaling
        assert np.linalg.norm(zu - w_plus) < 1e-8
        assert np.linalg.norm(z - w_plus) < 1e-8

    def test_coordinate_law_20_instances(self):
        for seed in range(20):
            rng = make_rng(600 + seed)
            c = float(rng.uniform(0.05, 0.95))
            inst = bl.make_instance(c=c, seed=seed)
            alpha, beta = rng.uniform(0.2, 1.0, size=2)
            u = bl.vector_from_coords(inst, alpha, beta)
            m2 = inst.m @ inst.m
            for _ in range(50):
                z = np.array(bl.coords_of(inst, u))
                v, u_next = bl.alt_step(u, inst)
                z_next = np.array(bl.coords_of(inst, u_next))
                lhs = z_next * float(u @ u) * float(v @ v)
                assert np.linalg.norm(lhs - m2 @ z) < 1e-10
                u = u_next

    def test_loss_monotone_non_increasing(self):
        rng = make_rng(26)
        for seed in range(10):
            inst = bl.make_instance(c=float(rng.uniform(0.05, 0.95)), seed=700 + seed)
            trace = bl.run_experiment(inst, init="generic", method="alternating",
                                      steps=60, stop_tol=None)
            assert np.all(np.diff(trace.loss) <= 1e-12)


class TestRunExperiment:
    def test_alternating_generic_reaches_optimum(self):
        inst = bl.make_instance(c=0.5, seed=27)
        trace = bl.run_experiment(inst, init="generic", method="alternating",
                                  steps=50, stop_tol=None)
        assert trace.classification == "optimal"
        assert trace.final_loss == pytest.approx(0.125, abs=1e-8)

    def test_gd_antisym_reaches_spurious_point(self):
        inst = bl.make_instance(c=0.5, seed=28)
        trace = bl.run_experiment(inst, init="antisym", method="gd",
                                  steps=100_000, eta=0.01, stop_tol=None)
        assert trace.classification == "suboptimal"
        assert trace.final_loss == pytest.approx(1.125, abs=1e-6)
        assert abs(trace.norm_u[-1] ** 2 - 0.5) < 1e-5

    def test_orthogonal_target_reported_degenerate(self):
        inst = bl.make_instance(c=0.0, seed=29)
        trace = bl.run_experiment(inst, init="generic", method="alternating", steps=50)
        assert trace.classification == "degenerate"
        assert trace.final_loss == pytest.approx(0.5, abs=1e-8)

    def test_zero_steps_single_row(self):
        inst = bl.make_instance(c=0.5, seed=30)
        for method in ("gd", "gd_vector", "alternating"):
            trace = bl.run_experiment(inst, init="generic", method=method, steps=0)
            assert trace.step.tolist() == [0]

    def test_divergence_flagged_not_raised(self):
        inst = bl.make_instance(c=0.5, seed=31)
        trace = bl.run_experiment(inst, init="generic", method="gd", steps=5000,
                                  eta=2.5, stop_tol=None)
        assert trace.diverged
        assert trace.classification == "diverged"

    def test_strict_separation_across_alignments(self):
        for c in (0.1, 0.3, 0.5, 0.7, 0.9):
            inst = bl.make_instance(c=c, seed=32)
            gd = bl.run_experiment(inst, init="antisym", method="gd",
                                   steps=100_000, eta=0.01, stop_tol=None)
            alt = bl.run_experiment(inst, init="generic", method="alternating",
                                    steps=200, stop_tol=None)
            assert gd.final_loss == pytest.approx(inst.suboptimal_loss, rel=1e-4)
            assert alt.final_loss == pytest.approx(inst.optimal_loss, abs=1e-8)
            assert alt.final_loss < gd.final_loss

    def test_vector_gd_agrees_with_coordinate_gd_over_50_steps(self):
        for seed in range(20):
            rng = make_rng(800 + seed)
            c = float(rng.uniform(0.05, 0.95))
            inst = bl.make_instance(c=c, seed=seed)
            init = (float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5)))
            a = bl.run_experiment(inst, init=init, method="gd", steps=50, stop_tol=None)
            b = bl.run_experiment(inst, init=init, method="gd_vector", steps=50,
                                  stop_tol=None)
            assert a.step.size == b.step.size == 51
            for col in ("alpha", "beta", "tau", "nu", "norm_u", "norm_v", "loss"):
                np.testing.assert_allclose(getattr(a, col), getattr(b, col),
                                           atol=1e-10)

    def test_gd_trace_is_the_public_recurrence_bit_for_bit(self):
        # run_experiment inlines energy / gd_coord_step on plain floats and
        # builds the columns as arrays; 10k steps cross two block edges
        for c, init, eta in ((0.4, "antisym", 0.01), (-0.3, "generic", 0.3),
                             (0.8, (3.0, -2.0), 0.05)):
            inst = bl.make_instance(c=c, seed=37)
            trace = bl.run_experiment(inst, init=init, method="gd", steps=10_000, eta=eta,
                                      stop_tol=None)
            tau, nu = bl.eigen_coords(*bl.resolve_init(init))
            rows = []
            for _ in range(10_001):
                usq = bl.energy(inst, tau, nu)
                rows.append((*bl.coords_from_eigen(tau, nu), tau, nu, np.sqrt(usq),
                             np.sqrt(usq), bl.loss_from_coords(inst, tau, nu)))
                tau, nu = bl.gd_coord_step(tau, nu, usq, inst, eta)
            ref = np.array(rows).T
            for k, col in enumerate(("alpha", "beta", "tau", "nu", "norm_u", "norm_v",
                                     "loss")):
                assert np.array_equal(getattr(trace, col), ref[k]), (c, col)

    def test_raw_vector_iteration_escapes_spurious_point(self):
        # the spurious point repels tau; float rounding ejects a raw-vector
        # run eventually, which is why long-run gd uses coordinates
        inst = bl.make_instance(c=0.9, seed=33)
        trace = bl.run_experiment(inst, init="antisym", method="gd_vector",
                                  steps=20_000, eta=0.01, stop_tol=None)
        assert trace.final_loss == pytest.approx(inst.optimal_loss, rel=1e-3)

    def test_early_stop_records_step(self):
        inst = bl.make_instance(c=0.5, seed=34)
        trace = bl.run_experiment(inst, init="generic", method="alternating",
                                  steps=5000, stop_tol=1e-12, stop_window=10)
        assert trace.steps_to_converge is not None
        assert trace.steps_to_converge < 200

    @pytest.mark.parametrize("window", [0, -1, -100])
    def test_stop_window_below_one_rejected(self, window):
        # a zero window compares a row's loss with itself, a negative one
        # indexes past the recorded rows
        inst = bl.make_instance(c=0.5, seed=36)
        with pytest.raises(ValueError, match="stop_window"):
            bl.run_experiment(inst, method="alternating", steps=5, stop_window=window)

    def test_unknown_method_and_init_rejected(self):
        inst = bl.make_instance(c=0.5, seed=35)
        with pytest.raises(ValueError):
            bl.run_experiment(inst, method="newton")
        with pytest.raises(ValueError):
            bl.run_experiment(inst, init="sideways")


class TestTraceOutput:
    def test_csv_schema(self):
        inst = bl.make_instance(c=0.5, seed=36)
        trace = bl.run_experiment(inst, init="generic", method="alternating", steps=3)
        lines = trace.to_csv().strip().split("\n")
        assert lines[0] == "step,alpha,beta,tau,nu,norm_u,norm_v,loss"
        assert len(lines) == trace.step.size + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert len(first) == 8

    def test_summary_keys(self):
        inst = bl.make_instance(c=0.5, seed=37)
        trace = bl.run_experiment(inst, init="generic", method="alternating", steps=3)
        s = trace.summary()
        assert set(s) == {"c", "eta", "method", "init", "classification",
                          "final_loss", "steps_to_converge"}
