import numpy as np
import pytest

from lqrnewton import lqr
from lqrnewton import (CurvatureReport, Gain, OptimizerConfig, backtracking_search,
                       exact_hessian, initial_gain, is_gamma_stabilizing,
                       make_pendulum, optimal_gain, performance, policy_gradient,
                       run, search_direction)
from lqrnewton.errors import DirectionError, LineSearchFailure, SeedNotStabilizing

from conftest import GRAD_05, HEXACT_05, count_calls, make_instances


@pytest.fixture(scope="module")
def pendulum():
    prob = make_pendulum()
    k_star, _ = optimal_gain(prob, tol=1e-12)
    seed = initial_gain(prob)
    return prob, k_star, seed


class TestSearchDirection:
    def test_zero_gradient_gives_zero_direction(self):
        rep = CurvatureReport(grad=np.zeros(3), S=np.zeros((1, 3)),
                              H_gn=np.eye(3), H_exact=np.eye(3))
        for method in ("first_order", "gauss_newton", "newton"):
            np.testing.assert_array_equal(search_direction(method, rep), np.zeros(3))

    def test_first_order_is_negative_gradient(self):
        g = np.array([1.0, -2.0])
        rep = CurvatureReport(grad=g, S=None)
        np.testing.assert_array_equal(search_direction("first_order", rep), -g)

    def test_scaled_identity_preconditioner(self):
        g = np.array([4.0, -6.0])
        rep = CurvatureReport(grad=g, S=None, H_gn=2.0 * np.eye(2))
        np.testing.assert_allclose(search_direction("gauss_newton", rep), -g / 2.0)

    def test_scalar_newton_step(self, scalar_prob, scalar_gain):
        rep = exact_hessian(scalar_prob, scalar_gain)
        d = search_direction("newton", rep)
        assert d[0] == pytest.approx(-GRAD_05 / HEXACT_05, rel=1e-12)
        assert d[0] == pytest.approx(0.07587412587412587, rel=1e-10)

    def test_indefinite_hessian_gets_shifted(self):
        rep = CurvatureReport(grad=np.array([1.0]), S=None,
                              H_exact=np.array([[-1.0]]))
        d = search_direction("newton", rep, damping=1e-8)
        assert d[0] < 0  # still a descent direction after the shift

    def test_direction_error_when_shift_exhausted(self):
        rep = CurvatureReport(grad=np.array([1.0]), S=None,
                              H_exact=np.array([[-1e12]]))
        with pytest.raises(DirectionError):
            search_direction("newton", rep, damping=1e-8)

    def test_gauss_newton_requires_pd(self):
        rep = CurvatureReport(grad=np.array([1.0]), S=None,
                              H_gn=np.array([[-1.0]]))
        with pytest.raises(DirectionError):
            search_direction("gauss_newton", rep)

    def test_missing_field_is_an_error(self):
        rep = CurvatureReport(grad=np.array([1.0]), S=None)
        with pytest.raises(ValueError):
            search_direction("gauss_newton", rep)


class TestBacktracking:
    def test_easy_descent_takes_full_step(self, scalar_prob, scalar_gain):
        cfg = OptimizerConfig(method="newton", alpha=1.0)
        rep = exact_hessian(scalar_prob, scalar_gain)
        d = search_direction("newton", rep)
        J0 = performance(scalar_prob, scalar_gain)
        alpha, new_gain = backtracking_search(scalar_prob, scalar_gain, d, J0,
                                              rep.grad, cfg)
        assert alpha == 1.0
        assert performance(scalar_prob, new_gain) < J0

    def test_shrinks_until_stabilizing(self, scalar_prob, scalar_gain):
        # descent direction scaled so the full step exits the stabilizing set
        grad = policy_gradient(scalar_prob, scalar_gain)
        d = np.array([100.0])  # d * grad < 0 since grad < 0
        assert float(d @ grad) < 0
        J0 = performance(scalar_prob, scalar_gain)
        cfg = OptimizerConfig(method="first_order", alpha=1.0)
        alpha, new_gain = backtracking_search(scalar_prob, scalar_gain, d, J0,
                                              grad, cfg)
        assert alpha < 1.0
        ok, _ = is_gamma_stabilizing(scalar_prob, new_gain)
        assert ok
        assert performance(scalar_prob, new_gain) <= J0

    def test_zero_direction_returns_input(self, scalar_prob, scalar_gain):
        cfg = OptimizerConfig()
        J0 = performance(scalar_prob, scalar_gain)
        alpha, new_gain = backtracking_search(scalar_prob, scalar_gain,
                                              np.zeros(1), J0, np.zeros(1), cfg)
        assert alpha == cfg.alpha
        assert new_gain is scalar_gain

    def test_failure_after_budget(self, scalar_prob, scalar_gain):
        grad = policy_gradient(scalar_prob, scalar_gain)
        d = np.array([1000.0])
        J0 = performance(scalar_prob, scalar_gain)
        cfg = OptimizerConfig(max_backtracks=0)
        with pytest.raises(LineSearchFailure):
            backtracking_search(scalar_prob, scalar_gain, d, J0, grad, cfg)

    def test_ascent_direction_rejected(self, scalar_prob, scalar_gain):
        grad = policy_gradient(scalar_prob, scalar_gain)
        J0 = performance(scalar_prob, scalar_gain)
        cfg = OptimizerConfig()
        with pytest.raises(DirectionError):
            backtracking_search(scalar_prob, scalar_gain, grad.copy(), J0, grad, cfg)


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(method="bfgs")
        with pytest.raises(ValueError):
            OptimizerConfig(step_mode="exact")
        with pytest.raises(ValueError):
            OptimizerConfig(alpha=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(shrink=1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(c_armijo=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(grad_tol=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(newton_damping=-1.0)


class TestRun:
    def test_starts_and_stops_at_optimum(self, scalar_prob):
        k, _ = optimal_gain(scalar_prob)
        cfg = OptimizerConfig(method="newton", seed_gain=k, grad_tol=1e-8)
        rec = run(scalar_prob, cfg, k_star=k)
        assert rec.iterations <= 1
        assert rec.converged
        assert rec.steps[-1].grad_norm <= 1e-8

    def test_rows_equal_iterations_plus_one(self, scalar_prob, scalar_gain):
        cfg = OptimizerConfig(method="gauss_newton", seed_gain=scalar_gain,
                              grad_tol=1e-10, max_iter=50)
        rec = run(scalar_prob, cfg)
        assert len(rec.steps) == rec.iterations + 1
        assert len(rec.gains) == len(rec.steps)
        assert [s.k for s in rec.steps] == list(range(len(rec.steps)))

    def test_every_iterate_stabilizing(self, scalar_prob, scalar_gain):
        cfg = OptimizerConfig(method="first_order", seed_gain=scalar_gain,
                              grad_tol=1e-10, max_iter=40)
        rec = run(scalar_prob, cfg)
        assert np.all(rec.column("stabilizing_margin") > 0)

    def test_descent_invariant_backtracking(self, pendulum):
        prob, k_star, seed = pendulum
        for method in ("first_order", "gauss_newton", "newton"):
            cfg = OptimizerConfig(method=method, step_mode="backtracking",
                                  seed_gain=seed, grad_tol=1e-8, max_iter=30)
            rec = run(prob, cfg, k_star=k_star)
            J = rec.column("J")
            assert np.all(np.diff(J) <= 1e-9 * np.maximum(np.abs(J[:-1]), 1.0))

    def test_gn_fixed_half_step_monotone(self):
        for prob, gain in make_instances(3):
            cfg = OptimizerConfig(method="gauss_newton", step_mode="fixed",
                                  alpha=0.5, seed_gain=gain, grad_tol=1e-11,
                                  max_iter=200)
            rec = run(prob, cfg)
            J = rec.column("J")
            assert np.all(np.diff(J) <= 1e-9 * np.maximum(np.abs(J[:-1]), 1.0))

    def test_newton_local_quadratic_scalar(self, scalar_prob):
        k_star, _ = optimal_gain(scalar_prob, tol=1e-13)
        seed = Gain(k_star.K + 1e-3)
        cfg = OptimizerConfig(method="newton", step_mode="fixed", alpha=1.0,
                              seed_gain=seed, grad_tol=1e-14, max_iter=6)
        rec = run(scalar_prob, cfg, k_star=k_star)
        e = rec.column("gain_error")
        assert e[0] == pytest.approx(1e-3, rel=1e-6)
        assert e[1] <= 10.0 * e[0] ** 2    # error squares immediately
        assert e[2] <= 10.0 * e[1] ** 2
        assert e[-1] <= 1e-11

    def test_newton_beats_first_order_on_pendulum(self, pendulum):
        prob, k_star, seed = pendulum
        iters = {}
        for method in ("newton", "first_order"):
            cfg = OptimizerConfig(method=method, step_mode="backtracking",
                                  alpha=1.0, seed_gain=seed, grad_tol=1e-8,
                                  max_iter=60)
            rec = run(prob, cfg, k_star=k_star)
            iters[method] = rec.iterations if rec.converged else np.inf
        assert iters["newton"] < iters["first_order"]

    def test_seed_must_stabilize(self, scalar_prob):
        cfg = OptimizerConfig(seed_gain=Gain([[-9.0]]))
        with pytest.raises(SeedNotStabilizing):
            run(scalar_prob, cfg)

    def test_fixed_step_leaving_set_flags_run(self, pendulum):
        prob, k_star, seed = pendulum
        cfg = OptimizerConfig(method="first_order", step_mode="fixed",
                              alpha=0.125, seed_gain=seed, grad_tol=1e-8,
                              max_iter=50)
        rec = run(prob, cfg, k_star=k_star)
        assert rec.flag == "left_stabilizing_set"
        assert np.all(rec.column("stabilizing_margin") > 0)

    def test_line_search_failure_flags_run(self, pendulum):
        prob, k_star, seed = pendulum
        cfg = OptimizerConfig(method="first_order", step_mode="backtracking",
                              alpha=1.0, max_backtracks=0, seed_gain=seed,
                              grad_tol=1e-8, max_iter=10)
        rec = run(prob, cfg, k_star=k_star)
        assert rec.flag == "line_search_failure"
        assert rec.iterations == 0

    def test_zero_seed_default(self, scalar_prob):
        cfg = OptimizerConfig(method="newton", grad_tol=1e-9, max_iter=20)
        rec = run(scalar_prob, cfg)
        assert rec.converged
        np.testing.assert_allclose(rec.final_gain.K, rec.k_star.K, atol=1e-7)


class TestComputeOnce:
    def test_newton_evaluates_each_iterate_once(self, pendulum, monkeypatch):
        prob, k_star, seed = pendulum
        stein = count_calls(monkeypatch, lqr, "_stein_solve")
        eig = count_calls(monkeypatch, np.linalg, "eigvals")
        cfg = OptimizerConfig(method="newton", step_mode="fixed", alpha=1.0,
                              seed_gain=seed, grad_tol=1e-8, max_iter=40)
        rec = run(prob, cfg, k_star=k_star)
        assert rec.converged and len(rec.gains) > 2
        # one P and one Sigma per iterate; one eigenvalue solve per iterate,
        # which is its stability check and the Jacobian's conditioning estimate
        assert len(stein) == 2 * len(rec.gains)
        assert len(eig) == len(rec.gains)

    def test_backtracking_never_solves_a_gain_twice(self, pendulum, monkeypatch):
        prob, k_star, seed = pendulum
        stein = count_calls(monkeypatch, lqr, "_stein_solve")
        eig = count_calls(monkeypatch, np.linalg, "eigvals")
        cfg = OptimizerConfig(method="first_order", step_mode="backtracking",
                              seed_gain=seed, grad_tol=1e-8, max_iter=30)
        rec = run(prob, cfg, k_star=k_star)
        assert rec.iterations == 30 and rec.column("backtracks").sum() > 0
        keys = [(G.tobytes(), M.tobytes()) for G, M, _ in stein]
        assert len(keys) == len(set(keys))
        # the seed plus every line-search trial, each checked once
        trials = sum(s.backtracks + 1 for s in rec.steps if s.alpha_used > 0.0)
        assert len(eig) == 1 + trials
