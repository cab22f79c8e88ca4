import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lqrnewton

from lqrnewton import validate
from lqrnewton import (Gain, LqrProblem, jacobian_vecP, lambda_term, lqr,
                       make_pendulum, initial_gain, optimal_gain, performance,
                       policy_gradient, solve_sigma)
from lqrnewton.errors import NotStabilizing, PerturbationLeftStabilizingSet
from lqrnewton.oracles import (discounted_moment_series, fd_gradient,
                               fd_hessian, fd_hvp, lambda_via_Mi, monte_carlo_J,
                               scalar_reference)

from conftest import (DP_05, GRAD_05, HEXACT_05, HGN_05, LAM_05, P_05,
                      SIGMA_05, count_calls, make_instances, rel_err, scalar_problem)


@pytest.fixture(scope="module")
def instances6():
    return make_instances(6)


class TestScalarReference:
    def test_frozen_fixture_values(self):
        ref = scalar_reference(1.0, 1.0, 0.5, 0.5, 0.9, 1.0, 0.0, 0.5)
        assert ref.sigma == pytest.approx(SIGMA_05, abs=1e-15)
        assert ref.p == pytest.approx(P_05, abs=1e-15)
        assert ref.dp_dtheta == pytest.approx(DP_05, abs=1e-15)
        assert ref.grad == pytest.approx(GRAD_05, abs=1e-15)
        assert ref.h_gn == pytest.approx(HGN_05, abs=1e-15)
        assert ref.lam == pytest.approx(LAM_05, abs=1e-15)
        assert ref.hess_exact == pytest.approx(HEXACT_05, abs=1e-15)

    def test_assembly_identity(self):
        for theta in np.linspace(0.0, 2.0, 9):
            ref = scalar_reference(1.0, 1.0, 0.5, 0.5, 0.9, 1.0, 0.3, theta)
            assert ref.hess_exact == pytest.approx(ref.h_gn + 0.9 * ref.lam, abs=1e-14)

    def test_optimum_identities(self, scalar_prob):
        k, _ = optimal_gain(scalar_prob, tol=1e-13)
        ref = scalar_reference(1.0, 1.0, 0.5, 0.5, 0.9, 1.0, 0.0, k.K[0, 0])
        assert abs(ref.grad) <= 1e-10
        assert abs(ref.lam) <= 1e-9
        assert ref.hess_exact == pytest.approx(ref.h_gn, rel=1e-9)

    def test_gradient_equals_value_slope_without_noise(self):
        # with unit initial variance and no process noise, dJ/dtheta = dP/dtheta
        for theta in np.linspace(0.1, 1.9, 7):
            ref = scalar_reference(1.0, 1.0, 0.5, 0.5, 0.9, 1.0, 0.0, theta)
            assert ref.grad == pytest.approx(ref.dp_dtheta, abs=1e-14)

    def test_rejects_unstable_theta(self):
        with pytest.raises(NotStabilizing):
            scalar_reference(1.0, 1.0, 0.5, 0.5, 0.9, 1.0, 0.0, -2.0)


class TestFiniteDifferences:
    def test_matches_scalar_reference(self, scalar_prob, scalar_gain):
        fd = fd_gradient(scalar_prob, scalar_gain)
        assert fd[0] == pytest.approx(GRAD_05, abs=1e-7)

    def test_step_sweep_has_plateau(self, scalar_prob, scalar_gain):
        errs = []
        for h in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
            fd = fd_gradient(scalar_prob, scalar_gain, h=h)
            errs.append(abs(fd[0] - GRAD_05))
        # central differences: error shrinks then flattens near round-off
        assert min(errs) <= 1e-9
        assert max(errs) <= 1e-4

    def test_small_gradient_at_optimum(self, scalar_prob):
        k, _ = optimal_gain(scalar_prob)
        assert np.linalg.norm(fd_gradient(scalar_prob, k)) <= 1e-6

    def test_probe_outside_stabilizing_set(self):
        prob = scalar_problem()
        # margin thinner than the finite-difference step
        theta_edge = 1.0 + (1.0 - 1e-9) / np.sqrt(0.9)
        gain = Gain([[theta_edge]])
        with pytest.raises(PerturbationLeftStabilizingSet):
            fd_gradient(prob, gain, h=1e-6)
        with pytest.raises(PerturbationLeftStabilizingSet):
            fd_hvp(prob, gain, np.array([1.0]), h=1e-6)

    def test_hessian_matches_scalar_reference(self, scalar_prob, scalar_gain):
        fd = fd_hessian(scalar_prob, scalar_gain)
        assert fd[0, 0] == pytest.approx(HEXACT_05, rel=1e-5)


class TestMomentSeries:
    def test_zero_closed_loop_collapses(self):
        p = LqrProblem(A=np.eye(2), B=np.eye(2), Q=np.eye(2), R=np.eye(2),
                       gamma=0.9, Sigma_w=0.1 * np.eye(2), Sigma_0=np.eye(2))
        series = discounted_moment_series(p, Gain(np.eye(2)))
        np.testing.assert_allclose(series, p.Sigma_0 + 9.0 * p.Sigma_w, rtol=1e-12)

    def test_scalar_geometric_sum(self, scalar_prob, scalar_gain):
        series = discounted_moment_series(scalar_prob, scalar_gain)
        assert series[0, 0] == pytest.approx(SIGMA_05, rel=1e-13)

    def test_agrees_with_solver(self, instances6):
        for prob, gain in instances6:
            series = discounted_moment_series(prob, gain)
            solved = solve_sigma(prob, gain)
            assert rel_err(solved, series) <= 1e-8

    def test_rejects_unstable_gain(self, scalar_prob):
        with pytest.raises(NotStabilizing):
            discounted_moment_series(scalar_prob, Gain([[-9.0]]))


class TestLambdaViaMi:
    def test_agrees_with_direct_form(self, instances6):
        for prob, gain in instances6:
            direct = lambda_term(prob, gain, jacobian_vecP(prob, gain))
            columnwise = lambda_via_Mi(prob, gain)
            assert rel_err(columnwise, direct) <= 1e-10

    def test_zero_without_actuation(self):
        p = LqrProblem(A=np.diag([0.4, 0.1]), B=np.zeros((2, 1)), Q=np.eye(2),
                       R=[[1.0]], gamma=0.9, Sigma_w=0.1 * np.eye(2),
                       Sigma_0=np.eye(2))
        lam = lambda_via_Mi(p, Gain(np.zeros((1, 2))))
        np.testing.assert_allclose(lam, 0.0, atol=1e-14)

    def test_zero_at_optimum(self, scalar_prob):
        k, _ = optimal_gain(scalar_prob)
        assert np.linalg.norm(lambda_via_Mi(scalar_prob, k)) <= 1e-8


class TestMonteCarlo:
    def test_zero_covariances_give_exact_zero(self):
        p = LqrProblem(A=0.5 * np.eye(2), B=np.eye(2), Q=np.eye(2), R=np.eye(2),
                       gamma=0.9, Sigma_w=np.zeros((2, 2)), Sigma_0=np.zeros((2, 2)))
        est = monte_carlo_J(p, Gain.zero(p), samples=100, seed=0)
        assert est.mean == 0.0
        assert est.std_error == 0.0

    def test_pendulum_within_three_sigma(self):
        prob = make_pendulum()
        gain = initial_gain(prob)
        est = monte_carlo_J(prob, gain, samples=4000, seed=0)
        exact = performance(prob, gain)
        assert abs(est.mean - exact) <= 3.0 * est.std_error
        assert est.std_error > 0
        assert est.horizon >= 1

    def test_deterministic_rollouts_without_noise(self, scalar_gain):
        # no process noise: every rollout value is exactly P * s0^2
        prob = scalar_problem(sigma_sq=0.0)
        est = monte_carlo_J(prob, scalar_gain, samples=4000, seed=3)
        assert abs(est.mean - P_05) <= 3.0 * est.std_error

    @pytest.mark.parametrize("model", ["gaussian", "truncated_gaussian", "uniform_box"])
    def test_noise_models_consistent(self, model):
        rng = np.random.default_rng(0)
        A = np.array([[0.6, 0.2], [0.0, 0.5]])
        p = LqrProblem(A=A, B=np.eye(2), Q=np.eye(2), R=np.eye(2), gamma=0.9,
                       Sigma_w=np.array([[0.3, 0.1], [0.1, 0.2]]),
                       Sigma_0=0.5 * np.eye(2))
        g = Gain(0.1 * np.eye(2))
        est = monte_carlo_J(p, g, noise_model=model, samples=6000, seed=7)
        exact = performance(p, g)
        assert abs(est.mean - exact) <= 3.0 * est.std_error

    def test_noise_covariance_matches(self):
        # empirical second moment of each bundled law matches Sigma_w
        from lqrnewton.oracles import _unit_variance_noise
        rng_shape = (200_000, 2)
        for model in ("gaussian", "truncated_gaussian", "uniform_box"):
            z = _unit_variance_noise(np.random.default_rng(11), model, rng_shape)
            cov = z.T @ z / rng_shape[0]
            np.testing.assert_allclose(cov, np.eye(2), atol=2e-2)
            np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-2)

    def test_deterministic_given_seed(self, scalar_prob, scalar_gain):
        a = monte_carlo_J(scalar_prob, scalar_gain, samples=500, seed=42)
        b = monte_carlo_J(scalar_prob, scalar_gain, samples=500, seed=42)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_unknown_model_rejected(self, scalar_prob, scalar_gain):
        with pytest.raises(ValueError):
            monte_carlo_J(scalar_prob, scalar_gain, noise_model="cauchy", samples=10)
        with pytest.raises(ValueError, match="at least 2 samples"):
            monte_carlo_J(scalar_prob, scalar_gain, samples=1)

    def test_rejects_unstable_gain(self, scalar_prob):
        with pytest.raises(NotStabilizing):
            monte_carlo_J(scalar_prob, Gain([[-9.0]]), samples=10)


class TestRiccatiCheck:
    def test_passes_and_catches_a_gain_off_in_its_tenth_digit(self, monkeypatch):
        assert validate.check_riccati().passed

        def off(prob, **kw):
            k_star, value = optimal_gain(prob, **kw)
            return Gain(k_star.K * (1.0 + 1e-10)), value

        monkeypatch.setattr(validate, "optimal_gain", off)
        assert not validate.check_riccati().passed


@pytest.mark.parametrize("seed, draws", [(0, 1), (50, 2)])
def test_random_instance_redraws_a_gain_that_misses_its_bounds(monkeypatch, seed, draws):
    calls = count_calls(monkeypatch, validate, "is_gamma_stabilizing")
    prob, gain = validate.random_stabilizing_instance(seed)
    assert len(calls) == draws
    ok, margin = lqr.is_gamma_stabilizing(prob, gain)
    assert ok and margin > 0.05
    assert np.linalg.norm(policy_gradient(prob, gain)) >= 1e-2


def test_import_does_not_load_scipy_special():
    # scipy.special is only needed by the truncated-Gaussian noise law
    src = str(Path(lqrnewton.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, lqrnewton; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "False"
