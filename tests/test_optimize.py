from functools import partial

import numpy as np
import pytest
import scipy.linalg

from lqrnewton import lqr
from lqrnewton import (Evaluation, Gain, LqrProblem, OptimizerConfig,
                       backtracking_search, initial_gain, is_gamma_stabilizing,
                       make_pendulum, make_shear_building, optimal_gain,
                       performance, policy_gradient, run, search_direction)
from lqrnewton.errors import (DirectionError, LineSearchFailure, NoConvergence,
                              SeedNotStabilizing)
from lqrnewton.optimize import _backtrack, _damped_newton

from conftest import (GRAD_05, HEXACT_05, count_calls, make_instances, rel_err,
                      stack_slices)


@pytest.fixture(scope="module")
def pendulum():
    prob = make_pendulum()
    k_star, _ = optimal_gain(prob, tol=1e-12)
    seed = initial_gain(prob)
    return prob, k_star, seed


@pytest.fixture(scope="module")
def gn_cases():
    cases = make_instances(20)
    for prob in (make_pendulum(), make_shear_building(floors=3, seed=7)):
        cases.append((prob, initial_gain(prob)))
    return cases


class TestSearchDirection:
    def test_zero_gradient_gives_zero_direction(self):
        # B = 0 and K = 0 make S, and so grad, exactly zero
        prob = LqrProblem(A=np.diag([0.5, 0.2]), B=np.zeros((2, 1)), Q=np.eye(2),
                          R=[[1.0]], gamma=0.9, Sigma_w=0.1 * np.eye(2),
                          Sigma_0=np.eye(2))
        ev = Evaluation(prob, Gain.zero(prob))
        assert not np.any(ev.grad)
        for method in ("first_order", "gauss_newton", "newton"):
            np.testing.assert_array_equal(search_direction(method, ev), np.zeros(2))

    def test_first_order_is_negative_gradient(self, pendulum):
        prob, _, seed = pendulum
        ev = Evaluation(prob, seed)
        np.testing.assert_array_equal(search_direction("first_order", ev), -ev.grad)

    def test_scaled_identity_preconditioner(self):
        # Acl = A - B K = 0 gives Sigma = 1.9 I and P = 1.25 I, so
        # H_gn = 2 * 1.9 * (1 + 0.9 * 1.25) I
        prob = LqrProblem(A=0.5 * np.eye(2), B=np.eye(2), Q=np.eye(2), R=np.eye(2),
                          gamma=0.9, Sigma_w=0.1 * np.eye(2), Sigma_0=np.eye(2))
        ev = Evaluation(prob, Gain(0.5 * np.eye(2)))
        c = 2.0 * 1.9 * 2.125
        np.testing.assert_allclose(ev.H_gn, c * np.eye(4), rtol=1e-14)
        np.testing.assert_allclose(search_direction("gauss_newton", ev), -ev.grad / c,
                                   rtol=1e-14)

    @pytest.mark.parametrize("case", range(22))
    def test_gauss_newton_equals_the_cholesky_solve(self, gn_cases, case):
        # -vec(E^-1 S) against -H_gn^-1 grad on make_instances(20), the
        # pendulum and a 3-floor building
        prob, gain = gn_cases[case]
        ev = Evaluation(prob, gain)
        want = -scipy.linalg.cho_solve(scipy.linalg.cho_factor(ev.H_gn), ev.grad)
        assert rel_err(search_direction("gauss_newton", ev), want) <= 1e-12

    def test_scalar_newton_step(self, scalar_prob, scalar_gain):
        d = search_direction("newton", Evaluation(scalar_prob, scalar_gain))
        assert d[0] == pytest.approx(-GRAD_05 / HEXACT_05, rel=1e-12)
        assert d[0] == pytest.approx(0.07587412587412587, rel=1e-10)

    def test_indefinite_hessian_gets_shifted(self):
        d = _damped_newton(np.array([[-1.0]]), np.array([1.0]), damping=1e-8)
        assert d[0] < 0  # still a descent direction after the shift

    def test_direction_error_when_shift_exhausted(self):
        with pytest.raises(DirectionError):
            _damped_newton(np.array([[-1e12]]), np.array([1.0]), damping=1e-8)

    def test_gauss_newton_on_singular_sigma(self):
        # the second state starts at zero and is never driven, so Sigma and
        # H_gn = 2 Sigma (x) E are singular; Hewer's step needs only E
        prob = LqrProblem(A=np.diag([0.5, 0.8]), B=[[1.0], [0.0]], Q=np.eye(2),
                          R=[[1.0]], gamma=0.9, Sigma_w=np.zeros((2, 2)),
                          Sigma_0=np.diag([1.0, 0.0]))
        gain = Gain([[0.1, 0.2]])
        ev = Evaluation(prob, gain)
        assert ev.Sigma[1, 1] == 0.0
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.cho_factor(ev.H_gn)
        d = search_direction("gauss_newton", ev)
        assert float(d @ ev.grad) == pytest.approx(-0.1195, abs=1e-4)
        cfg = OptimizerConfig(method="gauss_newton", step_mode="fixed", alpha=1.0,
                              seed_gain=gain, grad_tol=1e-14, max_iter=20)
        rec = run(prob, cfg)
        assert rec.converged and rec.iterations == 4
        assert rec.steps[-1].gain_error <= 1e-12


class TestBacktracking:
    def test_easy_descent_takes_full_step(self, scalar_prob, scalar_gain):
        cfg = OptimizerConfig(method="newton", alpha=1.0)
        ev = Evaluation(scalar_prob, scalar_gain)
        d = search_direction("newton", ev)
        J0 = performance(scalar_prob, scalar_gain)
        alpha, new_gain = backtracking_search(scalar_prob, scalar_gain, d, J0,
                                              ev.grad, cfg)
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
        for bad in ({"alpha": np.inf}, {"alpha": np.nan}, {"max_iter": 2.5},
                    {"max_iter": True}, {"max_backtracks": -1}, {"max_backtracks": "x"},
                    {"newton_damping": np.inf}, {"newton_damping": np.nan}):
            with pytest.raises(ValueError):
                OptimizerConfig(**bad)


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
        keys = [(g.tobytes(), m.tobytes())
                for G, M, _ in stein for g, m in stack_slices(G, M)]
        assert len(keys) == len(set(keys))
        # the seed and every line-search trial, each checked once, plus the
        # trials a search computes past its accepted one: its first block
        # holds as many trials as the previous search rejected
        depths = [s.backtracks for s in rec.steps if s.alpha_used > 0.0]
        trials = sum(b + 1 for b in depths)
        speculative = sum(max(0, prev - 1 - b) for prev, b in zip([0] + depths, depths))
        assert sum(len(stack_slices(a)) for a, in eig) == 1 + trials + speculative
        # a trial-by-trial search makes one eigenvalue call per trial
        assert len(eig) < 1 + trials


def _sequential_backtrack(prob, gain, direction, J0, grad, cfg):
    """Reference line search: one Evaluation per trial, in order."""
    slope = float(grad @ direction)
    alpha = cfg.alpha
    for j in range(cfg.max_backtracks + 1):
        trial = Evaluation(prob, Gain.from_theta(gain.theta + alpha * direction,
                                                 prob.m, prob.n))
        if trial.stabilizing and trial.J <= J0 + cfg.c_armijo * alpha * slope:
            return alpha, trial, j
        alpha *= cfg.shrink
    raise LineSearchFailure("reference search exhausted")


def _search_start(prob, method):
    ev = Evaluation(prob, initial_gain(prob))
    return ev, search_direction(method, ev)


class TestLadder:
    """The stacked line search accepts the trial a trial-by-trial search
    accepts, with the same bits, whatever the depth hint."""

    CASES = [("pendulum", "first_order"), ("building", "first_order"),
             ("building", "newton")]

    @pytest.fixture(scope="class")
    def plants(self):
        return {"pendulum": make_pendulum(),
                "building": make_shear_building(floors=3, seed=7)}

    @staticmethod
    def assert_same(got, want):
        (a, ev, b), (a_ref, ev_ref, b_ref) = got, want
        assert type(a) is float and a == a_ref and b == b_ref
        assert ev.gain.K.tobytes() == ev_ref.gain.K.tobytes()
        assert ev.J == ev_ref.J and ev.margin == ev_ref.margin
        np.testing.assert_array_equal(ev.P, ev_ref.P)
        np.testing.assert_array_equal(ev.Sigma, ev_ref.Sigma)

    @pytest.mark.parametrize("plant, method", CASES)
    @pytest.mark.parametrize("hint", [0, 1, 3, 60])
    def test_matches_trial_by_trial_search(self, plants, plant, method, hint):
        prob = plants[plant]
        ev, d = _search_start(prob, method)
        cfg = OptimizerConfig(method=method, alpha=1.0)
        want = _sequential_backtrack(prob, ev.gain, d, ev.J, ev.grad, cfg)
        if plant == "pendulum":
            # the full first-order step leaves the stabilizing set
            assert want[2] >= 3
            assert not Evaluation(prob, Gain.from_theta(ev.gain.theta + d, 1, 2)).stabilizing
        got = _backtrack(prob, ev.gain, d, ev.J, ev.grad, cfg, depth_hint=hint)
        self.assert_same(got, want)

    @pytest.mark.parametrize("hint", [0, 1, 3, 60])
    def test_budget_and_failure(self, plants, hint):
        prob = plants["pendulum"]
        ev, d = _search_start(prob, "first_order")
        args = (prob, ev.gain, d, ev.J, ev.grad)
        alpha, _, depth = _sequential_backtrack(*args, OptimizerConfig(alpha=1.0))
        for cfg in (OptimizerConfig(alpha=1.0, max_backtracks=depth),
                    OptimizerConfig(alpha=alpha, max_backtracks=0)):
            self.assert_same(_backtrack(*args, cfg, depth_hint=hint),
                             _sequential_backtrack(*args, cfg))
        for max_backtracks in (0, depth - 1):
            cfg = OptimizerConfig(alpha=1.0, max_backtracks=max_backtracks)
            with pytest.raises(LineSearchFailure):
                _backtrack(*args, cfg, depth_hint=hint)

    @pytest.mark.parametrize("floors, stacked", [(4, True), (5, False)])
    def test_first_block_is_one_trial_above_the_block_dimension(self, monkeypatch,
                                                                floors, stacked):
        # n = 8 stacks the hinted trials; n = 10 evaluates the trials it needs
        prob = make_shear_building(floors=floors, seed=7)
        ev, d = _search_start(prob, "newton")
        cfg = OptimizerConfig(alpha=1.0)
        want = _sequential_backtrack(prob, ev.gain, d, ev.J, ev.grad, cfg)
        hint = want[2] + 3
        eig = count_calls(monkeypatch, np.linalg, "eigvals")
        got = _backtrack(prob, ev.gain, d, ev.J, ev.grad, cfg, depth_hint=hint)
        self.assert_same(got, want)
        slices = sum(len(stack_slices(a)) for a, in eig)
        assert slices == (hint if stacked else want[2] + 1)

    def test_a_block_that_raises_is_searched_trial_by_trial(self, plants, monkeypatch):
        prob = plants["pendulum"]
        ev, d = _search_start(prob, "first_order")
        cfg = OptimizerConfig(alpha=1.0)
        want = _sequential_backtrack(prob, ev.gain, d, ev.J, ev.grad, cfg)
        solve = lqr._stein_solve

        def single_slices_only(G, M, gamma):
            if G.ndim == 3 and len(G) > 1:
                raise NoConvergence("stacked solve refused")
            return solve(G, M, gamma)

        monkeypatch.setattr(lqr, "_stein_solve", single_slices_only)
        self.assert_same(_backtrack(prob, ev.gain, d, ev.J, ev.grad, cfg, depth_hint=60),
                         want)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_trial_gain_raises(self, plants):
        prob = plants["pendulum"]
        ev, d = _search_start(prob, "first_order")
        cfg = OptimizerConfig(alpha=1e308)
        assert not np.isfinite(ev.gain.theta + cfg.alpha * d).all()
        for search in (_sequential_backtrack, partial(_backtrack, depth_hint=3)):
            with pytest.raises(ValueError, match="non-finite"):
                search(prob, ev.gain, d, ev.J, ev.grad, cfg)
