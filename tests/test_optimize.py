from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from lqrnewton import derivatives, lqr, optimize
from lqrnewton import (Evaluation, Gain, LqrProblem, OptimizerConfig,
                       initial_gain, is_gamma_stabilizing,
                       make_pendulum, make_shear_building, optimal_gain,
                       performance, policy_gradient, run, search_direction,
                       solve_sigma, solve_value)
from lqrnewton.errors import (DirectionError, NoConvergence, NotStabilizing,
                              SeedNotStabilizing)
from lqrnewton.linalg import vec
from lqrnewton.optimize import _initial_step, _step

from conftest import (GRAD_05, HEXACT_05, count_calls, make_instances,
                      multi_actuator_building, rel_err, stack_slices)


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

    def test_an_ascent_direction_is_refused(self, pendulum, monkeypatch):
        prob, _, seed = pendulum
        monkeypatch.setattr(optimize, "_newton_cg", lambda ev: ev.grad)
        with pytest.raises(DirectionError, match="not a descent direction"):
            search_direction("newton", Evaluation(prob, seed))
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            search_direction("bogus", Evaluation(prob, seed))

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


class TestNewtonCG:
    def test_reaches_the_tolerance_from_an_indefinite_start(self):
        # one actuator per floor, 6 floors: m*n = 72, and the exact Hessian
        # at the starting gain has a negative eigenvalue
        prob = multi_actuator_building(6)
        seed = initial_gain(prob, r_inflation=2.0)
        ev = Evaluation(prob, seed)
        assert np.linalg.eigvalsh(ev.H_exact)[0] == pytest.approx(-3.98e-2, abs=1e-4)
        cfg = OptimizerConfig(method="newton", seed_gain=seed, grad_tol=1e-8, max_iter=40)
        rec = run(prob, cfg)
        assert rec.converged and rec.flag is None and rec.iterations <= 20
        # Armijo compares costs near J = 1.2e4, so below ||grad|| ~ 1e-8 it
        # decides on round-off; full steps from there show the rate
        cfg = OptimizerConfig(method="newton", step_mode="fixed", alpha=1.0,
                              seed_gain=rec.final_gain, grad_tol=1e-10, max_iter=2)
        rec = run(prob, cfg, k_star=rec.k_star)
        assert rec.converged and rec.flag is None
        assert rec.steps[-1].gain_error <= 1e-9 * np.linalg.norm(rec.k_star.K)

    @pytest.mark.parametrize("plant, r_inflation", [
        *[((floors, seed), 2.0) for floors in (5, 10, 24) for seed in range(4)],
        *[("pendulum", r) for r in (3.0, 10.0, 30.0, 100.0, 300.0, 1000.0)]],
        ids=lambda x: "-".join(map(str, x)) if isinstance(x, tuple) else str(x))
    def test_the_forcing_term_keeps_the_local_quadratic_rate(self, plant, r_inflation):
        prob = (make_pendulum() if plant == "pendulum"
                else make_shear_building(floors=plant[0], seed=plant[1]))
        k_star, _ = optimal_gain(prob, tol=1e-12)
        cfg = OptimizerConfig(method="newton", step_mode="fixed", alpha=1.0,
                              seed_gain=initial_gain(prob, r_inflation=r_inflation),
                              grad_tol=1e-12, max_iter=40)
        e = run(prob, cfg, k_star=k_star).column("gain_error")
        # an error at round-off (about 6e-13 on the buildings) says nothing
        # of the rate: a pair that ends there reads up to 1e9 either way
        floor = 1e3 * np.finfo(float).eps * np.linalg.norm(k_star.K)
        ratios = [e[k + 1] / e[k] ** 2 for k in range(len(e) - 1)
                  if e[k] <= 2.0 and e[k + 1] >= floor]
        assert ratios and max(ratios) <= 1e3

    def test_the_forcing_term_bounds_the_products(self, monkeypatch):
        # criterion 07's building; CG solved to round-off makes 27 products
        # here, stopped at the forcing term 12
        prob = make_shear_building(seed=0)
        k_star, _ = optimal_gain(prob, tol=1e-12)
        hvp = count_calls(monkeypatch, Evaluation, "hvp")
        cfg = OptimizerConfig(method="newton", step_mode="fixed", alpha=1.0,
                              seed_gain=initial_gain(prob, r_inflation=2.0),
                              grad_tol=1e-12, max_iter=40)
        rec = run(prob, cfg, k_star=k_star)
        assert rec.converged and len(hvp) <= 15

    def test_negative_curvature_first_returns_hewer_step(self, pendulum):
        prob, _, seed = pendulum
        ev = Evaluation(prob, seed)
        ev.hvp = lambda v: -v  # every direction has negative curvature
        np.testing.assert_array_equal(search_direction("newton", ev),
                                      -vec(ev.hewer_step))

    def test_negative_curvature_later_returns_the_iterate(self, pendulum):
        prob, _, seed = pendulum
        ev = Evaluation(prob, seed)
        calls = []

        def hvp(v):
            # positive curvature on the first direction, negative after
            calls.append(v)
            return v if len(calls) == 1 else -v

        ev.hvp = hvp
        d = search_direction("newton", ev)
        p = calls[0]
        # one CG step along p with step r'z / p'p, where r = -grad, z = p
        step = float(-ev.grad @ p) / float(p @ p)
        np.testing.assert_allclose(d, step * p, rtol=1e-14)
        assert len(calls) == 2 and float(d @ ev.grad) < 0.0

    def test_singular_sigma_gives_a_descent_direction(self):
        # the plant of test_gauss_newton_on_singular_sigma: Sigma has no
        # Cholesky factor, so the preconditioner uses E alone
        prob = LqrProblem(A=np.diag([0.5, 0.8]), B=[[1.0], [0.0]], Q=np.eye(2),
                          R=[[1.0]], gamma=0.9, Sigma_w=np.zeros((2, 2)),
                          Sigma_0=np.diag([1.0, 0.0]))
        ev = Evaluation(prob, Gain([[0.1, 0.2]]))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(ev.Sigma)
        d = search_direction("newton", ev)
        assert np.all(np.isfinite(d)) and float(d @ ev.grad) < 0.0


class TestBacktracking:
    def test_easy_descent_takes_full_step(self, scalar_prob, scalar_gain):
        cfg = OptimizerConfig(method="newton", alpha=1.0)
        ev = Evaluation(scalar_prob, scalar_gain)
        d = search_direction("newton", ev)
        J0 = performance(scalar_prob, scalar_gain)
        alpha, trial, _ = _step(ev, d, float(ev.grad @ d), cfg, cfg.alpha)
        assert alpha == 1.0
        assert performance(scalar_prob, trial.gain) < J0

    def test_shrinks_until_stabilizing(self, scalar_prob, scalar_gain):
        # descent direction scaled so the full step exits the stabilizing set
        grad = policy_gradient(scalar_prob, scalar_gain)
        d = np.array([100.0])  # d * grad < 0 since grad < 0
        assert float(d @ grad) < 0
        J0 = performance(scalar_prob, scalar_gain)
        cfg = OptimizerConfig(method="first_order", alpha=1.0)
        alpha, trial, _ = _step(Evaluation(scalar_prob, scalar_gain), d, float(grad @ d),
                                cfg, cfg.alpha)
        assert alpha < 1.0
        ok, _ = is_gamma_stabilizing(scalar_prob, trial.gain)
        assert ok
        assert performance(scalar_prob, trial.gain) <= J0

    def test_failure_after_budget(self, scalar_prob, scalar_gain):
        grad = policy_gradient(scalar_prob, scalar_gain)
        d = np.array([1000.0])
        cfg = OptimizerConfig(max_backtracks=0)
        assert _step(Evaluation(scalar_prob, scalar_gain), d, float(grad @ d), cfg,
                     cfg.alpha) is None


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(method="bfgs")
        with pytest.raises(ValueError):
            OptimizerConfig(step_mode="exact")
        with pytest.raises(ValueError):
            OptimizerConfig(alpha=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(grad_tol=0.0)
        for bad in ({"alpha": np.inf}, {"alpha": np.nan}, {"max_iter": 2.5},
                    {"max_iter": True}, {"max_backtracks": -1}, {"max_backtracks": "x"}):
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
        assert all(Evaluation(scalar_prob, g).margin > 0 for g in rec.gains)

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
        assert all(Evaluation(prob, g).margin > 0 for g in rec.gains)

    def test_line_search_failure_flags_run(self, pendulum):
        prob, k_star, seed = pendulum
        cfg = OptimizerConfig(method="first_order", step_mode="backtracking",
                              alpha=1.0, max_backtracks=0, seed_gain=seed,
                              grad_tol=1e-8, max_iter=10)
        rec = run(prob, cfg, k_star=k_star)
        assert rec.flag == "line_search_failure"
        assert rec.iterations == 0

    def test_direction_error_carries_the_record(self, pendulum, monkeypatch):
        prob, k_star, seed = pendulum
        monkeypatch.setattr(optimize, "_newton_cg", lambda ev: ev.grad)
        cfg = OptimizerConfig(method="newton", seed_gain=seed, max_iter=10)
        with pytest.raises(DirectionError) as info:
            run(prob, cfg, k_star=k_star)
        rec = info.value.record
        assert rec.flag == "direction_error" and rec.iterations == 0
        assert rec.final_gain is seed and rec.gains == [seed]
        last = rec.steps[-1]
        assert last.alpha_used == 0.0 and last.backtracks == 0
        assert last.J == performance(prob, seed)

    def test_zero_seed_default(self, scalar_prob):
        cfg = OptimizerConfig(method="newton", grad_tol=1e-9, max_iter=20)
        rec = run(scalar_prob, cfg)
        assert rec.converged
        np.testing.assert_allclose(rec.final_gain.K, rec.k_star.K, atol=1e-7)


class TestComputeOnce:
    def test_newton_evaluates_each_iterate_once(self, pendulum, monkeypatch):
        prob, k_star, seed = pendulum
        P = count_calls(monkeypatch, derivatives, "solve_value")
        Sigma = count_calls(monkeypatch, derivatives, "solve_sigma")
        stein = count_calls(monkeypatch, lqr.SteinOperator, "solve")
        getrf = count_calls(monkeypatch, lqr, "_getrf")
        hvp = count_calls(monkeypatch, Evaluation, "hvp")
        hessian = count_calls(monkeypatch, derivatives, "exact_hessian")
        directions = count_calls(monkeypatch, optimize, "search_direction")
        eig = count_calls(monkeypatch, lqr, "_geev")
        cfg = OptimizerConfig(method="newton", step_mode="fixed", alpha=1.0,
                              seed_gain=seed, grad_tol=1e-8, max_iter=40)
        rec = run(prob, cfg, k_star=k_star)
        assert rec.converged and len(rec.gains) > 2
        # one P and one Sigma per iterate; one eigenvalue solve per iterate,
        # which is its stability check and the operator's conditioning
        # estimate; one operator factorization per iterate (n = 2), which
        # also serves both solves of every Hessian-vector product
        assert len(P) == len(Sigma) == len(rec.gains)
        assert len(eig) == len(rec.gains)
        assert len(getrf) == len(rec.gains)
        assert 0 < len(hvp) <= prob.m * prob.n * (len(rec.gains) - 1)
        assert len(stein) == 2 * len(rec.gains) + 2 * len(hvp)
        # the direction is matrix-free: no dense Hessian and no dP stack
        assert hessian == []
        assert len(directions) == len(rec.gains) - 1
        assert all("dP" not in ev.__dict__ for _, ev in directions)

    def test_backtracking_never_solves_a_gain_twice(self, pendulum, monkeypatch):
        prob, k_star, seed = pendulum
        stein = count_calls(monkeypatch, lqr.SteinOperator, "solve")
        eig = count_calls(monkeypatch, lqr, "_geev")
        cfg = OptimizerConfig(method="first_order", step_mode="backtracking",
                              seed_gain=seed, grad_tol=1e-8, max_iter=30)
        rec = run(prob, cfg, k_star=k_star)
        assert rec.iterations == 30 and rec.column("backtracks").sum() > 0
        keys = [(op.G.tobytes(), m.tobytes()) for op, M, *_ in stein for m, in stack_slices(M)]
        assert len(keys) == len(set(keys))
        # one eigenvalue call for the seed and one for each line-search trial
        trials = sum(s.backtracks + 1 for s in rec.steps if s.alpha_used > 0.0)
        assert len(eig) == 1 + trials
        assert all(a.shape == (2, 2) for a, in eig)


def _sequential_backtrack(ev, direction, slope, cfg, alpha0):
    """Reference line search from the iterate ev: one Evaluation per trial,
    in order, from the step alpha0, with Armijo's c = 1e-4 and halving;
    None when the budget is exhausted."""
    prob, alpha = ev.prob, alpha0
    for j in range(cfg.max_backtracks + 1):
        trial = Evaluation(prob, Gain.from_theta(ev.gain.theta + alpha * direction,
                                                 prob.m, prob.n))
        if trial.stabilizing and trial.J <= ev.J + 1e-4 * alpha * slope:
            return alpha, trial, j
        alpha *= 0.5
    return None


def _search_start(prob, method):
    """An iterate, its direction, and the arguments of a search from it:
    (ev, direction, slope)."""
    ev = Evaluation(prob, initial_gain(prob))
    d = search_direction(method, ev)
    return ev, d, (ev, d, float(ev.grad @ d))


class TestLadder:
    """The line search accepts the trial a search of plain Evaluations
    accepts, with the same bits, from whichever step it starts:
    alpha * 0.5^start for a start of 0 (the full step), 1 and 3 (steps
    the pendulum's first-order search rejects) and 60 (far below the
    accepted step, so its first trial is accepted)."""

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
        # the next iterate's direction starts from these
        assert ev.S.tobytes() == ev_ref.S.tobytes()
        assert ev.grad.tobytes() == ev_ref.grad.tobytes()

    @pytest.mark.parametrize("plant, method", CASES)
    @pytest.mark.parametrize("start", [0, 1, 3, 60])
    def test_matches_trial_by_trial_search(self, plants, plant, method, start):
        prob = plants[plant]
        ev, d, args = _search_start(prob, method)
        cfg = OptimizerConfig(method=method, alpha=1.0)
        alpha0 = 0.5 ** start
        want = _sequential_backtrack(*args, cfg, alpha0)
        if plant == "pendulum" and start == 0:
            # the full first-order step leaves the stabilizing set
            assert want[2] >= 3
            assert not Evaluation(prob, Gain.from_theta(ev.gain.theta + d, 1, 2)).stabilizing
        if start == 60:
            assert want[2] == 0
        got = _step(*args, cfg, alpha0)
        self.assert_same(got, want)

    @pytest.mark.parametrize("start", [0, 1, 3, 60])
    def test_budget_and_failure(self, plants, start):
        _, _, args = _search_start(plants["pendulum"], "first_order")
        alpha0 = 0.5 ** start
        alpha, _, depth = _sequential_backtrack(*args, OptimizerConfig(), alpha0)
        # the budget counts shrinks from the first step the search is given
        for cfg, first in ((OptimizerConfig(max_backtracks=depth), alpha0),
                           (OptimizerConfig(max_backtracks=0), alpha)):
            self.assert_same(_step(*args, cfg, first),
                             _sequential_backtrack(*args, cfg, first))
        for max_backtracks in (0, depth - 1) if depth else ():
            cfg = OptimizerConfig(max_backtracks=max_backtracks)
            assert _step(*args, cfg, alpha0) is None

    def test_non_finite_trial_gain_is_refused(self, plants):
        ev, d, args = _search_start(plants["pendulum"], "first_order")
        # halving from 1e308 reaches the accepted step after about 1030 trials
        cfg = OptimizerConfig(alpha=1e308, max_backtracks=1100)
        # the first trials overflow; j0 is the first finite one
        j0, alpha = 0, cfg.alpha
        with np.errstate(over="ignore"):
            while not np.isfinite(ev.gain.theta + alpha * d).all():
                j0, alpha = j0 + 1, alpha * 0.5
        assert j0 >= 1
        # the search refuses the overflowing trials, with no warning, and
        # then accepts what a search from trial j0 accepts
        a, trial, j = _sequential_backtrack(*args, cfg, alpha)
        self.assert_same(_step(*args, cfg, cfg.alpha), (a, trial, j0 + j))
        assert _step(*args, replace(cfg, max_backtracks=j0 - 1), cfg.alpha) is None

    def test_trials_refuse_a_non_finite_trial_without_raising(self, plants):
        prob = plants["pendulum"]
        ev, d, args = _search_start(prob, "first_order")
        fixed = OptimizerConfig(step_mode="fixed")
        # the first trial gain overflows, the second's closed loop is huge
        assert _step(*args, fixed, 1e308) is None
        assert _step(*args, fixed, 1e300) is None
        _, trial, _ = _step(*args, fixed, 1e-9)
        assert trial.J == Evaluation(prob, Gain.from_theta(ev.gain.theta + 1e-9 * d, 1, 2)).J

    @pytest.mark.parametrize("mode, flag", [("fixed", "left_stabilizing_set"),
                                            ("backtracking", "line_search_failure")])
    def test_a_trial_whose_closed_loop_overflows_is_refused(self, mode, flag):
        # the trial gains are finite, about 1e305, but B K is not
        prob = LqrProblem(A=[[1.2]], B=[[1e6]], Q=[[1.0]], R=[[1.0]], gamma=0.9,
                          Sigma_w=[[1.0]], Sigma_0=[[1.0]])
        seed = Gain([[1e-6]])
        alpha = 1e305 / np.abs(Evaluation(prob, seed).grad).max()
        cfg = OptimizerConfig(method="first_order", step_mode=mode, alpha=alpha,
                              max_backtracks=3, max_iter=3, seed_gain=seed)
        rec = run(prob, cfg)
        assert rec.flag == flag and rec.iterations == 0


class TestInitialStep:
    """A first-order search after the first starts at the previous step
    times the ratio of the previous slope to this one, capped at alpha;
    Newton-type searches start at alpha."""

    def test_pendulum_first_order_searches_start_near_their_step(self, pendulum):
        prob, k_star, seed = pendulum
        cfg = OptimizerConfig(method="first_order", step_mode="backtracking",
                              seed_gain=seed, grad_tol=1e-8, max_iter=40)
        rec = run(prob, cfg, k_star=k_star)
        steps = rec.steps[:-1]
        assert rec.iterations == 40 and rec.flag is None
        # a search restarted at alpha makes about 11 trials a step here
        assert sum(s.backtracks + 1 for s in steps) / len(steps) <= 2.5
        assert all(0.0 < s.alpha_used <= cfg.alpha for s in steps)
        assert np.all(np.diff(rec.column("J")) <= 0.0)
        # the first search starts at alpha; for -grad the slope is -||grad||^2
        assert steps[0].alpha_used == cfg.alpha * 0.5 ** steps[0].backtracks
        for prev, s in zip(steps, steps[1:]):
            alpha0 = min(cfg.alpha, prev.alpha_used * (prev.grad_norm / s.grad_norm) ** 2)
            assert s.alpha_used == pytest.approx(alpha0 * 0.5 ** s.backtracks,
                                                 rel=1e-12)

    @pytest.mark.parametrize("method", ["newton", "gauss_newton"])
    def test_newton_type_searches_start_at_alpha(self, method):
        prob = make_shear_building(floors=24, seed=0)
        cfg = OptimizerConfig(method=method, step_mode="backtracking",
                              seed_gain=initial_gain(prob, r_inflation=100.0))
        rec = run(prob, cfg)
        assert rec.converged
        assert all(s.alpha_used == cfg.alpha * 0.5 ** s.backtracks
                   for s in rec.steps[:-1])
        if method == "newton":
            assert rec.iterations == 9 and rec.column("backtracks").sum() == 4

    @pytest.mark.parametrize("decrease, slope", [
        (None, -1.0),            # no previous search
        (-1.0, 0.0),             # no descent
        (-np.inf, -np.inf),      # a ratio that is NaN
        (-1e300, -1e-300),       # a ratio that overflows
        (-0.0, -1.0),            # a previous step that underflowed
        (1.0, -1.0),             # a negative ratio
    ])
    def test_a_step_that_is_not_finite_and_positive_falls_back_to_alpha(self, decrease,
                                                                         slope):
        assert _initial_step(2.0, decrease, slope) == 2.0

    def test_the_step_is_the_slope_ratio_capped_at_alpha(self):
        assert _initial_step(2.0, -1.0, -4.0) == 0.25
        assert _initial_step(2.0, -3.0, -1.0) == 2.0


def _non_normal_loop(n, margin, seed, scale, gamma=0.9):
    # G = V T V^-1, T triangular with off-diagonal entries of size scale, and
    # sqrt(gamma) * rho(G) = 1 - margin as far as eigvals can tell
    rng = np.random.default_rng(seed)
    T = scale * np.triu(rng.standard_normal((n, n)), 1) + np.diag(rng.uniform(-1, 1, n))
    V = rng.standard_normal((n, n))
    G = V @ T @ np.linalg.inv(V)
    return G * (1.0 - margin) / (np.sqrt(gamma) * np.max(np.abs(np.linalg.eigvals(G))))


def _open_loop_problem(G, gamma=0.9):
    # B = I, so the zero gain's closed loop is G itself
    n = len(G)
    return LqrProblem(A=G, B=np.eye(n), Q=np.eye(n), R=np.eye(n), gamma=gamma,
                      Sigma_w=np.eye(n), Sigma_0=np.eye(n))


class TestCertifiedStability:
    """Above n = 10 the doubling powers, not an eigenvalue solve, decide
    whether a gain is stabilizing."""

    @pytest.mark.parametrize("floors", [6, 12, 24])
    def test_building_runs_make_no_eigenvalue_solve(self, monkeypatch, floors):
        prob = make_shear_building(floors=floors, seed=7)
        seed = initial_gain(prob, r_inflation=2.0)
        eig = count_calls(monkeypatch, lqr, "_geev")
        k_star, _ = optimal_gain(prob)
        assert eig == []
        cfg = OptimizerConfig(method="newton", step_mode="backtracking", seed_gain=seed,
                              grad_tol=1e-12, max_iter=4)
        rec = run(prob, cfg, k_star=k_star)
        assert rec.iterations == 4 and rec.flag is None
        assert eig == []

    def test_where_the_powers_and_eigvals_disagree(self, monkeypatch):
        # random non-normal loops near the boundary, n = 12 and 24: where
        # the powers refuse a loop that eigvals calls stable, the gain is
        # not stabilizing, the public solves refuse it and a run refuses it
        # as a seed. Where they certify a loop that eigvals calls unstable,
        # its solves miss their residual bound, and a seed there raises.
        # Either way a line search rejects the gain, a fixed step onto it
        # ends the run flagged, and no value is ever returned at a loop
        # eigvals calls unstable.
        refused, certified = {12: 0, 24: 0}, 0
        public = (solve_value, solve_sigma, performance)
        # a fixed step from 1.1 K* lands on the zero gain
        monkeypatch.setattr(optimize, "search_direction", lambda method, ev: -ev.gain.theta)
        for n in (12, 24):
            for scale in (1.0, 2.0):
                for margin in (1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3, 1e-2, -1e-2):
                    for seed in range(3):
                        prob = _open_loop_problem(_non_normal_loop(n, margin, seed, scale))
                        zero = Gain.zero(prob)
                        ev = Evaluation(prob, zero)
                        if ev.margin <= 0.0:
                            for solve in public:
                                with pytest.raises((NotStabilizing, NoConvergence)):
                                    solve(prob, zero)
                        if ev.stabilizing and ev.margin <= 0.0:
                            certified += 1
                            with pytest.raises(NoConvergence):
                                ev.P
                            k_star, _ = optimal_gain(prob)
                            with pytest.raises(NoConvergence):
                                run(prob, OptimizerConfig(seed_gain=zero), k_star=k_star)
                        elif ev.stabilizing or ev.margin <= 0.0:
                            continue
                        else:
                            refused[n] += 1
                            with pytest.raises(NotStabilizing, match="cannot be formed"):
                                ev.P
                            for solve in public:
                                with pytest.raises(NotStabilizing, match="cannot be formed"):
                                    solve(prob, zero)
                            k_star, _ = optimal_gain(prob)
                            with pytest.raises(SeedNotStabilizing):
                                run(prob, OptimizerConfig(seed_gain=zero), k_star=k_star)
                        # through the optimum, so that the full step lands on
                        # the gain K = 0
                        start = Evaluation(prob, Gain(1.1 * k_star.K))
                        d = -start.gain.theta
                        assert float(start.grad @ d) < 0.0
                        alpha, trial, _ = _step(start, d, float(start.grad @ d),
                                                OptimizerConfig(), 1.0)
                        assert 0.0 < alpha < 1.0
                        assert Evaluation(prob, trial.gain).stabilizing
                        rec = run(prob, OptimizerConfig(step_mode="fixed",
                                                        seed_gain=start.gain), k_star=k_star)
                        assert rec.flag == "left_stabilizing_set" and rec.iterations == 0
        assert refused[12] >= 1 and refused[24] >= 1 and certified >= 1
