import warnings

import numpy as np
import pytest
import scipy.linalg

from lqrnewton import lqr
from lqrnewton import (Evaluation, Gain, LqrProblem, action_value_at, closed_loop,
                       is_gamma_stabilizing, make_pendulum, make_shear_building,
                       optimal_gain, pendulum_continuous,
                       performance, policy_gradient, solve_sigma, solve_value,
                       value_at)
from lqrnewton.errors import NoConvergence, NotStabilizing
from lqrnewton.oracles import scalar_reference

from conftest import P_05, SCALAR, SIGMA_05, count_calls, rel_err, scalar_problem


def simple_problem(**over):
    base = dict(A=0.5 * np.eye(2), B=np.eye(2), Q=np.eye(2), R=np.eye(2),
                gamma=0.9, Sigma_w=0.1 * np.eye(2), Sigma_0=np.eye(2))
    base.update(over)
    return LqrProblem(**base)


class TestProblemValidation:
    def test_accepts_scalars_for_1x1(self):
        p = LqrProblem(A=1.0, B=1.0, Q=0.5, R=0.5, gamma=0.9, Sigma_w=0.0, Sigma_0=1.0)
        assert p.n == 1 and p.m == 1

    def test_rejects_indefinite_Q(self):
        with pytest.raises(ValueError, match="Q"):
            simple_problem(Q=np.diag([1.0, -1.0]))

    def test_rejects_semidefinite_R(self):
        with pytest.raises(ValueError, match="R"):
            simple_problem(R=np.diag([1.0, 0.0]))

    def test_rejects_asymmetric_Q(self):
        with pytest.raises(ValueError, match="symmetric"):
            simple_problem(Q=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_bad_gamma(self):
        for g in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="gamma"):
                simple_problem(gamma=g)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            simple_problem(B=np.ones((3, 1)))
        with pytest.raises(ValueError):
            simple_problem(Sigma_w=np.zeros((3, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            simple_problem(A=np.array([[np.inf, 0.0], [0.0, 0.5]]))


class TestGain:
    def test_theta_is_column_major(self):
        g = Gain([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(g.theta, [1.0, 3.0, 2.0, 4.0])

    def test_round_trip(self):
        g = Gain.from_theta(np.array([1.0, 3.0, 2.0, 4.0]), 2, 2)
        np.testing.assert_array_equal(g.K, [[1.0, 2.0], [3.0, 4.0]])


class TestClosedLoop:
    def test_zero_gain_returns_A(self):
        p = simple_problem()
        np.testing.assert_array_equal(closed_loop(p, Gain.zero(p)), p.A)

    def test_scalar(self):
        p = scalar_problem()
        assert closed_loop(p, Gain([[0.5]]))[0, 0] == pytest.approx(0.5)

    def test_single_input_row_structure(self):
        # the pendulum's continuous input enters only the last state equation,
        # so feedback can only alter the last row of A
        A_c, B_c = pendulum_continuous()
        p = LqrProblem(A=A_c, B=B_c, Q=np.eye(2), R=[[1.0]], gamma=0.9,
                       Sigma_w=np.eye(2), Sigma_0=np.eye(2))
        acl = closed_loop(p, Gain([[3.0, -2.0]]))
        np.testing.assert_array_equal(acl[0], p.A[0])
        assert np.any(acl[1] != p.A[1])

    def test_dimension_mismatch(self):
        p = simple_problem()
        with pytest.raises(ValueError):
            closed_loop(p, Gain(np.zeros((1, 3))))


class TestStabilizing:
    def test_scalar_arithmetic(self):
        p = scalar_problem()
        ok, margin = is_gamma_stabilizing(p, Gain([[0.5]]))
        assert ok
        assert margin == pytest.approx(1.0 - np.sqrt(0.9) * 0.5, abs=1e-12)

    def test_unstable_open_loop(self):
        p = simple_problem(A=2.0 * np.eye(2))
        ok, margin = is_gamma_stabilizing(p, Gain.zero(p))
        assert not ok and margin < 0

    def test_small_discount_stabilizes_anything(self):
        A = 2.0 * np.eye(2)
        p = LqrProblem(A=A, B=np.eye(2), Q=np.eye(2), R=np.eye(2), gamma=0.2,
                       Sigma_w=np.zeros((2, 2)), Sigma_0=np.eye(2))
        ok, _ = is_gamma_stabilizing(p, Gain.zero(p))
        assert ok  # gamma * rho^2 = 0.8 < 1

    def test_monotone_in_gamma(self):
        # stabilizing at gamma implies stabilizing at any smaller discount
        K = Gain([[0.2, 0.1], [0.0, 0.3]])
        hi = simple_problem(A=1.05 * np.eye(2), gamma=0.9)
        ok_hi, _ = is_gamma_stabilizing(hi, K)
        assert ok_hi
        for g in (0.5, 0.25, 0.05):
            lo = simple_problem(A=1.05 * np.eye(2), gamma=g)
            ok_lo, _ = is_gamma_stabilizing(lo, K)
            assert ok_lo


class TestSolveValue:
    def test_scalar_closed_form(self, scalar_prob, scalar_gain):
        P, q = solve_value(scalar_prob, scalar_gain)
        assert P[0, 0] == pytest.approx(P_05, abs=1e-14)
        assert q == 0.0

    def test_zero_cost_gives_zero_value(self):
        p = simple_problem(Q=np.zeros((2, 2)))
        P, q = solve_value(p, Gain.zero(p))
        np.testing.assert_allclose(P, 0.0, atol=1e-14)
        assert q == 0.0

    def test_zero_noise_gives_zero_offset(self):
        p = simple_problem(Sigma_w=np.zeros((2, 2)))
        _, q = solve_value(p, Gain([[0.1, 0.0], [0.0, 0.1]]))
        assert q == 0.0

    def test_offset_formula(self):
        p = simple_problem()
        P, q = solve_value(p, Gain.zero(p))
        assert q == pytest.approx(p.gamma / (1 - p.gamma) * np.trace(P @ p.Sigma_w), rel=1e-12)

    def test_raises_for_unstable_gain(self, scalar_prob):
        with pytest.raises(NotStabilizing):
            solve_value(scalar_prob, Gain([[-5.0]]))

    def test_checked_closed_loop_skips_the_check(self, monkeypatch):
        p = simple_problem()
        g = Gain([[0.1, 0.2], [0.0, 0.3]])
        want = solve_value(p, g)
        calls = count_calls(monkeypatch, np.linalg, "eigvals")
        got = solve_value(p, g, checked_Acl=closed_loop(p, g))
        assert calls == []
        np.testing.assert_array_equal(got.P, want.P)
        assert got.q == want.q

    @pytest.mark.parametrize("n", [3, 25])
    def test_residual_and_symmetry(self, n):
        # n = 25 exercises the doubling branch, n = 3 the direct solve
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n))
        A *= 0.85 / np.max(np.abs(np.linalg.eigvals(A)))
        G = rng.standard_normal((n, n))
        p = LqrProblem(A=A, B=rng.standard_normal((n, 2)), Q=G.T @ G / n,
                       R=np.eye(2), gamma=0.9, Sigma_w=0.1 * np.eye(n),
                       Sigma_0=np.eye(n))
        g = Gain.zero(p)
        P, _ = solve_value(p, g)
        np.testing.assert_array_equal(P, P.T)
        assert np.min(np.linalg.eigvalsh(P)) >= -1e-10
        acl = closed_loop(p, g)
        resid = np.linalg.norm(p.Q + p.gamma * acl.T @ P @ acl - P, "fro")
        assert resid <= 1e-10 * (1.0 + np.linalg.norm(P, "fro"))


class TestSolveSigma:
    def test_scalar_closed_form(self, scalar_prob, scalar_gain):
        Sig = solve_sigma(scalar_prob, scalar_gain)
        assert Sig[0, 0] == pytest.approx(SIGMA_05, abs=1e-14)

    def test_raises_for_unstable_gain(self, scalar_prob):
        with pytest.raises(NotStabilizing):
            solve_sigma(scalar_prob, Gain([[-5.0]]))

    def test_zero_closed_loop_collapses(self):
        # A = B, K = I makes Acl exactly zero
        p = simple_problem(A=np.eye(2))
        Sig = solve_sigma(p, Gain(np.eye(2)))
        np.testing.assert_allclose(Sig, p.Sigma_0 + 0.9 / 0.1 * p.Sigma_w, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 25])
    def test_residual_symmetry_psd(self, n):
        rng = np.random.default_rng(10 + n)
        A = rng.standard_normal((n, n))
        A *= 0.8 / np.max(np.abs(np.linalg.eigvals(A)))
        p = LqrProblem(A=A, B=rng.standard_normal((n, 1)), Q=np.eye(n),
                       R=[[1.0]], gamma=0.9, Sigma_w=0.2 * np.eye(n),
                       Sigma_0=np.eye(n))
        g = Gain.zero(p)
        Sig = solve_sigma(p, g)
        np.testing.assert_array_equal(Sig, Sig.T)
        assert np.min(np.linalg.eigvalsh(Sig)) >= -1e-10
        acl = closed_loop(p, g)
        rhs = p.Sigma_0 + p.gamma / (1 - p.gamma) * p.Sigma_w
        resid = np.linalg.norm(rhs + p.gamma * acl @ Sig @ acl.T - Sig, "fro")
        assert resid <= 1e-10 * (1.0 + np.linalg.norm(Sig, "fro"))

    def test_monotone_in_discount(self):
        # for a fixed stabilizing gain both q and tr(Sigma) grow with gamma
        K = Gain([[0.1, 0.0], [0.0, 0.1]])
        qs, trs = [], []
        for g in (0.3, 0.5, 0.7, 0.9):
            p = simple_problem(gamma=g)
            _, q = solve_value(p, K)
            qs.append(q)
            trs.append(np.trace(solve_sigma(p, K)))
        assert np.all(np.diff(qs) > 0)
        assert np.all(np.diff(trs) > 0)


def _near_boundary(n, margin, gamma=0.9):
    # non-normal G = V T V^-1 with sqrt(gamma) * rho(G) = 1 - margin
    rng = np.random.default_rng(0)
    T = 0.5 * np.triu(rng.standard_normal((n, n)))
    V = rng.standard_normal((n, n))
    G = V @ T @ np.linalg.inv(V)
    return G * (1.0 - margin) / (np.sqrt(gamma) * np.max(np.abs(np.linalg.eigvals(G))))


def _doubling_reference(G, M, gamma):
    # the allocating loop that the buffered _doubling replaced, kept as the
    # reference it must equal bit for bit
    X = M
    F = np.sqrt(gamma) * G
    for _ in range(100):
        delta = F @ X @ F.swapaxes(-1, -2)
        X = X + delta
        F = F @ F
        if (lqr._sq_norm(delta) <= 1e-30 * np.maximum(lqr._sq_norm(X), 1.0)).all():
            return (X + X.swapaxes(-1, -2)) / 2.0
    raise NoConvergence("reference doubling did not converge")


def _doubling_solve_reference(G, M, gamma):
    Gt = G.swapaxes(-1, -2)
    X = _doubling_reference(G, M, gamma)
    R = M + gamma * G @ X @ Gt - X
    if not lqr._within_bound(R, X):
        X = X + _doubling_reference(G, R, gamma)
        if not lqr._within_bound(M + gamma * G @ X @ Gt - X, X):
            raise NoConvergence("reference doubling missed its residual bound")
    return X


class TestSteinSolve:
    @pytest.mark.parametrize("n", [3, 25])
    def test_stack_equals_per_slice_solves(self, n):
        # n = 25 exercises the doubling branch, n = 3 the direct solve
        rng = np.random.default_rng(n)
        G = rng.standard_normal((n, n))
        G *= 0.9 / np.max(np.abs(np.linalg.eigvals(G)))
        M = rng.standard_normal((4, n, n))
        M = M + M.transpose(0, 2, 1)
        X = lqr._stein_solve(G, M, 0.9)
        assert X.shape == M.shape
        for k in range(M.shape[0]):
            np.testing.assert_array_equal(X[k], X[k].T)
            assert rel_err(X[k], lqr._stein_solve(G, M[k], 0.9)) <= 1e-13
        # a distinct G per slice, at radii whose doubling needs different
        # numbers of steps; the direct solve gives each slice its own LU
        Gs = rng.standard_normal((4, n, n))
        radii = np.array([0.2, 0.5, 0.9, 0.99])
        Gs *= (radii / np.max(np.abs(np.linalg.eigvals(Gs)), axis=-1))[:, None, None]
        X = lqr._stein_solve(Gs, M, 0.9)
        assert X.shape == M.shape
        for k in range(M.shape[0]):
            want = lqr._stein_solve(Gs[k], M[k], 0.9)
            if n <= lqr._DIRECT_SOLVE_MAX_DIM:
                np.testing.assert_array_equal(X[k], want)
            else:
                assert rel_err(X[k], want) <= 1e-13

    def test_direct_operator_equals_the_kronecker_form(self, monkeypatch):
        rng = np.random.default_rng(5)
        G = rng.standard_normal((4, 4))
        G *= 0.9 / np.max(np.abs(np.linalg.eigvals(G)))
        seen = []  # copies: the operator is factored in place
        getrf = lqr._getrf
        monkeypatch.setattr(lqr, "_getrf",
                            lambda a, **kw: seen.append(a.copy()) or getrf(a, **kw))
        lqr._stein_solve(G, np.eye(4), 0.9)
        np.testing.assert_array_equal(seen[0], np.eye(16) - 0.9 * np.kron(G, G))

    @pytest.mark.parametrize("case", ["one slice", "shared G", "paired G", "corrected"])
    def test_doubling_equals_the_allocating_loop(self, case, monkeypatch):
        n, gamma = 25, 0.9
        rng = np.random.default_rng(3)
        G = rng.standard_normal((n, n))
        G *= 0.9 / np.max(np.abs(np.linalg.eigvals(G)))
        M = rng.standard_normal((4, n, n))
        M = M + M.transpose(0, 2, 1)
        if case == "one slice":
            M = M[0]
        elif case == "paired G":
            G = rng.standard_normal((4, n, n))
            radii = np.array([0.2, 0.5, 0.9, 0.99])
            G *= (radii / np.max(np.abs(np.linalg.eigvals(G)), axis=-1))[:, None, None]
        elif case == "corrected":
            # a closed loop this close to the boundary misses the bound once
            G, M = _near_boundary(n, 1e-3, gamma), np.stack([np.eye(n), np.ones((n, n))])
        calls = count_calls(monkeypatch, lqr, "_doubling")
        X = lqr._stein_solve(G, M, gamma)
        assert len(calls) == (2 if case == "corrected" else 1)
        want = _doubling_solve_reference(G, M, gamma)
        assert X.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, margin", [(21, 1e-5), (21, 1e-2), (48, 1e-2)])
    def test_doubling_meets_its_bound_or_refuses(self, n, margin):
        G, M = _near_boundary(n, margin), np.eye(n)
        try:
            X = lqr._stein_solve(G, M, 0.9)
        except NoConvergence:
            return
        resid = np.linalg.norm(M + 0.9 * G @ X @ G.T - X, "fro")
        assert resid <= 1e-10 * (1.0 + np.linalg.norm(X, "fro"))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_doubling_refuses_a_solution_whose_norm_overflows(self):
        # ||X||_F is far beyond 1e154, so the squared norms in the residual
        # gate overflow; inf <= inf must not pass for converged
        rng = np.random.default_rng(0)
        n, gamma = 48, 0.9
        T = 0.5 * np.triu(rng.standard_normal((n, n)), 1) + np.diag(rng.uniform(-1, 1, n))
        V = rng.standard_normal((n, n))
        G = V @ T @ np.linalg.inv(V)
        G *= (1.0 - 1e-5) / (np.sqrt(gamma) * np.max(np.abs(np.linalg.eigvals(G))))
        p = LqrProblem(A=G, B=np.zeros((n, 1)), Q=np.eye(n), R=[[1.0]], gamma=gamma,
                       Sigma_w=np.eye(n), Sigma_0=np.eye(n))
        gain = Gain.zero(p)
        ev = Evaluation(p, gain)
        assert ev.stabilizing
        for solve in (solve_value, solve_sigma, lambda p, g: ev.J):
            with pytest.raises(NoConvergence):
                solve(p, gain)


class TestPerformance:
    def test_zero_cost(self):
        p = simple_problem(Q=np.zeros((2, 2)))
        assert performance(p, Gain.zero(p)) == 0.0

    def test_scalar_fixture(self, scalar_prob, scalar_gain):
        assert performance(scalar_prob, scalar_gain) == pytest.approx(P_05, abs=1e-14)


class TestValueFunctions:
    def test_origin_gives_offset(self):
        p = simple_problem()
        sol = solve_value(p, Gain.zero(p))
        assert value_at(sol, np.zeros(2)) == sol.q

    def test_consistency_at_policy_action(self):
        rng = np.random.default_rng(7)
        p = simple_problem()
        gain = Gain(0.2 * rng.standard_normal((2, 2)))
        sol = solve_value(p, gain)
        for _ in range(10):
            s = rng.standard_normal(2)
            v = value_at(sol, s)
            qv = action_value_at(p, sol, s, -gain.K @ s)
            assert abs(qv - v) <= 1e-10 * max(1.0, abs(v))

    def test_scalar_substitution(self, scalar_prob, scalar_gain):
        sol = solve_value(scalar_prob, scalar_gain)
        assert value_at(sol, [1.0]) == pytest.approx(sol.P[0, 0] + sol.q, abs=1e-14)

    def test_dimension_checks(self):
        p = simple_problem()
        sol = solve_value(p, Gain.zero(p))
        with pytest.raises(ValueError):
            value_at(sol, np.zeros(3))
        with pytest.raises(ValueError):
            action_value_at(p, sol, np.zeros(2), np.zeros(3))


def _random_plant():
    # an open-loop unstable 3-state plant with two inputs
    rng = np.random.default_rng(11)
    A = rng.standard_normal((3, 3))
    A *= 1.1 / np.max(np.abs(np.linalg.eigvals(A)))
    G = rng.standard_normal((3, 3))
    return LqrProblem(A=A, B=rng.standard_normal((3, 2)), Q=G.T @ G / 3,
                      R=np.eye(2), gamma=0.85, Sigma_w=0.1 * np.eye(3),
                      Sigma_0=np.eye(3))


class TestOptimalGain:
    def test_no_actuation_stable(self):
        p = LqrProblem(A=0.5 * np.eye(2), B=np.zeros((2, 1)), Q=np.eye(2),
                       R=[[1.0]], gamma=0.9, Sigma_w=np.zeros((2, 2)),
                       Sigma_0=np.eye(2))
        k, _ = optimal_gain(p)
        np.testing.assert_array_equal(k.K, np.zeros((1, 2)))

    def test_no_actuation_unstable_raises(self):
        p = LqrProblem(A=2.0 * np.eye(2), B=np.zeros((2, 1)), Q=np.eye(2),
                       R=[[1.0]], gamma=0.9, Sigma_w=np.zeros((2, 2)),
                       Sigma_0=np.eye(2))
        # the diverging iterates overflow; that must raise, not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence):
                optimal_gain(p, max_iter=50)

    @pytest.mark.parametrize("A, Q", [(2.0 * np.eye(2), np.zeros((2, 2))),
                                      (np.diag([0.5, 2.0]), np.diag([1.0, 0.0]))],
                             ids=["zero-Q", "unseen-unstable-mode"])
    def test_unstable_mode_without_cost_raises(self, A, Q):
        # the Riccati solution leaves a mode that Q does not see unstable
        p = LqrProblem(A=A, B=np.eye(2), Q=Q, R=np.eye(2), gamma=0.9,
                       Sigma_w=0.1 * np.eye(2), Sigma_0=np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence):
                optimal_gain(p)

    @pytest.mark.parametrize("plant", ["pendulum", "building24", "random3"])
    def test_matches_scipy_dare(self, plant):
        p = {"pendulum": make_pendulum,
             "building24": lambda: make_shear_building(floors=24, seed=0),
             "random3": _random_plant}[plant]()
        g = p.gamma
        P = scipy.linalg.solve_discrete_are(np.sqrt(g) * p.A, np.sqrt(g) * p.B, p.Q, p.R)
        K = np.linalg.solve(p.R + g * p.B.T @ P @ p.B, g * p.B.T @ P @ p.A)
        k, sol = optimal_gain(p)
        assert rel_err(k.K, K) <= 1e-12
        assert rel_err(sol.P, P) <= 1e-12

    def test_scalar_against_root_finding(self, scalar_prob):
        # independent oracle: bisection on the first-order condition
        # theta (R + g b^2 P) - g b P a = 0 with P from the closed form
        a, b, Q, R, g = (SCALAR["a"], SCALAR["b"], SCALAR["Q"], SCALAR["R"],
                         SCALAR["gamma"])

        def resid(theta):
            p = scalar_reference(a, b, Q, R, g, 1.0, 0.0, theta).p
            return theta * (R + g * b * b * p) - g * b * p * a

        lo, hi = 0.0, 1.0
        assert resid(lo) < 0 < resid(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if resid(mid) < 0:
                lo = mid
            else:
                hi = mid
        theta_star = 0.5 * (lo + hi)
        k, _ = optimal_gain(scalar_prob, tol=1e-13)
        assert k.K[0, 0] == pytest.approx(theta_star, abs=1e-10)
        assert abs(policy_gradient(scalar_prob, k)[0]) <= 1e-10

    def test_self_consistency_random(self):
        p = _random_plant()
        k, sol = optimal_gain(p, tol=1e-12)
        target = np.linalg.solve(p.R + p.gamma * p.B.T @ sol.P @ p.B,
                                 p.gamma * p.B.T @ sol.P @ p.A)
        assert np.linalg.norm(k.K - target, "fro") <= 1e-12 * (1 + np.linalg.norm(k.K))
        assert np.linalg.norm(policy_gradient(p, k)) <= 1e-10

    def test_homotopy_from_unstable_seed(self):
        # the zero gain is not stabilizing at the target discount, and the
        # Riccati iteration needs no stabilizing start
        p = LqrProblem(A=2.0 * np.eye(2), B=np.eye(2), Q=np.eye(2), R=np.eye(2),
                       gamma=0.9, Sigma_w=0.1 * np.eye(2), Sigma_0=np.eye(2))
        ok, _ = is_gamma_stabilizing(p, Gain.zero(p))
        assert not ok
        k, _ = optimal_gain(p)
        ok2, _ = is_gamma_stabilizing(p, k)
        assert ok2
        assert np.linalg.norm(policy_gradient(p, k)) <= 1e-9

    def test_optimum_beats_spot_checks(self):
        rng = np.random.default_rng(12)
        p = simple_problem()
        k, _ = optimal_gain(p)
        j_star = performance(p, k)
        for _ in range(10):
            trial = Gain(k.K + 0.3 * rng.standard_normal((2, 2)))
            ok, _ = is_gamma_stabilizing(p, trial)
            if ok:
                assert performance(p, trial) >= j_star - 1e-9 * abs(j_star)
