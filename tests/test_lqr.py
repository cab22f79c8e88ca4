import warnings

import numpy as np
import pytest
import scipy.linalg

from lqrnewton import derivatives, lqr
from lqrnewton import (Evaluation, Gain, LqrProblem, OptimizerConfig, closed_loop,
                       initial_gain, is_gamma_stabilizing, make_pendulum, make_shear_building,
                       optimal_gain, pendulum_continuous,
                       performance, policy_gradient, run, solve_sigma, solve_value)
from lqrnewton.errors import NoConvergence, NotStabilizing
from lqrnewton.oracles import scalar_reference

from conftest import (P_05, SCALAR, SIGMA_05, count_calls, make_instances,
                      multi_actuator_building, rel_err, scalar_problem)


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
        # the last two have a Frobenius norm that overflows; the relative
        # asymmetry of the last is 2.8e-8
        asymmetric = ([[1.0, 0.5], [0.0, 1.0]], [[1.0, 1e200], [-1e200, 1.0]],
                      [[1e300, 1e292], [-1e292, 1.0]])
        for field in ("Q", "R", "Sigma_w", "Sigma_0"):
            for a in asymmetric:
                with pytest.raises(ValueError, match=f"{field} must be symmetric"):
                    simple_problem(**{field: np.array(a)})

    def test_rejects_bad_gamma(self):
        for g in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="gamma"):
                simple_problem(gamma=g)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            simple_problem(B=np.ones((3, 1)))
        with pytest.raises(ValueError):
            simple_problem(Sigma_w=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="A must be a matrix, got ndim=3"):
            simple_problem(A=np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="A must be square"):
            simple_problem(A=np.ones((2, 3)))
        with pytest.raises(ValueError, match="Q must be 2x2"):
            simple_problem(Q=np.eye(3))
        with pytest.raises(ValueError, match="R must be 2x2"):
            simple_problem(R=np.eye(3))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            simple_problem(A=np.array([[np.inf, 0.0], [0.0, 0.5]]))

    @pytest.mark.parametrize("field", ["Q", "R", "Sigma_w", "Sigma_0"])
    def test_rejects_a_matrix_that_overflows_when_symmetrized(self, field):
        # (a + a.T) / 2 doubles the diagonal before it halves it
        with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                       match=f"{field} has non-finite"):
            simple_problem(**{field: np.diag([1e308, 1.0])})


class TestGain:
    def test_theta_is_column_major(self):
        g = Gain([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(g.theta, [1.0, 3.0, 2.0, 4.0])

    def test_round_trip(self):
        g = Gain.from_theta(np.array([1.0, 3.0, 2.0, 4.0]), 2, 2)
        np.testing.assert_array_equal(g.K, [[1.0, 2.0], [3.0, 4.0]])

    def test_a_gain_owns_its_matrix(self):
        # a trial gain cut from theta, kept by a RunRecord, keeps no more
        theta = np.array([1.0, 3.0, 2.0, 4.0])
        g = Gain.from_theta(theta, 2, 2)
        theta[0] = 9.0
        assert g.K[0, 0] == 1.0 and g.K.base is None


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

    @pytest.mark.parametrize("A, B", [([[1.2]], [[1e6]]),
                                      (np.diag([1.2, 1.0]), [[1e6], [0.0]]),
                                      (np.diag([1.2] + [1.0] * 11), [[1e6]] + [[0.0]] * 11)],
                             ids=["n=1", "n=2", "n=12"])
    def test_a_closed_loop_that_overflows_is_not_stabilizing(self, A, B):
        # the gain is finite, but B K is not; n = 12 is on the doubling branch
        n = len(A)
        p = LqrProblem(A=A, B=B, Q=np.eye(n), R=[[1.0]], gamma=0.9,
                       Sigma_w=np.eye(n), Sigma_0=np.eye(n))
        gain = Gain(np.full((1, n), 1e305))
        with np.errstate(over="ignore"):
            ev = Evaluation(p, gain)
            assert not ev.stabilizing and ev.margin == -np.inf
            assert is_gamma_stabilizing(p, gain) == (False, -np.inf)
            with pytest.raises(NotStabilizing, match="= inf >= 1"):
                solve_value(p, gain)

    @pytest.mark.parametrize("K, margin", [([[1.0, 0.0]], -np.sqrt(0.9) * 1e154),
                                           ([[0.0, 0.0]], 1.0 - np.sqrt(0.9) * 1.1)],
                             ids=["rho=9.5e153", "rho=1.04"])
    def test_a_loop_beyond_the_range_of_geev_keeps_its_margin(self, K, margin):
        # max |entry| = 1e308 is past 2^459, where geev's eigenvalues come
        # back unscaled and read as a margin of 1
        p = LqrProblem(A=[[1.1, 1e308], [0.0, 0.9]], B=[[0.0], [1.0]], Q=np.eye(2),
                       R=[[1.0]], gamma=0.9, Sigma_w=np.eye(2), Sigma_0=np.eye(2))
        stabilizing, got = is_gamma_stabilizing(p, Gain(K))
        assert not stabilizing and got == pytest.approx(margin, rel=1e-12)
        with pytest.raises(NotStabilizing, match=">= 1"):
            performance(p, Gain(K))


class TestDirectLapack:
    """The stability check and the small solves call LAPACK's geev and gesv
    directly; numpy.linalg, which runs the same routines, is their oracle,
    bit for bit."""

    @staticmethod
    def _open_loop(G):
        n = len(G)
        return LqrProblem(A=G, B=np.zeros((n, 1)), Q=np.eye(n), R=[[1.0]], gamma=0.9,
                          Sigma_w=np.eye(n), Sigma_0=np.eye(n))

    def test_eigvals_are_numpys(self):
        rng = np.random.default_rng(19)
        loops = [rng.standard_normal((n, n)) for n in range(1, 11) for _ in range(20)]
        loops.append(np.array([[0.5, -0.4], [0.4, 0.5]]))  # one complex pair
        loops.append(0.7 * np.eye(4) + np.eye(4, k=1))  # a Jordan block
        dtypes = set()
        for G in loops:
            got = lqr._eigvals(self._open_loop(G), G)
            want = np.linalg.eigvals(np.sqrt(0.9) * G)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            dtypes.add(got.dtype)
        assert dtypes == {np.dtype(float), np.dtype(complex)}

    @pytest.mark.parametrize("e", [400, 459, 460, 500, 600, -400, -459, -460, -500, -600])
    def test_eigvals_scale_with_the_loop(self, e):
        # geev does not scale its eigenvalues back beyond 2^459 and returns
        # them scaled up below 2^-459
        rng = np.random.default_rng(abs(e))
        for n in (1, 2, 3, 6, 10):
            G = rng.standard_normal((n, n))
            got = lqr._eigvals(self._open_loop(G), np.ldexp(G, e))
            want = np.linalg.eigvals(np.sqrt(0.9) * G) * 2.0 ** e
            assert got.dtype == want.dtype
            err = np.abs(np.sort_complex(got) - np.sort_complex(want)).max()
            assert err <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_loop_that_is_not_finite_has_inf_eigvals(self, bad, monkeypatch):
        Acl = 0.5 * np.eye(3)
        Acl[1, 2] = bad
        geev = count_calls(monkeypatch, lqr, "_geev")
        w = lqr._eigvals(self._open_loop(0.5 * np.eye(3)), Acl)
        assert w.shape == (3,) and np.all(w == np.inf) and geev == []

    @pytest.mark.parametrize("case", ["pendulum", "scalar"])
    def test_hewer_step_is_numpys_solve(self, case, scalar_prob, scalar_gain):
        if case == "pendulum":
            prob = make_pendulum()
            gain = initial_gain(prob)
        else:
            prob, gain = scalar_prob, scalar_gain
        ev = Evaluation(prob, gain)
        want = np.linalg.solve(ev.E, ev.S)
        assert ev.hewer_step.shape == want.shape
        assert ev.hewer_step.tobytes() == want.tobytes()

    def test_a_singular_solve_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            lqr._solve(np.zeros((2, 2)), np.ones((2, 1)))


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
        calls = count_calls(monkeypatch, lqr, "_geev")
        got = solve_value(p, g, stein=lqr.SteinOperator(closed_loop(p, g).T, p.gamma))
        assert calls == []
        np.testing.assert_array_equal(got.P, want.P)
        assert got.q == want.q

    @pytest.mark.parametrize("A", [[[0.5, 1e200], [0.0, 0.5]], [[0.5, 0.0], [1e200, 0.5]]],
                             ids=["getrf-singular", "factors-not-finite"])
    def test_a_stable_loop_whose_operator_overflows_is_refused(self, A):
        # G (x) G overflows: getrf finds one operator singular and factors
        # the other into entries that are not finite
        p = LqrProblem(A=A, B=[[0.0], [1.0]], Q=np.eye(2), R=[[1.0]], gamma=0.9,
                       Sigma_w=np.eye(2), Sigma_0=np.eye(2))
        gain = Gain.zero(p)
        ev = Evaluation(p, gain)
        assert ev.margin > 0.0 and not ev.stabilizing
        for solve in (solve_value, solve_sigma, performance):
            with pytest.raises(NotStabilizing, match="cannot be formed"):
                solve(p, gain)

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
    # the allocating loop of the fixed-depth rule, kept as the reference the
    # plain _doubling must equal bit for bit: add levels until
    # ||F^(2^j)||_F^2 <= 2^-52 in every slice
    X = M
    F = np.sqrt(gamma) * G
    for _ in range(100):
        if (np.sum(F * F, axis=(-2, -1)) <= 2.0 ** -52).all():
            return (X + X.swapaxes(-1, -2)) / 2.0
        X = X + F @ X @ F.swapaxes(-1, -2)
        F = F @ F
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


@pytest.mark.parametrize("n", [2, 20, 48])
@pytest.mark.parametrize("layout", ["C", "F", "transposed view", "stack"])
def test_sym_has_the_bits_of_the_halved_sum(n, layout):
    X = np.random.default_rng(n).standard_normal((3, n, n) if layout == "stack" else (n, n))
    X = {"F": np.asfortranarray(X), "transposed view": X.T}.get(layout, X)
    X0 = X.copy(order="A")
    S = lqr._sym(X)
    assert S.tobytes() == ((X + X.swapaxes(-1, -2)) / 2.0).tobytes()
    assert S.flags.c_contiguous and X.tobytes() == X0.tobytes()


class TestSteinSolve:
    @pytest.mark.parametrize("n", [3, 12, 16, 25])
    def test_stack_equals_per_slice_solves(self, n):
        # n = 3 exercises the direct solve, n >= 12 the doubling branch
        rng = np.random.default_rng(n)
        G = rng.standard_normal((n, n))
        G *= 0.9 / np.max(np.abs(np.linalg.eigvals(G)))
        M = rng.standard_normal((4, n, n))
        M = M + M.transpose(0, 2, 1)
        X = lqr.SteinOperator(G, 0.9).solve(M)
        assert X.shape == M.shape
        for k in range(M.shape[0]):
            np.testing.assert_array_equal(X[k], X[k].T)
            assert rel_err(X[k], lqr.SteinOperator(G, 0.9).solve(M[k])) <= 1e-13

    @pytest.mark.parametrize("n", [3, 25])
    def test_transposed_solve_is_the_equation_in_the_transpose(self, n):
        rng = np.random.default_rng(n)
        G = rng.standard_normal((n, n))
        G *= 0.9 / np.max(np.abs(np.linalg.eigvals(G)))
        M = rng.standard_normal((2, n, n))
        M = M + M.transpose(0, 2, 1)
        op = lqr.SteinOperator(G, 0.9)
        X = op.solve(M, transpose=True)
        np.testing.assert_array_equal(X, X.swapaxes(1, 2))
        assert rel_err(X, lqr.SteinOperator(G.T, 0.9).solve(M)) <= 1e-13
        for k in range(2):
            resid = M[k] + 0.9 * G.T @ X[k] @ G - X[k]
            assert np.linalg.norm(resid) <= 1e-10 * (1.0 + np.linalg.norm(X[k]))

    @pytest.mark.parametrize("n", [3, 25])
    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_a_solve_leaves_its_inputs_alone(self, n, stacked, transpose):
        # n = 3 is the Kronecker branch, n = 25 the doubling one
        rng = np.random.default_rng(n)
        G = rng.standard_normal((n, n))
        G *= 0.9 / np.max(np.abs(np.linalg.eigvals(G)))
        M = rng.standard_normal((4, n, n) if stacked else (n, n))
        M = M + M.swapaxes(-1, -2)
        op = lqr.SteinOperator(G, 0.9)

        def held():
            return [G, *(op._powers if op.depth is not None else (op._lu, op._piv))]

        before, M0 = [a.copy() for a in held()], M.copy()
        X = op.solve(M, transpose=transpose)
        assert M.tobytes() == M0.tobytes() and X is not M
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, held(), strict=True))
        assert op.solve(M, transpose=transpose).tobytes() == X.tobytes()

    @pytest.mark.parametrize("case", ["3, one slice", "3, stack", "25, one slice",
                                      "25, stack", "corrected", "evaluation"])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_solve_leaves_its_right_hand_side_unchanged(self, case, transpose, monkeypatch):
        # doubling accumulates its levels in place, into one copy of M
        if case == "evaluation":
            # P is the solve in G = Acl', Sigma the one in G'
            prob = make_shear_building(floors=24, seed=0)
            held = [prob.Q, prob.Sigma_0, prob.Sigma_w]
            before = [a.copy() for a in held]
            ev = Evaluation(prob, Gain.zero(prob))
            ev.Sigma if transpose else ev.P
            assert all(a.tobytes() == b.tobytes() for a, b in zip(before, held, strict=True))
            return
        if case == "corrected":
            # as in test_doubling_equals_the_allocating_loop: missed once
            n = 25
            G, M = _near_boundary(n, 1e-3), np.stack([np.eye(n), np.ones((n, n))])
        else:
            n, slices = case.split(", ")
            n = int(n)
            rng = np.random.default_rng(n)
            G = rng.standard_normal((n, n))
            G *= 0.9 / np.max(np.abs(np.linalg.eigvals(G)))
            M = rng.standard_normal((3, n, n) if slices == "stack" else (n, n))
            M = M + M.swapaxes(-1, -2)
        calls = count_calls(monkeypatch, lqr.SteinOperator, "_doubling")
        M0 = M.copy()
        lqr.SteinOperator(G, 0.9).solve(M, transpose=transpose)
        assert M.tobytes() == M0.tobytes()
        assert len(calls) == {"3": 0, "25": 1, "corrected": 2}[case.split(",")[0]]

    def test_operator_is_factored_once(self, monkeypatch):
        rng = np.random.default_rng(2)
        G = rng.standard_normal((3, 3))
        G *= 0.9 / np.max(np.abs(np.linalg.eigvals(G)))
        getrf = count_calls(monkeypatch, lqr, "_getrf")
        op = lqr.SteinOperator(G, 0.9)
        for transpose in (False, True, False):
            op.solve(np.eye(3), transpose=transpose)
        assert len(getrf) == 1

    def test_doubling_powers_are_computed_once_and_shared(self, monkeypatch):
        n = 25
        rng = np.random.default_rng(4)
        G = rng.standard_normal((n, n))
        G *= 0.9 / np.max(np.abs(np.linalg.eigvals(G)))
        depths = count_calls(monkeypatch, lqr, "_doubling_powers")
        op = lqr.SteinOperator(G, 0.9)
        powers = op._powers
        # the depth L is the first with ||F^(2^L)||_F^2 <= 2^-52
        F = np.sqrt(0.9) * G
        for power in powers:
            np.testing.assert_array_equal(power, F)
            assert np.sum(F * F) > 2.0 ** -52
            F = F @ F
        assert np.sum(F * F) <= 2.0 ** -52
        L = len(powers)
        assert L > 1

        levels = []

        class Levels(list):
            def __iter__(self):
                for power in super().__iter__():
                    levels.append(power)
                    yield power

        op._powers = Levels(powers)
        # solves in G and in G' each run the L levels, on the same powers
        X = op.solve(np.eye(n))
        assert len(levels) == L
        Y = op.solve(np.eye(n), transpose=True)
        assert len(levels) == 2 * L
        assert all(a is b for a, b in zip(levels, powers + powers, strict=True))
        assert X.tobytes() == op.solve(np.eye(n)).tobytes()
        assert len(depths) == 1
        assert rel_err(Y, lqr.SteinOperator(G.T, 0.9).solve(np.eye(n))) <= 1e-13

    def test_direct_operator_equals_the_kronecker_form(self, monkeypatch):
        rng = np.random.default_rng(5)
        G = rng.standard_normal((4, 4))
        G *= 0.9 / np.max(np.abs(np.linalg.eigvals(G)))
        seen = []  # copies: the operator is factored in place
        getrf = lqr._getrf
        monkeypatch.setattr(lqr, "_getrf",
                            lambda a, **kw: seen.append(a.copy()) or getrf(a, **kw))
        lqr.SteinOperator(G, 0.9).solve(np.eye(4))
        np.testing.assert_array_equal(seen[0], np.eye(16) - 0.9 * np.kron(G, G))

    @pytest.mark.parametrize("case", ["one slice", "shared G", "corrected"])
    def test_doubling_equals_the_allocating_loop(self, case, monkeypatch):
        n, gamma = 25, 0.9
        rng = np.random.default_rng(3)
        G = rng.standard_normal((n, n))
        G *= 0.9 / np.max(np.abs(np.linalg.eigvals(G)))
        M = rng.standard_normal((4, n, n))
        M = M + M.transpose(0, 2, 1)
        if case == "one slice":
            M = M[0]
        elif case == "corrected":
            # a closed loop this close to the boundary misses the bound once
            G, M = _near_boundary(n, 1e-3, gamma), np.stack([np.eye(n), np.ones((n, n))])
        calls = count_calls(monkeypatch, lqr.SteinOperator, "_doubling")
        X = lqr.SteinOperator(G, gamma).solve(M)
        assert len(calls) == (2 if case == "corrected" else 1)
        want = _doubling_solve_reference(G, M, gamma)
        assert X.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, margin", [(12, 1e-5), (12, 1e-2), (16, 1e-5), (16, 1e-2),
                                           (21, 1e-5), (21, 1e-2), (48, 1e-2)])
    def test_doubling_meets_its_bound_or_refuses(self, n, margin):
        G, M = _near_boundary(n, margin), np.eye(n)
        try:
            X = lqr.SteinOperator(G, 0.9).solve(M)
        except NoConvergence:
            return
        resid = np.linalg.norm(M + 0.9 * G @ X @ G.T - X, "fro")
        assert resid <= 1e-10 * (1.0 + np.linalg.norm(X, "fro"))

    @pytest.mark.parametrize("case", ["overflowing power", "overflowing norm",
                                      "unit radius"])
    def test_doubling_depth_refuses_powers_that_do_not_decay(self, case):
        n = 12
        if case == "overflowing power":
            # stable, but F^2 already has entries of 1e400
            G = 0.5 * np.eye(n) + 1e200 * np.eye(n, k=1)
        elif case == "overflowing norm":
            # F's entries are finite, but ||F||_F^2 = 1.2e311 is not
            G = 1e155 / np.sqrt(0.9) * np.eye(n)
            with np.errstate(over="ignore"):
                assert not np.isfinite(lqr._sq_norm(np.sqrt(0.9) * G))
        else:
            # F = I: no power ever meets the depth test
            G = np.eye(n) / np.sqrt(0.9)
        with pytest.raises(NoConvergence):
            lqr.SteinOperator(G, 0.9)

    @pytest.mark.parametrize("s", [1e-10, 1e-12, 1e-14, 1e-16])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_doubling_is_relative_at_any_scale(self, s, transpose):
        # the depth is set by G alone, so a small right-hand side is summed
        # as far as a unit one; an absolute stopping test would stop early
        n, gamma = 25, 0.9
        rng = np.random.default_rng(25)
        G = rng.standard_normal((n, n))
        G *= 0.99 / (np.sqrt(gamma) * np.max(np.abs(np.linalg.eigvals(G))))
        M = rng.standard_normal((n, n))
        M = M + M.T
        op = lqr.SteinOperator(G, gamma)
        want = op.solve(M, transpose=transpose)
        assert rel_err(op.solve(s * M, transpose=transpose) / s, want) <= 1e-12

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_doubling_refuses_a_solution_whose_norm_overflows(self):
        # ||X||_F is far beyond 1e154, so the squared norms in the residual
        # gate overflow; inf <= inf must not pass for converged. One large
        # entry above a diagonal of radius 1 - 1e-5: the powers peak near
        # 1e104 and decay (depth 25), and X peaks near 2e214
        n, gamma = 12, 0.9
        G = (1.0 - 1e-5) / np.sqrt(gamma) * np.eye(n)
        G[1, 2] = 1e100
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


class TestPublicSolvesReadAnEvaluation:
    """solve_value, solve_sigma, performance and optimal_gain read an
    Evaluation, so one stability rule decides for every entry point."""

    def test_same_bits_as_the_evaluation(self):
        buildings = [make_shear_building(floors=f, seed=7) for f in (3, 6, 12, 24)]
        cases = make_instances(20) + [(p, initial_gain(p)) for p in buildings]
        for prob, gain in cases:
            ev = Evaluation(prob, gain)
            P, q = solve_value(prob, gain)
            assert P.tobytes() == ev.P.tobytes() and q == ev.q
            assert solve_sigma(prob, gain).tobytes() == ev.Sigma.tobytes()
            assert performance(prob, gain) == ev.J

    @pytest.mark.parametrize("floors", [6, 12, 24])
    def test_no_eigenvalue_solve_on_the_doubling_branch(self, monkeypatch, floors):
        prob = make_shear_building(floors=floors, seed=7)
        gain = initial_gain(prob)
        eig = count_calls(monkeypatch, lqr, "_geev")
        solve_value(prob, gain)
        solve_sigma(prob, gain)
        performance(prob, gain)
        assert eig == []

    def test_optimal_gain_checks_its_two_gains_by_eigenvalues(self, monkeypatch):
        prob = make_pendulum()
        eig = count_calls(monkeypatch, lqr, "_geev")
        optimal_gain(prob)
        assert len(eig) == 2


class TestValueFunctions:
    """V(s) = s'Ps + q and the action-value, read from an Evaluation's P
    and q."""

    def test_origin_gives_offset(self):
        # a start at the origin (Sigma_0 = 0) costs q alone
        p = simple_problem(Sigma_0=np.zeros((2, 2)))
        ev = Evaluation(p, Gain.zero(p))
        assert ev.q > 0.0 and ev.J == ev.q

    def test_consistency_at_policy_action(self):
        # Q(s, a) = s'(Q + g A'PA)s + 2 g s'A'PB a + a'(R + g B'PB)a + q
        # equals V(s) at the policy action a = -K s
        rng = np.random.default_rng(7)
        p = simple_problem()
        gain = Gain(0.2 * rng.standard_normal((2, 2)))
        ev = Evaluation(p, gain)
        g, A, B, P = p.gamma, p.A, p.B, ev.P
        for _ in range(10):
            s = rng.standard_normal(2)
            a = -gain.K @ s
            v = s @ P @ s + ev.q
            qv = (s @ (p.Q + g * A.T @ P @ A) @ s + 2.0 * g * s @ A.T @ P @ B @ a
                  + a @ (p.R + g * B.T @ P @ B) @ a + ev.q)
            assert abs(qv - v) <= 1e-10 * max(1.0, abs(v))

    def test_scalar_substitution(self, scalar_prob, scalar_gain):
        # unit initial variance: J is V(1) = P + q
        ev = Evaluation(scalar_prob, scalar_gain)
        assert ev.J == pytest.approx(ev.P[0, 0] + ev.q, abs=1e-14)


def _random_plant():
    # an open-loop unstable 3-state plant with two inputs
    rng = np.random.default_rng(11)
    A = rng.standard_normal((3, 3))
    A *= 1.1 / np.max(np.abs(np.linalg.eigvals(A)))
    G = rng.standard_normal((3, 3))
    return LqrProblem(A=A, B=rng.standard_normal((3, 2)), Q=G.T @ G / 3,
                      R=np.eye(2), gamma=0.85, Sigma_w=0.1 * np.eye(3),
                      Sigma_0=np.eye(3))


def _scale_states(p, scales):
    # the same problem in the states D s, D = diag(scales): K becomes K D^-1
    D, D_inv = np.diag(scales), np.diag(1.0 / np.asarray(scales))
    return LqrProblem(A=D @ p.A @ D_inv, B=D @ p.B, Q=D_inv @ p.Q @ D_inv, R=p.R,
                      gamma=p.gamma, Sigma_w=D @ p.Sigma_w @ D, Sigma_0=D @ p.Sigma_0 @ D)


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

    def test_a_singular_doubling_step_raises(self):
        # an entry of 2^63 makes I + G H singular in floating point
        p = LqrProblem(A=[[1.0, 0.1], [2.0 ** 63, 1.0]], B=[[0.0], [1.0]], Q=np.eye(2),
                       R=[[0.1]], gamma=0.9, Sigma_w=np.eye(2), Sigma_0=np.eye(2))
        with pytest.raises(NoConvergence, match="singular"):
            optimal_gain(p)

    def test_iteration_budget_raises(self):
        with pytest.raises(NoConvergence, match="did not converge in 1 iterations"):
            optimal_gain(make_pendulum(), max_iter=1)

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

    @pytest.mark.parametrize("A, B, Q, match", [
        (2.0 * np.eye(12), np.zeros((12, 1)), np.eye(12), "diverged"),
        (np.diag([0.5] * 11 + [2.0]), np.eye(12), np.diag([1.0] * 11 + [0.0]),
         f"not gamma-stabilizing \\(margin {1.0 - np.sqrt(0.9) * 2.0:.3g}\\)")],
        ids=["no-actuation-unstable", "unseen-unstable-mode"])
    def test_refusals_on_the_doubling_branch(self, A, B, Q, match):
        # n = 12: the Riccati gain is checked by its operator's powers, and
        # a refused one reports its margin
        p = LqrProblem(A=A, B=B, Q=Q, R=np.eye(B.shape[1]), gamma=0.9,
                       Sigma_w=0.1 * np.eye(12), Sigma_0=np.eye(12))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence, match=match):
                optimal_gain(p, max_iter=50)

    @pytest.mark.parametrize("plant", ["pendulum", "building3", "building5", "building10",
                                       "building24", "multi_actuator6", "random3",
                                       "pendulum-scaled", "building5-scaled"])
    def test_matches_scipy_dare(self, plant):
        # the 3- to 10-floor and multi-actuator plants are where the doubling
        # step's rounding shows in K*; the state-scaled ones (a similarity
        # transform, so the same problem) keep a refusal keyed to the
        # conditioning of I + G H out of that step
        p = {"pendulum": make_pendulum,
             "building3": lambda: make_shear_building(floors=3, seed=0),
             "building5": lambda: make_shear_building(floors=5, seed=0),
             "building10": lambda: make_shear_building(floors=10, seed=0),
             "building24": lambda: make_shear_building(floors=24, seed=0),
             "multi_actuator6": lambda: multi_actuator_building(6),
             "random3": _random_plant,
             "pendulum-scaled": lambda: _scale_states(make_pendulum(), [1.0, 1e8]),
             "building5-scaled": lambda: _scale_states(make_shear_building(floors=5, seed=0),
                                                       [1.0] * 5 + [1e4] * 5)}[plant]()
        g = p.gamma
        P = scipy.linalg.solve_discrete_are(np.sqrt(g) * p.A, np.sqrt(g) * p.B, p.Q, p.R)
        K = np.linalg.solve(p.R + g * p.B.T @ P @ p.B, g * p.B.T @ P @ p.A)
        k, sol = optimal_gain(p)
        assert rel_err(k.K, K) <= 1e-12
        assert rel_err(sol.P, P) <= 1e-12

    def test_the_value_at_k_star_is_solved_when_read(self, monkeypatch):
        prob = make_shear_building(floors=24, seed=0)
        calls = count_calls(monkeypatch, derivatives, "solve_value")
        k_star, value = optimal_gain(prob)
        # the value at the Riccati gain, for the Hewer step
        assert len(calls) == 1
        P = value.P
        assert len(calls) == 2 and calls[1][1] is k_star
        P_want, q_want = solve_value(prob, k_star)
        assert P.tobytes() == P_want.tobytes() and value.q == q_want

    def test_a_run_that_finds_k_star_adds_only_the_finish_solve(self, monkeypatch):
        prob = make_shear_building(floors=6, seed=0)  # n = 12: doubling
        cfg = OptimizerConfig(method="newton", max_iter=2, seed_gain=initial_gain(prob))
        k_star, _ = optimal_gain(prob)
        solves = count_calls(monkeypatch, lqr.SteinOperator, "solve")
        given = run(prob, cfg, k_star=k_star)
        n_given = len(solves)
        found = run(prob, cfg)
        # the SDA's gain needs its value P for the Hewer step; K*'s value
        # is not read
        assert len(solves) - n_given == n_given + 1
        assert found.k_star.K.tobytes() == k_star.K.tobytes()
        assert [s.J for s in found.steps] == [s.J for s in given.steps]

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
