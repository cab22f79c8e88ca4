import numpy as np
import pytest

from lqrnewton import lqr
from lqrnewton import (Evaluation, Gain, LqrProblem, exact_hessian,
                       gn_hessian, initial_gain, is_gamma_stabilizing,
                       jacobian_vecP, lambda_term,
                       make_shear_building, optimal_gain, policy_gradient,
                       solve_sigma, solve_value, vec)
from lqrnewton.errors import NotStabilizing, SingularT
from lqrnewton.oracles import fd_gradient, fd_hessian, scalar_reference

from conftest import (DP_05, GRAD_05, HEXACT_05, HGN_05, LAM_05, SCALAR,
                      make_instances, rel_err, scalar_problem)


@pytest.fixture(scope="module")
def instances6():
    return make_instances(6)


class TestEvaluation:
    def test_matches_the_public_functions_bit_for_bit(self, instances6):
        for prob, gain in instances6:
            ev = Evaluation(prob, gain)
            assert (ev.stabilizing, ev.margin) == is_gamma_stabilizing(prob, gain)
            P, q = solve_value(prob, gain)
            np.testing.assert_array_equal(ev.P, P)
            assert ev.q == q
            np.testing.assert_array_equal(ev.Sigma, solve_sigma(prob, gain))

    def test_raises_outside_stabilizing_set(self, scalar_prob):
        ev = Evaluation(scalar_prob, Gain([[-9.0]]))
        assert not ev.stabilizing and ev.margin < 0
        with pytest.raises(NotStabilizing):
            ev.P
        with pytest.raises(NotStabilizing):
            ev.Sigma


class TestPolicyGradient:
    def test_scalar_value(self, scalar_prob, scalar_gain):
        g = policy_gradient(scalar_prob, scalar_gain)
        assert g.shape == (1,)
        assert g[0] == pytest.approx(GRAD_05, abs=1e-13)

    def test_zero_at_optimum(self, scalar_prob):
        k, _ = optimal_gain(scalar_prob)
        assert np.linalg.norm(policy_gradient(scalar_prob, k)) <= 1e-8

    def test_matches_finite_differences(self, instances6):
        for prob, gain in instances6:
            g = policy_gradient(prob, gain)
            fd = fd_gradient(prob, gain)
            assert rel_err(g, fd) <= 1e-6

    def test_raises_outside_stabilizing_set(self, scalar_prob):
        with pytest.raises(NotStabilizing):
            policy_gradient(scalar_prob, Gain([[-9.0]]))


class TestGnHessian:
    def test_scalar_value(self, scalar_prob, scalar_gain):
        H = gn_hessian(scalar_prob, scalar_gain)
        assert H[0, 0] == pytest.approx(HGN_05, abs=1e-12)

    def test_collapse_without_actuation(self):
        # Acl = A = 0 forces Sigma = Sigma_0 = 1, so H = 2 (R + 0) = 2
        p = LqrProblem(A=0.0, B=0.0, Q=1.0, R=1.0, gamma=0.9,
                       Sigma_w=0.0, Sigma_0=1.0)
        H = gn_hessian(p, Gain([[0.0]]))
        assert H[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_positive_definite_with_pd_sigma(self, instances6):
        for prob, gain in instances6:
            Sig = solve_sigma(prob, gain)
            if np.min(np.linalg.eigvalsh(Sig)) > 0:
                H = gn_hessian(prob, gain)
                assert np.min(np.linalg.eigvalsh(H)) > 0

    def test_matches_fd_hessian_at_optimum(self, scalar_prob):
        k, _ = optimal_gain(scalar_prob)
        H = gn_hessian(scalar_prob, k)
        fd = fd_hessian(scalar_prob, k)
        assert rel_err(H, fd) <= 1e-4


class TestJacobianVecP:
    def test_scalar_value(self, scalar_prob, scalar_gain):
        jac = jacobian_vecP(scalar_prob, scalar_gain)
        assert jac.shape == (1, 1)
        assert jac[0, 0] == pytest.approx(DP_05, abs=1e-13)

    def test_zero_at_optimum(self, scalar_prob):
        k, _ = optimal_gain(scalar_prob)
        jac = jacobian_vecP(scalar_prob, k)
        assert np.linalg.norm(jac) <= 1e-8

    def test_matches_fd_of_value_matrix(self, instances6):
        cases = [(prob, gain, range(prob.m * prob.n)) for prob, gain in instances6]
        # the 24-floor building (n = 48) takes the doubling branch; a few
        # columns of its 48 suffice
        building = make_shear_building(floors=24, seed=0)
        cases.append((building, initial_gain(building, r_inflation=2.0), (0, 23, 47)))
        for prob, gain, columns in cases:
            jac = jacobian_vecP(prob, gain)
            theta0 = gain.theta
            for i in columns:
                hi = 1e-6 * max(1.0, abs(theta0[i]))
                up, dn = theta0.copy(), theta0.copy()
                up[i] += hi
                dn[i] -= hi
                Pp, _ = solve_value(prob, Gain.from_theta(up, prob.m, prob.n))
                Pm, _ = solve_value(prob, Gain.from_theta(dn, prob.m, prob.n))
                col = vec((Pp - Pm) / (2.0 * hi))
                assert rel_err(jac[:, i], col) <= 1e-6

    def test_columns_fixed_by_commutation(self, instances6):
        # the commutation matrix K_nn maps vec(X) to vec(X'); each column is
        # fixed by it exactly when its unvec is symmetric
        for prob, gain in instances6:
            jac = jacobian_vecP(prob, gain)
            cols = jac.reshape(prob.n, prob.n, -1)
            np.testing.assert_allclose(cols.swapaxes(0, 1), cols, atol=1e-12)

    def test_dP_equals_the_two_array_assembly(self, instances6):
        # the right-hand sides E_i'S + S'E_i built as C + C', the assembly
        # that the one-array build replaced; instances6 has m = 2 and the
        # 48-state building reaches the doubling branch
        building = make_shear_building(floors=24, seed=0)
        cases = [*instances6, (building, initial_gain(building, r_inflation=2.0))]
        for prob, gain in cases:
            ev = Evaluation(prob, gain)
            n, m = prob.n, prob.m
            C = np.zeros((n, m, n, n))
            rows = np.arange(n)
            C[rows, :, rows, :] = ev.S
            C = C + C.transpose(0, 1, 3, 2)
            want = lqr._stein_solve(ev.Acl.T, C.reshape(n * m, n, n), prob.gamma)
            assert ev.dP.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 21])
    def test_singular_near_boundary(self, n):
        # n = 21 solves P by doubling, which must still reach the check
        gamma = 0.9
        rho = (1.0 - 1e-15) / np.sqrt(gamma)
        A = np.zeros((n, n))
        A[0, 0] = rho
        p = LqrProblem(A=A, B=np.zeros((n, 1)), Q=np.eye(n), R=[[1.0]],
                       gamma=gamma, Sigma_w=np.zeros((n, n)), Sigma_0=np.eye(n))
        with pytest.raises(SingularT):
            jacobian_vecP(p, Gain(np.zeros((1, n))))


class TestLambdaTerm:
    def test_scalar_value(self, scalar_prob, scalar_gain):
        jac = jacobian_vecP(scalar_prob, scalar_gain)
        lam = lambda_term(scalar_prob, scalar_gain, jac)
        assert lam[0, 0] == pytest.approx(LAM_05, abs=1e-12)

    def test_zero_at_optimum(self, scalar_prob):
        k, _ = optimal_gain(scalar_prob)
        jac = jacobian_vecP(scalar_prob, k)
        lam = lambda_term(scalar_prob, k, jac)
        assert np.linalg.norm(lam) <= 1e-8

    def test_zero_without_actuation(self):
        p = LqrProblem(A=np.diag([0.5, 0.2]), B=np.zeros((2, 1)), Q=np.eye(2),
                       R=[[1.0]], gamma=0.9, Sigma_w=0.1 * np.eye(2),
                       Sigma_0=np.eye(2))
        g = Gain(np.zeros((1, 2)))
        lam = lambda_term(p, g, jacobian_vecP(p, g))
        np.testing.assert_allclose(lam, 0.0, atol=1e-14)

    def test_shape_check(self, scalar_prob, scalar_gain):
        with pytest.raises(ValueError):
            lambda_term(scalar_prob, scalar_gain, np.zeros((2, 2)))


class TestExactHessian:
    def test_scalar_assembly(self, scalar_prob, scalar_gain):
        rep = exact_hessian(scalar_prob, scalar_gain)
        assert rep.H_exact[0, 0] == pytest.approx(HEXACT_05, abs=1e-12)
        assert rep.H_exact[0, 0] == rep.H_gn[0, 0] + 0.9 * rep.Lambda[0, 0]

    def test_matches_fd_hessian(self, instances6):
        for prob, gain in instances6:
            rep = exact_hessian(prob, gain)
            fd = fd_hessian(prob, gain)
            assert rel_err(rep.H_exact, fd) <= 1e-4

    def test_exactly_symmetric_as_computed(self, instances6):
        for prob, gain in instances6:
            rep = exact_hessian(prob, gain)
            np.testing.assert_array_equal(rep.H_exact, rep.H_exact.T)

    def test_equals_gn_at_optimum(self, scalar_prob):
        k, _ = optimal_gain(scalar_prob)
        rep = exact_hessian(scalar_prob, k)
        assert rel_err(rep.H_exact, rep.H_gn) <= 1e-8

    def test_report_is_complete(self, scalar_prob, scalar_gain):
        rep = exact_hessian(scalar_prob, scalar_gain)
        for field in ("grad", "S", "H_gn", "Lambda", "H_exact", "jac_vecP"):
            assert getattr(rep, field) is not None

    def test_scalar_grid_matches_closed_forms(self):
        # 1x1 library computations against the scalar reference over a grid,
        # with and without process noise
        for s_sq in (0.0, 0.3):
            prob = scalar_problem(sigma_sq=s_sq)
            for theta in np.linspace(-0.04, 2.04, 25):
                ref = scalar_reference(SCALAR["a"], SCALAR["b"], SCALAR["Q"],
                                       SCALAR["R"], SCALAR["gamma"], 1.0, s_sq, theta)
                rep = exact_hessian(prob, Gain([[theta]]))
                assert rel_err(rep.grad[0], ref.grad) <= 1e-12
                assert rel_err(rep.H_gn[0, 0], ref.h_gn) <= 1e-12
                assert rel_err(rep.Lambda[0, 0], ref.lam) <= 1e-12
                assert rel_err(rep.H_exact[0, 0], ref.hess_exact) <= 1e-12
                assert rel_err(rep.jac_vecP[0, 0], ref.dp_dtheta) <= 1e-12
