import numpy as np
import pytest

from lqrnewton import (Gain, default_landscape_window, initial_gain,
                       is_gamma_stabilizing, landscape, make_pendulum,
                       make_shear_building, optimal_gain, pendulum_continuous,
                       performance, rotated_Q, spectral_radius, zoh_discretize)
from lqrnewton import lqr
from lqrnewton.errors import DimensionUnsupported

from conftest import count_calls


class TestRotatedQ:
    def test_no_rotation_is_diagonal(self):
        np.testing.assert_allclose(rotated_Q(3.0, 1.0, 0.0), np.diag([3.0, 1.0]),
                                   atol=1e-15)

    def test_quarter_turn_swaps_axes(self):
        np.testing.assert_allclose(rotated_Q(3.0, 1.0, 90.0), np.diag([1.0, 3.0]),
                                   atol=1e-12)

    def test_trace_invariant(self):
        q = rotated_Q(1e5, 1e-4, 40.0)
        assert np.trace(q) == pytest.approx(1e5 + 1e-4, rel=1e-10)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            rotated_Q(-1.0, 1.0, 10.0)


class TestPendulum:
    def test_continuous_matrices(self):
        A_c, B_c = pendulum_continuous()
        assert A_c[1, 0] == pytest.approx(9.81)
        assert A_c[0, 1] == 1.0 and A_c[0, 0] == 0.0 and A_c[1, 1] == 0.0
        np.testing.assert_array_equal(B_c, [[0.0], [1.0]])

    def test_problem_constants(self):
        p = make_pendulum()
        assert p.gamma == 0.9
        np.testing.assert_array_equal(p.Sigma_w, np.eye(2))
        np.testing.assert_allclose(p.Sigma_0, 0.1 * np.eye(2))
        assert p.R[0, 0] == 0.1

    def test_state_penalty_spectrum(self):
        p = make_pendulum()
        w = np.sort(np.linalg.eigvalsh(p.Q))
        # the small eigenvalue of the formed product is only recoverable to
        # ~eps * ||Q|| absolute, i.e. ~1e-7 relative; the large one is exact
        assert w[0] == pytest.approx(1e-4, rel=1e-6)
        assert w[1] == pytest.approx(1e5, rel=1e-12)
        np.testing.assert_array_equal(p.Q, p.Q.T)
        assert w[0] > 0


class TestZoh:
    def test_first_order_limit(self):
        A_c, B_c = pendulum_continuous()
        ts = 1e-6
        A_d, B_d = zoh_discretize(A_c, B_c, ts)
        assert np.linalg.norm(A_d - (np.eye(2) + ts * A_c), "fro") <= 1e-10
        assert np.linalg.norm(B_d - ts * B_c, "fro") <= 1e-10

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            zoh_discretize(np.eye(2), np.ones((2, 1)), 0.0)


class TestShearBuilding:
    def test_default_dimensions(self):
        p = make_shear_building(seed=0)
        assert p.n == 48 and p.m == 1
        assert p.R[0, 0] == 0.01
        np.testing.assert_allclose(p.Sigma_w, 1e-4 * np.eye(48))
        np.testing.assert_allclose(p.Sigma_0, 1e-2 * np.eye(48))

    def test_single_floor_is_stable_damped_oscillator(self):
        p = make_shear_building(floors=1, seed=0)
        assert p.n == 2
        assert spectral_radius(p.A) < 1.0

    def test_Q_floor_eigenvalue(self):
        p = make_shear_building(floors=3, seed=1, eps=1e-6)
        assert np.min(np.linalg.eigvalsh(p.Q)) >= 1e-6 - 1e-12

    def test_rejects_unphysical_parameters(self):
        with pytest.raises(ValueError):
            make_shear_building(floors=0, seed=0)
        with pytest.raises(ValueError):
            make_shear_building(mass=0.0, seed=0)
        with pytest.raises(ValueError):
            make_shear_building(stiffness=-1.0, seed=0)
        with pytest.raises(ValueError, match="damping"):
            make_shear_building(damping=-1.0, seed=0)

    def test_seeded_and_deterministic(self):
        a = make_shear_building(floors=4, seed=5)
        b = make_shear_building(floors=4, seed=5)
        c = make_shear_building(floors=4, seed=6)
        np.testing.assert_array_equal(a.Q, b.Q)
        assert np.any(a.Q != c.Q)

    def test_open_loop_discounted_stable(self):
        p = make_shear_building(seed=0)
        ok, _ = is_gamma_stabilizing(p, Gain.zero(p))
        assert ok


class TestInitialGain:
    def test_stabilizing_but_suboptimal(self):
        p = make_pendulum()
        k0 = initial_gain(p)
        ok, _ = is_gamma_stabilizing(p, k0)
        assert ok
        k_star, _ = optimal_gain(p)
        assert np.linalg.norm(k0.K - k_star.K) > 1.0
        assert performance(p, k0) > performance(p, k_star)

    def test_rejects_a_non_positive_inflation(self):
        with pytest.raises(ValueError, match="r_inflation"):
            initial_gain(make_pendulum(), r_inflation=0)


class TestLandscape:
    def test_minimum_near_optimal_gain(self):
        p = make_pendulum()
        k_star, _ = optimal_gain(p)
        # off-center window still containing the optimum
        t = k_star.theta
        grid = landscape(p, (t[0] - 30.0, t[0] + 50.0, 17),
                         (t[1] - 45.0, t[1] + 35.0, 17))
        i, j = grid.min_cell()
        cell = np.array([grid.theta1[1] - grid.theta1[0],
                         grid.theta2[1] - grid.theta2[0]])
        center = np.array([grid.theta1[i], grid.theta2[j]])
        assert np.all(np.abs(center - t) <= cell + 1e-12)

    def test_non_stabilizing_cells_flagged(self):
        p = make_pendulum()
        k_star, _ = optimal_gain(p)
        t = k_star.theta
        grid = landscape(p, (t[0] - 2000.0, t[0] + 2000.0, 9),
                         (t[1] - 2000.0, t[1] + 2000.0, 9))
        assert not grid.stabilizing.all()
        assert grid.stabilizing.any()
        assert np.all(np.isnan(grid.J[~grid.stabilizing]))
        assert np.all(np.isfinite(grid.J[grid.stabilizing]))

    def test_min_cell_needs_a_stabilizing_cell(self):
        p = make_pendulum()
        grid = landscape(p, (-1e4, -9e3, 2), (-1e4, -9e3, 2))
        assert not grid.stabilizing.any()
        with pytest.raises(ValueError, match="no stabilizing cell"):
            grid.min_cell()

    def test_one_stability_check_per_cell(self, monkeypatch):
        p = make_pendulum()
        t = initial_gain(p).theta
        calls = count_calls(monkeypatch, lqr, "_geev")
        grid = landscape(p, (t[0] - 2000.0, t[0] + 2000.0, 9),
                         (t[1] - 2000.0, t[1] + 2000.0, 9))
        assert grid.stabilizing.any() and not grid.stabilizing.all()
        assert len(calls) == grid.J.size
        for i, j in zip(*np.nonzero(grid.stabilizing)):
            gain = Gain.from_theta([grid.theta1[i], grid.theta2[j]], 1, 2)
            assert grid.J[i, j] == performance(p, gain)

    def test_degenerate_single_point(self):
        p = make_pendulum()
        k_star, _ = optimal_gain(p)
        t = k_star.theta
        grid = landscape(p, (t[0], t[0], 1), (t[1], t[1], 1))
        assert grid.J.shape == (1, 1)
        assert grid.J[0, 0] == pytest.approx(performance(p, k_star), rel=1e-12)

    def test_rejects_other_dimensions(self):
        p = make_shear_building(floors=2, seed=0)
        with pytest.raises(DimensionUnsupported):
            landscape(p, (0, 1, 2), (0, 1, 2))
        with pytest.raises(DimensionUnsupported):
            default_landscape_window(p)

    def test_default_window_centered(self):
        p = make_pendulum()
        k_star, _ = optimal_gain(p)
        (lo1, hi1, s1), (lo2, hi2, s2) = default_landscape_window(p, k_star=k_star)
        # half-width 1 and 41 points per axis, fixed
        assert (lo1, hi1) == (k_star.theta[0] - 1.0, k_star.theta[0] + 1.0)
        assert (lo2, hi2) == (k_star.theta[1] - 1.0, k_star.theta[1] + 1.0)
        assert s1 == s2 == 41
