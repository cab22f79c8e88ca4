import numpy as np
import pytest

from lqrnewton import expm, kron, psd_sqrt, spectral_radius, unvec, vec


def test_vec_stacks_columns():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(vec(x), [1.0, 3.0, 2.0, 4.0])


def test_vec_identity_and_scalar():
    np.testing.assert_array_equal(vec(np.eye(2)), [1.0, 0.0, 0.0, 1.0])
    np.testing.assert_array_equal(vec(np.array([[7.5]])), [7.5])


def test_unvec_inverts_vec():
    np.testing.assert_array_equal(unvec(np.array([1.0, 3.0, 2.0, 4.0]), 2, 2),
                                  [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(unvec([5.0], 1, 1), [[5.0]])


@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 3), (7, 5), (50, 50), (50, 7)])
def test_vec_round_trip_exact(rows, cols):
    rng = np.random.default_rng(rows * 100 + cols)
    x = rng.standard_normal((rows, cols))
    np.testing.assert_array_equal(unvec(vec(x), rows, cols), x)


def test_unvec_dimension_mismatch():
    with pytest.raises(ValueError):
        unvec(np.arange(5.0), 2, 2)
    with pytest.raises(ValueError, match="ndim=3"):
        vec(np.zeros((2, 2, 2)))


def test_kron_identities():
    np.testing.assert_array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))
    np.testing.assert_array_equal(kron(np.array([[2.0]]), np.eye(2)), 2.0 * np.eye(2))


def test_kron_entrywise_example():
    a = np.array([[1.0, 2.0]])
    b = np.array([[0.0], [1.0]])
    np.testing.assert_array_equal(kron(a, b), [[0.0, 0.0], [1.0, 2.0]])


def test_kron_mixed_product():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a, b, c, d = (rng.standard_normal((3, 3)) for _ in range(4))
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        scale = 1.0 + np.linalg.norm(rhs, "fro")
        assert np.linalg.norm(lhs - rhs, "fro") <= 1e-12 * scale


def test_vec_of_product_identities():
    rng = np.random.default_rng(1)
    for _ in range(5):
        m_rows, inner, n_cols = 3, 4, 2
        M = rng.standard_normal((m_rows, inner))
        Sig = rng.standard_normal((inner, n_cols))
        lhs = vec(M @ Sig)
        rhs = kron(Sig.T, np.eye(m_rows)) @ vec(M)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)
        v = rng.standard_normal(m_rows)
        s = rng.standard_normal(n_cols)
        np.testing.assert_allclose(vec(np.outer(v, s)),
                                   kron(s.reshape(-1, 1), np.eye(m_rows)) @ v,
                                   atol=1e-13)


def test_spectral_radius_cases():
    assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9, abs=1e-12)
    assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(0.0, abs=1e-12)
    psi = np.deg2rad(40.0)
    rot = 0.7 * np.array([[np.cos(psi), -np.sin(psi)], [np.sin(psi), np.cos(psi)]])
    assert spectral_radius(rot) == pytest.approx(0.7, rel=1e-10)
    assert spectral_radius(np.zeros((0, 0))) == 0.0


def test_spectral_radius_rejects_non_square():
    with pytest.raises(ValueError):
        spectral_radius(np.zeros((2, 3)))


def test_spectral_radius_below_induced_norms():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal((4, 4))
        rho = spectral_radius(x)
        for ord_ in (1, 2, np.inf):
            assert rho <= np.linalg.norm(x, ord_) + 1e-12


def test_expm_zero_and_diagonal():
    np.testing.assert_array_equal(expm(np.zeros((3, 3))), np.eye(3))
    np.testing.assert_allclose(expm(np.diag([1.0, -2.0])),
                               np.diag([np.e, np.exp(-2.0)]), rtol=1e-13)


def test_expm_matches_taylor_series():
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.standard_normal((4, 4))
        x *= 0.9 / np.linalg.norm(x, 2)
        # Horner evaluation of sum_{k<=30} x^k / k!
        series = np.eye(4)
        for k in range(30, 0, -1):
            series = np.eye(4) + x @ series / k
        got = expm(x)
        assert np.linalg.norm(got - series, "fro") <= 1e-10 * np.linalg.norm(series, "fro")


def test_expm_rejects_bad_input():
    with pytest.raises(ValueError):
        expm(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        expm(np.array([[np.nan]]))


def test_psd_sqrt_reconstructs():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 4))
    s = g @ g.T
    L = psd_sqrt(s)
    np.testing.assert_allclose(L @ L.T, s, atol=1e-10)
    # rank-deficient and zero cases
    np.testing.assert_array_equal(psd_sqrt(np.zeros((3, 3))), np.zeros((3, 3)))
    v = rng.standard_normal(3)
    s1 = np.outer(v, v)
    L1 = psd_sqrt(s1)
    np.testing.assert_allclose(L1 @ L1.T, s1, atol=1e-12)
