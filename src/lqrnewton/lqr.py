"""Discounted stochastic LQR: problem container, stabilization checks,
discounted Lyapunov solvers for the value and state-correlation matrices,
performance evaluation, and the optimal gain via the structure-preserving
doubling algorithm for the discrete Riccati equation, finished by one
Hewer (policy-improvement) step.

Conventions
-----------
Dynamics are s' = A s + B a + w with zero-mean noise of covariance Sigma_w
and initial-state covariance Sigma_0. The policy is a = -K s with K of shape
(m, n); its flat parameter vector is theta = vec(K) (column-major). A gain is
gamma-stabilizing when rho(sqrt(gamma) * (A - B K)) < 1, which is exactly the
condition for the discounted sums below to converge.

All functions are pure; solver state is local to each call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg.lapack import dgetrf as _getrf, dgetrs as _getrs

from .errors import NoConvergence, NotStabilizing
from .linalg import spectral_radius, unvec, vec

# Above this state dimension the n^2 x n^2 Kronecker solve is replaced by
# a squared-iteration (doubling) evaluation of the same fixed point.
_DIRECT_SOLVE_MAX_DIM = 20
# Relative residual every doubling solve must reach; see _stein_solve.
_RESID_TOL = 1e-10
_SYM_TOL = 1e-9
_PSD_TOL = 1e-9


def _as_matrix(x, name: str) -> np.ndarray:
    a = np.atleast_2d(np.asarray(x, dtype=float))
    if a.ndim != 2:
        raise ValueError(f"{name} must be a matrix, got ndim={a.ndim}")
    _require_finite(a, name)
    return a


def _require_finite(a: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")


def _check_symmetric(a: np.ndarray, name: str) -> np.ndarray:
    scale = 1.0 + np.linalg.norm(a, "fro")
    if np.linalg.norm(a - a.T, "fro") > _SYM_TOL * scale:
        raise ValueError(f"{name} must be symmetric")
    return (a + a.T) / 2.0


def _check_psd(a: np.ndarray, name: str) -> None:
    w = np.linalg.eigvalsh(a)
    if w.size and w[0] < -_PSD_TOL * max(1.0, abs(w[-1])):
        raise ValueError(f"{name} must be positive semidefinite (min eig {w[0]:.3e})")


def _check_pd(a: np.ndarray, name: str) -> None:
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} must be positive definite") from None


@dataclass(frozen=True)
class LqrProblem:
    """Discounted stochastic LQR instance.

    Fields
    ------
    A, B : system matrices, shapes (n, n) and (n, m)
    Q, R : state and input cost weights; Q symmetric PSD, R symmetric PD
    gamma : discount factor in (0, 1)
    Sigma_w : process-noise covariance, symmetric PSD, shape (n, n)
    Sigma_0 : initial-state covariance, symmetric PSD, shape (n, n)

    Symmetric inputs are re-symmetrized on construction so that downstream
    algebra preserves symmetry exactly. Scalars are accepted for 1x1 blocks.
    """

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    gamma: float
    Sigma_w: np.ndarray
    Sigma_0: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        B = _as_matrix(self.B, "B")
        if B.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got {B.shape}")
        Q = _check_symmetric(_as_matrix(self.Q, "Q"), "Q")
        R = _check_symmetric(_as_matrix(self.R, "R"), "R")
        m = B.shape[1]
        if Q.shape != (n, n):
            raise ValueError(f"Q must be {n}x{n}, got {Q.shape}")
        if R.shape != (m, m):
            raise ValueError(f"R must be {m}x{m}, got {R.shape}")
        Sw = _check_symmetric(_as_matrix(self.Sigma_w, "Sigma_w"), "Sigma_w")
        S0 = _check_symmetric(_as_matrix(self.Sigma_0, "Sigma_0"), "Sigma_0")
        if Sw.shape != (n, n) or S0.shape != (n, n):
            raise ValueError("Sigma_w and Sigma_0 must be n x n")
        _check_psd(Q, "Q")
        _check_pd(R, "R")
        _check_psd(Sw, "Sigma_w")
        _check_psd(S0, "Sigma_0")
        gamma = float(self.gamma)
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
        for name, val in (("A", A), ("B", B), ("Q", Q), ("R", R),
                          ("gamma", gamma), ("Sigma_w", Sw), ("Sigma_0", S0)):
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class Gain:
    """Linear state-feedback gain K (policy a = -K s) with theta = vec(K)."""

    K: np.ndarray

    def __post_init__(self):
        K = _as_matrix(self.K, "K")
        object.__setattr__(self, "K", K)

    @property
    def theta(self) -> np.ndarray:
        return vec(self.K)

    @property
    def m(self) -> int:
        return self.K.shape[0]

    @property
    def n(self) -> int:
        return self.K.shape[1]

    @classmethod
    def from_theta(cls, theta: np.ndarray, m: int, n: int) -> "Gain":
        return cls(unvec(theta, m, n))

    @classmethod
    def zero(cls, prob: LqrProblem) -> "Gain":
        return cls(np.zeros((prob.m, prob.n)))


class ValueSolution(NamedTuple):
    """Quadratic value function V(s) = s' P s + q for a fixed gain."""

    P: np.ndarray
    q: float


def closed_loop(prob: LqrProblem, gain: Gain) -> np.ndarray:
    """Closed-loop matrix A - B K."""
    if gain.K.shape != (prob.m, prob.n):
        raise ValueError(
            f"gain shape {gain.K.shape} does not match problem ({prob.m}, {prob.n})")
    return prob.A - prob.B @ gain.K


def is_gamma_stabilizing(prob: LqrProblem, gain: Gain) -> tuple[bool, float]:
    """Check rho(sqrt(gamma) * (A - B K)) < 1.

    Returns (stabilizing, margin) where margin = 1 - rho. A positive margin
    means the discounted closed-loop sums converge.
    """
    rho = spectral_radius(np.sqrt(prob.gamma) * closed_loop(prob, gain))
    return rho < 1.0, 1.0 - rho


def _not_stabilizing(what: str, margin: float) -> NotStabilizing:
    return NotStabilizing(
        f"{what} requires a gamma-stabilizing gain "
        f"(rho(sqrt(gamma)*Acl) = {1.0 - margin:.6f} >= 1)")


def _checked_closed_loop(prob: LqrProblem, gain: Gain, what: str,
                         Acl: Optional[np.ndarray]) -> np.ndarray:
    """The closed loop of a gain, checked to be gamma-stabilizing unless the
    caller passes the closed loop it has already checked."""
    if Acl is not None:
        return Acl
    ok, margin = is_gamma_stabilizing(prob, gain)
    if not ok:
        raise _not_stabilizing(what, margin)
    return closed_loop(prob, gain)


def _stein_solve(G: np.ndarray, M: np.ndarray, gamma: float) -> np.ndarray:
    """Solve X = M + gamma * G X G' for symmetric M with gamma*rho(G)^2 < 1.

    M is one (n, n) right-hand side or a stack (k, n, n) of them. G is one
    (n, n) matrix shared by every slice, or a (k, n, n) stack paired with M
    slice by slice. The result has M's shape, every slice symmetrized.

    For n <= 20 the vectorized system (I - gamma * G (x) G) vec(X) = vec(M)
    is LU-factored once per G; every slice is solved against its G's
    factorization and refined once with its computed residual, so a paired
    slice gets the same LAPACK calls as a solve of its own. Larger systems
    use the squared-iteration form of the same geometric series (F <- F @ F
    doubles the number of accumulated terms per step) until every slice's
    increment is below 1e-15 * max(1, ||X||_F); a stack therefore iterates
    until its slowest slice converges. Each doubled slice must then satisfy
    ||M + gamma G X G' - X||_F <= 1e-10 * (1 + ||X||_F); the slices are
    corrected once by doubling on their residual, and NoConvergence is
    raised if any still misses the bound. The doubling copies M once and
    runs, residual gate, correction and symmetrization included, in two work
    arrays of that shape (a third only for the correction pass), with the
    arithmetic of the plain expressions, so its results are the same bits.
    """
    n = G.shape[-1]
    Gt = G.swapaxes(-1, -2)
    if n <= _DIRECT_SOLVE_MAX_DIM:
        Gs = G.reshape(-1, n, n)
        # I - gamma * G (x) G, entry (i*n + k, j*n + l) = G[i, j] * G[k, l]
        T = (Gs[:, :, None, :, None] * Gs[:, None, :, None, :]).reshape(-1, n * n, n * n)
        T *= -gamma
        T.reshape(len(T), -1)[:, ::n * n + 1] += 1.0
        lus = [_getrf(t, overwrite_a=True) for t in T]
        if any(info != 0 for _, _, info in lus):
            raise np.linalg.LinAlgError("discounted Lyapunov operator is singular")

        def solve(rhs):
            # the column-major vec of each slice is one column of its G's solve
            cols = rhs.swapaxes(-1, -2).reshape(len(lus), -1, n * n)
            X = [_getrs(lu, piv, c.T)[0].T for (lu, piv, _), c in zip(lus, cols)]
            return np.concatenate(X).reshape(M.shape).swapaxes(-1, -2)

        X = solve(M)
        # one refinement pass keeps the residual near round-off
        X = X + solve(M + gamma * G @ X @ Gt - X)
        return (X + X.swapaxes(-1, -2)) / 2.0
    acc = np.array(np.broadcast_to(M, np.broadcast_shapes(G.shape, M.shape)))
    X, tmp = np.empty_like(acc), np.empty_like(acc)
    _doubling(G, acc, gamma, X, tmp)  # acc is free from here on
    R = _residual(G, M, X, gamma, tmp, acc)
    if not _within_bound(R, X):
        X += _doubling(G, R, gamma, acc, np.empty_like(X))
        if not _within_bound(_residual(G, M, X, gamma, tmp, acc), X):
            raise NoConvergence(
                "discounted Lyapunov doubling missed its residual bound; the "
                "closed loop is too close to the stabilizing boundary")
    return X


def _sq_norm(X: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of a matrix, or of each slice of a stack."""
    v = X.reshape(*X.shape[:-2], -1)
    return np.vecdot(v, v)


def _within_bound(R: np.ndarray, X: np.ndarray) -> bool:
    # an X whose squared norm overflows would pass as inf <= inf
    sq = _sq_norm(X)
    bound = _RESID_TOL * (1.0 + np.sqrt(sq))
    return bool((np.isfinite(sq) & (np.sqrt(_sq_norm(R)) <= bound)).all())


def _residual(G: np.ndarray, M: np.ndarray, X: np.ndarray, gamma: float,
              out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """M + gamma * G X G' - X, written to out; tmp is overwritten."""
    np.matmul(np.matmul(gamma * G, X, out=tmp), G.swapaxes(-1, -2), out=out)
    np.add(M, out, out=out)
    return np.subtract(out, X, out=out)


def _doubling(G: np.ndarray, X: np.ndarray, gamma: float,
              out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Sum X + F X F' + F^2 X F^2' + ... (F = sqrt(gamma) G) by squaring F,
    accumulating in X itself; the symmetrized sum is written to out. out and
    tmp are work arrays of X's shape."""
    F = np.sqrt(gamma) * G
    F2 = np.empty_like(F)
    for _ in range(100):
        delta = np.matmul(np.matmul(F, X, out=out), F.swapaxes(-1, -2), out=tmp)
        X += delta
        F, F2 = np.matmul(F, F, out=F2), F
        # ||delta||_F <= 1e-15 * max(1, ||X||_F), squared
        if (_sq_norm(delta) <= 1e-30 * np.maximum(_sq_norm(X), 1.0)).all():
            np.add(X, X.swapaxes(-1, -2), out=out)
            out /= 2.0
            return out
    raise NoConvergence("discounted Lyapunov doubling iteration did not converge")


def solve_value(prob: LqrProblem, gain: Gain, *,
                checked_Acl: Optional[np.ndarray] = None) -> ValueSolution:
    """Value matrix P and offset q for a gamma-stabilizing gain.

    P is the fixed point of P = Q + K' R K + gamma * Acl' P Acl and
    q = gamma / (1 - gamma) * tr(P Sigma_w). The returned P is symmetrized
    and satisfies the fixed point to within ~1e-10 * (1 + ||P||_F).

    Raises NotStabilizing for a gain outside the stabilizing set. A caller
    that has already found the gain gamma-stabilizing passes its closed
    loop A - B K as ``checked_Acl``; the eigenvalue check is then skipped
    and the matrix is used as given, so it must be that closed loop.
    """
    Acl = _checked_closed_loop(prob, gain, "solve_value", checked_Acl)
    P, q = _value_of(prob, gain.K, Acl)
    return ValueSolution(P, float(q))


def _value_of(prob: LqrProblem, K: np.ndarray,
              Acl: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P and q of gains K with gamma-stabilizing closed loops Acl = A - B K.

    Broadcasts over leading axes: K of shape (..., m, n) and Acl of shape
    (..., n, n) give P of shape (..., n, n) and q of shape (...), all P
    solved in one Stein call. The closed loops are not checked here.
    """
    M = prob.Q + K.swapaxes(-1, -2) @ prob.R @ K
    M = (M + M.swapaxes(-1, -2)) / 2.0
    P = _stein_solve(Acl.swapaxes(-1, -2), M, prob.gamma)
    q = prob.gamma / (1.0 - prob.gamma) * np.trace(P @ prob.Sigma_w, axis1=-2, axis2=-1)
    return P, q


def _cost_of(prob: LqrProblem, P: np.ndarray, q) -> np.ndarray:
    """Performance tr(P Sigma_0) + q, broadcast over leading axes of P and q."""
    return np.trace(P @ prob.Sigma_0, axis1=-2, axis2=-1) + q


def solve_sigma(prob: LqrProblem, gain: Gain, *,
                checked_Acl: Optional[np.ndarray] = None) -> np.ndarray:
    """Discounted state correlation matrix Sigma for a stabilizing gain.

    Solves Sigma - gamma * Acl Sigma Acl' = Sigma_0 + gamma/(1-gamma) * Sigma_w.
    The result is symmetric PSD (up to round-off) and satisfies the equation
    to within ~1e-10 * (1 + ||Sigma||_F).

    Raises NotStabilizing for a gain outside the stabilizing set;
    ``checked_Acl`` skips that check as in :func:`solve_value`.
    """
    Acl = _checked_closed_loop(prob, gain, "solve_sigma", checked_Acl)
    M = prob.Sigma_0 + prob.gamma / (1.0 - prob.gamma) * prob.Sigma_w
    return _stein_solve(Acl, M, prob.gamma)


def performance(prob: LqrProblem, gain: Gain) -> float:
    """Expected discounted cost J = tr(P Sigma_0) + q under the gain's policy."""
    P, q = solve_value(prob, gain)
    return float(_cost_of(prob, P, q))


def value_at(sol: ValueSolution, s: np.ndarray) -> float:
    """Evaluate V(s) = s' P s + q."""
    s = np.asarray(s, dtype=float).ravel()
    if s.size != sol.P.shape[0]:
        raise ValueError(f"state length {s.size} does not match P {sol.P.shape}")
    return float(s @ sol.P @ s) + sol.q


def action_value_at(prob: LqrProblem, sol: ValueSolution,
                    s: np.ndarray, a: np.ndarray) -> float:
    """Evaluate the action-value of (s, a) under the gain that produced sol.

    Q(s, a) = s'(Q + gamma A' P A)s + 2 gamma s' A' P B a
              + a'(R + gamma B' P B)a + q,
    which agrees with value_at(sol, s) at the policy action a = -K s.
    """
    s = np.asarray(s, dtype=float).ravel()
    a = np.asarray(a, dtype=float).ravel()
    if s.size != prob.n or a.size != prob.m:
        raise ValueError("state/action dimensions do not match the problem")
    g, A, B, P = prob.gamma, prob.A, prob.B, sol.P
    quad_s = float(s @ (prob.Q + g * A.T @ P @ A) @ s)
    cross = 2.0 * g * float(s @ A.T @ P @ B @ a)
    quad_a = float(a @ (prob.R + g * B.T @ P @ B) @ a)
    return quad_s + cross + quad_a + sol.q


def optimal_gain(prob: LqrProblem, tol: float = 1e-10,
                 max_iter: int = 200) -> tuple[Gain, ValueSolution]:
    """Optimal gain K* = (R + g B'P*B)^-1 g B'P*A via the structure-preserving
    doubling algorithm (SDA) for the discrete Riccati equation.

    The discount is folded into the plant (A_0 = sqrt(g) A, and
    G_0 = g B R^-1 B'), and from H_0 = Q each step computes, with
    W = I + G_k H_k,

        A_{k+1} = A_k W^-1 A_k
        G_{k+1} = G_k + A_k W^-1 G_k A_k'
        H_{k+1} = H_k + A_k' H_k W^-1 A_k

    so that H_k converges quadratically to P*, with no stabilizing starting
    gain. The iteration stops once ||H_{k+1} - H_k||_F <= tol (1 + ||H_{k+1}||_F).
    The gain formed from that H is checked and its value P solved; one
    Hewer step, K* = (R + g B'PB)^-1 g B'PA, then brings K* to policy
    iteration's accuracy, and the value returned is solved at K* itself.

    Raises NoConvergence on a non-finite iterate, after max_iter steps, or
    when the K* found is not gamma-stabilizing (e.g. B = 0 with an unstable
    A, or an unstable mode that Q does not see).
    """
    g, n = prob.gamma, prob.n
    A = np.sqrt(g) * prob.A
    G = g * prob.B @ np.linalg.solve(prob.R, prob.B.T)
    H = prob.Q
    # an unstabilizable plant overflows; that is caught below, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            V = np.linalg.solve(np.eye(n) + G @ H, np.hstack((A, G)))
            G = G + A @ V[:, n:] @ A.T
            H_next = H + A.T @ H @ V[:, :n]
            A = A @ V[:, :n]
            G, H_next = (G + G.T) / 2.0, (H_next + H_next.T) / 2.0
            step, H = np.linalg.norm(H_next - H, "fro"), H_next
            size = np.linalg.norm(H, "fro")
            # a norm that overflows must not pass the test below as inf <= inf
            if not (np.isfinite(step + size) and np.isfinite(A).all()
                    and np.isfinite(G).all()):
                raise NoConvergence("Riccati doubling diverged; the pair (A, B) "
                                    "appears not to be gamma-stabilizable")
            if step <= tol * (1.0 + size):
                break
        else:
            raise NoConvergence(f"Riccati doubling did not converge in {max_iter} iterations")
    # H fixes K* only to the Riccati iteration's accuracy; one Hewer step from
    # the exact value of that gain brings it to policy iteration's
    P = H
    for _ in range(2):
        E = prob.R + g * prob.B.T @ P @ prob.B
        best = Gain(np.linalg.solve(E, g * prob.B.T @ P @ prob.A))
        ok, margin = is_gamma_stabilizing(prob, best)
        if not ok:
            raise NoConvergence(
                f"the Riccati gain is not gamma-stabilizing (margin {margin:.3g}); (A, B) "
                f"is not gamma-stabilizable or Q misses an unstable mode")
        value = solve_value(prob, best, checked_Acl=closed_loop(prob, best))
        P = value.P
    return best, value
