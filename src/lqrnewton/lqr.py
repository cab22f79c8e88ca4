"""Discounted stochastic LQR: problem container, stabilization checks,
discounted Lyapunov solvers for the value and state-correlation matrices,
performance evaluation, and the optimal gain via policy iteration (Hewer's
algorithm, whose step is the Gauss-Newton step of
:class:`lqrnewton.derivatives.Evaluation` with unit step size).

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
    raised if any still misses the bound.
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
    X = _doubling(G, M, gamma)
    R = M + gamma * G @ X @ Gt - X
    if not _within_bound(R, X):
        X = X + _doubling(G, R, gamma)
        if not _within_bound(M + gamma * G @ X @ Gt - X, X):
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


def _doubling(G: np.ndarray, M: np.ndarray, gamma: float) -> np.ndarray:
    X = M
    F = np.sqrt(gamma) * G
    for _ in range(100):
        delta = F @ X @ F.swapaxes(-1, -2)
        X = X + delta
        F = F @ F
        # ||delta||_F <= 1e-15 * max(1, ||X||_F), squared
        if (_sq_norm(delta) <= 1e-30 * np.maximum(_sq_norm(X), 1.0)).all():
            return (X + X.swapaxes(-1, -2)) / 2.0
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


def _policy_iteration(prob: LqrProblem, K: np.ndarray,
                      tol: float, max_iter: int) -> np.ndarray:
    # derivatives imports this module, so Evaluation is imported at call time
    from .derivatives import Evaluation
    for _ in range(max_iter):
        step = Evaluation(prob, Gain(K)).hewer_step
        K = K - step
        if np.linalg.norm(step, "fro") <= tol * (1.0 + np.linalg.norm(K, "fro")):
            return K
    raise NoConvergence(
        f"policy iteration did not converge in {max_iter} iterations "
        f"(non-stabilizable pair or too tight a tolerance?)")


def optimal_gain(prob: LqrProblem, tol: float = 1e-10, max_iter: int = 200,
                 seed_gain: Optional[Gain] = None) -> tuple[Gain, ValueSolution]:
    """Optimal gain K* = (R + g B'P*B)^-1 g B'P*A via policy iteration.

    Each iteration solves for P at the current gain and takes Hewer's step
    K <- K - E^-1 S (``Evaluation.hewer_step``), the Gauss-Newton step with
    unit step size, until the step's norm drops below tol (relative to the
    new gain). If the starting gain (zero, or seed_gain)
    is not gamma-stabilizing, the discount is halved until it is and the
    solution is continued back up to the target discount, exploiting that
    any gain stabilizes for a small enough discount.

    Raises NoConvergence when no stabilizing discount path exists (e.g.
    B = 0 with an unstable A) or the iteration cap is hit.
    """
    K = seed_gain.K.copy() if seed_gain is not None else np.zeros((prob.m, prob.n))
    if K.shape != (prob.m, prob.n):
        raise ValueError("seed_gain shape does not match the problem")

    target = prob.gamma
    g = target
    rho_cl = spectral_radius(prob.A - prob.B @ K)
    for _ in range(128):
        if np.sqrt(g) * rho_cl < 1.0:
            break
        g /= 2.0
    else:
        raise NoConvergence("could not find a stabilizing starting discount")

    def at_discount(gam: float) -> LqrProblem:
        if gam == target:
            return prob
        return LqrProblem(prob.A, prob.B, prob.Q, prob.R, gam,
                          prob.Sigma_w, prob.Sigma_0)

    for _ in range(256):
        sub = at_discount(g)
        K = _policy_iteration(sub, K, tol, max_iter)
        if g == target:
            break
        g_next = min(target, 2.0 * g)
        rho_cl = spectral_radius(prob.A - prob.B @ K)
        for _ in range(200):
            if np.sqrt(g_next) * rho_cl < 1.0:
                break
            g_next = 0.5 * (g + g_next)
        else:
            raise NoConvergence("discount homotopy stalled; pair may not be stabilizable")
        if g_next - g <= 1e-12 * target:
            raise NoConvergence(
                "discount homotopy cannot reach the target discount; "
                "the pair (A, B) appears not to be gamma-stabilizable")
        g = g_next
    else:
        raise NoConvergence("discount homotopy did not reach the target discount")

    best = Gain(K)
    return best, solve_value(prob, best)
