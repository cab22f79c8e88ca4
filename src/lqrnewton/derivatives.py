"""Closed-form derivatives of the discounted LQR performance with respect
to the policy parameters theta = vec(K): the policy gradient, the
Gauss-Newton curvature surrogate, the Jacobian of vec(P) with respect to
theta, the distribution-sensitivity term Lambda, and the exact Hessian.

Key quantities, for a stabilizing gain K with closed loop Acl = A - B K,
value matrix P and discounted state correlation Sigma:

    S      = R K - gamma * B' P Acl          (gradient kernel, m x n)
    grad   = 2 * vec(S Sigma)                (length m*n)
    H_gn   = 2 * Sigma (x) (R + gamma B'PB)  (Gauss-Newton, PD when Sigma is)
    T      = I - gamma * Acl' (x) Acl'       (n^2 x n^2 Lyapunov operator)
    jac    = T^-1 [ (S' (x) I) K_mn + (I (x) S') ]   (d vec(P) / d theta)
    Lambda = -2 [ (Sigma Acl' (x) B') jac + jac' (Acl Sigma (x) B) ]
    H      = H_gn + gamma * Lambda           (exact Hessian)

S vanishes at the optimal gain, so grad, jac and Lambda all vanish there and
the Gauss-Newton surrogate matches the exact Hessian.

The functions here are pure and thread-safe; an :class:`Evaluation` caches,
so give each thread its own. The columns of jac are independent of one
another (column i only needs the i-th right-hand side), so callers may
compute or consume them in parallel; this implementation solves the whole
block against one factorization because the sizes are small.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import SingularT
from .linalg import commutation_matrix, kron, unvec, vec
from .lqr import (Gain, LqrProblem, ValueSolution, closed_loop,
                  is_gamma_stabilizing, solve_sigma, solve_value)

_COND_LIMIT = 1e14


@dataclass
class CurvatureReport:
    """Derivative bundle at one gain.

    Fields not needed by a caller are None (e.g. a gradient-only report).
    When assembled by :func:`exact_hessian` every field is populated,
    H_exact equals H_gn + gamma * Lambda exactly as computed, and
    ``h_exact_asym`` records the relative asymmetry of H_exact before its
    final symmetrization.
    """

    grad: np.ndarray
    S: np.ndarray
    H_gn: Optional[np.ndarray] = None
    Lambda: Optional[np.ndarray] = None
    H_exact: Optional[np.ndarray] = None
    jac_vecP: Optional[np.ndarray] = None
    h_exact_asym: Optional[float] = None


class Evaluation:
    """Every closed-form piece at one gain, each computed at most once.

    Acl = A - B K is formed on construction; the margin, P and q, Sigma, J,
    S, E = R + gamma B'PB, grad and H_gn are computed on first read and kept.
    Reading P or Sigma at a non-stabilizing gain raises NotStabilizing.
    Reads return the kept arrays themselves; do not modify them in place.
    """

    def __init__(self, prob: LqrProblem, gain: Gain):
        self.prob = prob
        self.gain = gain
        self.Acl = closed_loop(prob, gain)

    @cached_property
    def margin(self) -> float:
        """1 - rho(sqrt(gamma) * Acl); positive exactly when stabilizing."""
        return is_gamma_stabilizing(self.prob, self.gain)[1]

    stabilizing = property(lambda self: self.margin > 0.0)

    @cached_property
    def _value(self) -> ValueSolution:
        return solve_value(self.prob, self.gain)

    P = property(lambda self: self._value.P)
    q = property(lambda self: self._value.q)

    @cached_property
    def Sigma(self) -> np.ndarray:
        return solve_sigma(self.prob, self.gain)

    @cached_property
    def J(self) -> float:
        """Performance tr(P Sigma_0) + q."""
        return float(np.trace(self.P @ self.prob.Sigma_0)) + self.q

    @cached_property
    def S(self) -> np.ndarray:
        prob = self.prob
        return prob.R @ self.gain.K - prob.gamma * prob.B.T @ self.P @ self.Acl

    @cached_property
    def E(self) -> np.ndarray:
        prob = self.prob
        E = prob.R + prob.gamma * prob.B.T @ self.P @ prob.B
        return (E + E.T) / 2.0

    @cached_property
    def grad(self) -> np.ndarray:
        return 2.0 * vec(self.S @ self.Sigma)

    @cached_property
    def H_gn(self) -> np.ndarray:
        return 2.0 * kron(self.Sigma, self.E)


def policy_gradient(prob: LqrProblem, gain: Gain) -> np.ndarray:
    """Gradient of the performance J with respect to theta = vec(K).

    Equals 2 * vec(S Sigma) with S = R K - gamma B' P Acl; a length-(m*n)
    vector ordered like vec(K). Raises NotStabilizing for gains outside the
    stabilizing set (where J is undefined).
    """
    return Evaluation(prob, gain).grad


def gn_hessian(prob: LqrProblem, gain: Gain) -> np.ndarray:
    """Gauss-Newton curvature 2 * Sigma (x) (R + gamma B'PB).

    Symmetric, and positive definite whenever Sigma is positive definite.
    Agrees with the exact Hessian at the optimal gain.
    """
    return Evaluation(prob, gain).H_gn


def _jacobian_from(Acl: np.ndarray, S: np.ndarray, gamma: float) -> np.ndarray:
    """Solve T jac = (S' (x) I) K_mn + (I (x) S') column-block at once.

    T is LU-factored (never inverted) and its conditioning is estimated via
    the factored 1-norm reciprocal condition number; a gain numerically on
    the stabilizing boundary raises SingularT.
    """
    n = Acl.shape[0]
    m = S.shape[0]
    T = np.eye(n * n) - gamma * kron(Acl.T, Acl.T)
    anorm = np.linalg.norm(T, 1)
    lu, piv = scipy.linalg.lu_factor(T)
    rcond, info = scipy.linalg.lapack.dgecon(lu, anorm, norm="1")
    if info != 0 or rcond <= 0 or 1.0 / rcond > _COND_LIMIT:
        raise SingularT(
            f"Lyapunov operator condition ~{1.0 / max(rcond, 1e-300):.2e} exceeds "
            f"{_COND_LIMIT:.0e}; gain is numerically on the stabilizing boundary")
    rhs = kron(S.T, np.eye(n)) @ commutation_matrix(m, n) + kron(np.eye(n), S.T)
    jac = scipy.linalg.lu_solve((lu, piv), rhs)
    # each column is d vec(P)/d theta_i, the vec of a symmetric matrix;
    # symmetrize to remove round-off skew
    for i in range(jac.shape[1]):
        D = unvec(jac[:, i], n, n)
        jac[:, i] = vec((D + D.T) / 2.0)
    return jac


def jacobian_vecP(prob: LqrProblem, gain: Gain) -> np.ndarray:
    """Jacobian of vec(P) with respect to theta, shape (n^2, m*n).

    Column i is vec(dP/dtheta_i). Every column is the vec of a symmetric
    matrix, hence fixed by the commutation matrix K_nn. Vanishes at the
    optimal gain, where S = 0.
    """
    ev = Evaluation(prob, gain)
    return _jacobian_from(ev.Acl, ev.S, prob.gamma)


def _lambda_from(ev: Evaluation, jac: np.ndarray) -> np.ndarray:
    Sigma, Acl, B = ev.Sigma, ev.Acl, ev.prob.B
    term1 = kron(Sigma @ Acl.T, B.T) @ jac
    term2 = jac.T @ kron(Acl @ Sigma, B)
    return -2.0 * (term1 + term2)


def lambda_term(prob: LqrProblem, gain: Gain, jac: np.ndarray) -> np.ndarray:
    """Distribution-sensitivity part of the Hessian, from a precomputed jac.

    Lambda = -2 [ (Sigma Acl' (x) B') jac + jac' (Acl Sigma (x) B) ],
    symmetric by construction, zero whenever B = 0 or jac = 0 (at the
    optimum). ``jac`` must come from :func:`jacobian_vecP` at the same
    problem and gain.
    """
    mn = prob.m * prob.n
    if jac.shape != (prob.n * prob.n, mn):
        raise ValueError(
            f"jac shape {jac.shape} does not match ({prob.n * prob.n}, {mn})")
    return _lambda_from(Evaluation(prob, gain), jac)


def exact_hessian(prob: LqrProblem, gain: Gain,
                  evaluation: Optional[Evaluation] = None) -> CurvatureReport:
    """Assemble the gradient, both Hessians, and their ingredients at a gain.

    H_exact = H_gn + gamma * Lambda, symmetrized after assembly; the
    pre-symmetrization relative asymmetry is recorded in ``h_exact_asym``
    (it is at round-off level by construction). An ``evaluation`` of this
    same problem and gain lends its already computed pieces.
    """
    ev = evaluation if evaluation is not None else Evaluation(prob, gain)
    if ev.prob is not prob or ev.gain is not gain:
        raise ValueError("evaluation was built for a different problem or gain")
    jac = _jacobian_from(ev.Acl, ev.S, prob.gamma)
    Lam = _lambda_from(ev, jac)
    H_raw = ev.H_gn + prob.gamma * Lam
    denom = max(np.linalg.norm(H_raw, "fro"), np.finfo(float).tiny)
    asym = float(np.linalg.norm(H_raw - H_raw.T, "fro") / denom)
    H_exact = (H_raw + H_raw.T) / 2.0
    return CurvatureReport(grad=ev.grad, S=ev.S, H_gn=ev.H_gn, Lambda=Lam,
                           H_exact=H_exact, jac_vecP=jac, h_exact_asym=asym)
