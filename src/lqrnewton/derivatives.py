"""Closed-form derivatives of the discounted LQR performance with respect
to the policy parameters theta = vec(K): the policy gradient, the
Gauss-Newton curvature surrogate, the Jacobian of vec(P) with respect to
theta, the distribution-sensitivity term Lambda, and the exact Hessian.

Key quantities, for a stabilizing gain K with closed loop Acl = A - B K,
value matrix P and discounted state correlation Sigma:

    S      = R K - gamma * B' P Acl          (gradient kernel, m x n)
    grad   = 2 * vec(S Sigma)                (length m*n)
    H_gn   = 2 * Sigma (x) (R + gamma B'PB)  (Gauss-Newton, PD when Sigma is)
    dP_i   = E_i'S + S'E_i + gamma Acl' dP_i Acl  (E_i: unit m x n at theta_i)
    jac    = [vec(dP_1) ... vec(dP_mn)]  (d vec(P) / d theta)
    Lambda = -2 [ (Sigma Acl' (x) B') jac + jac' (Acl Sigma (x) B) ]
    H      = H_gn + gamma * Lambda           (exact Hessian)

S vanishes at the optimal gain, so grad, jac and Lambda all vanish there and
the Gauss-Newton surrogate matches the exact Hessian.

The functions here are pure and thread-safe; an :class:`Evaluation` caches,
so give each thread its own. The columns of jac are independent of one
another (column i only needs the i-th right-hand side); they are solved as
one stack by the Stein solver that gives P.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import SingularT
from .linalg import kron, vec
from .lqr import (Gain, LqrProblem, ValueSolution, _not_stabilizing, _stein_solve,
                  closed_loop, solve_sigma, solve_value)

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

    Acl = A - B K is formed on construction; the eigenvalues of
    sqrt(gamma) * Acl, the margin, P and q, Sigma, J, S, E = R + gamma B'PB,
    grad and H_gn are computed on first read and kept. That one eigenvalue
    solve is the gain's only stability check: P and Sigma are solved without
    another. Reading P or Sigma at a non-stabilizing gain raises
    NotStabilizing. Reads return the kept arrays themselves; do not modify
    them in place.
    """

    def __init__(self, prob: LqrProblem, gain: Gain):
        self.prob = prob
        self.gain = gain
        self.Acl = closed_loop(prob, gain)

    @cached_property
    def eigvals(self) -> np.ndarray:
        """Eigenvalues of sqrt(gamma) * Acl."""
        return np.linalg.eigvals(np.sqrt(self.prob.gamma) * self.Acl)

    @cached_property
    def margin(self) -> float:
        """1 - rho(sqrt(gamma) * Acl); positive exactly when stabilizing."""
        return 1.0 - float(np.max(np.abs(self.eigvals)))

    stabilizing = property(lambda self: self.margin > 0.0)

    def _checked_Acl(self, what: str) -> np.ndarray:
        if not self.stabilizing:
            raise _not_stabilizing(what, self.margin)
        return self.Acl

    @cached_property
    def _value(self) -> ValueSolution:
        return solve_value(self.prob, self.gain,
                           checked_Acl=self._checked_Acl("solve_value"))

    P = property(lambda self: self._value.P)
    q = property(lambda self: self._value.q)

    @cached_property
    def Sigma(self) -> np.ndarray:
        return solve_sigma(self.prob, self.gain,
                           checked_Acl=self._checked_Acl("solve_sigma"))

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


def _jacobian_from(ev: Evaluation) -> np.ndarray:
    """Solve the m*n Stein equations dP_i as one stack; i = c*m + r is K[r, c].

    The Stein operator's eigenvalues are 1 - mu_i mu_j over the eigenvalues
    mu of sqrt(gamma) * Acl (the evaluation's own); a gain with
    1 / min |1 - mu_i mu_j| above _COND_LIMIT is numerically on the
    stabilizing boundary: SingularT.
    """
    Acl, S, mu = ev.Acl, ev.S, ev.eigvals
    n, m = Acl.shape[0], S.shape[0]
    gap = np.min(np.abs(1.0 - np.multiply.outer(mu, mu)))
    cond = 1.0 / max(gap, 1e-300)
    if cond > _COND_LIMIT:
        raise SingularT(
            f"Stein operator condition ~{cond:.2e} exceeds {_COND_LIMIT:.0e}; "
            f"gain is numerically on the stabilizing boundary")
    # C[c, r] = E_i'S (row c is S[r]) plus its transpose, i = c*m + r
    C = np.zeros((n, m, n, n))
    rows = np.arange(n)
    C[rows, :, rows, :] = S
    C = C + C.transpose(0, 1, 3, 2)
    dP = _stein_solve(Acl.T, C.reshape(n * m, n, n), ev.prob.gamma)
    # each dP_i is symmetric, so its row-major ravel is vec(dP_i)
    return dP.reshape(n * m, n * n).T


def jacobian_vecP(prob: LqrProblem, gain: Gain) -> np.ndarray:
    """Jacobian of vec(P) with respect to theta, shape (n^2, m*n).

    Column i is vec(dP/dtheta_i), which solves the Stein equation
    dP = E_i'S + S'E_i + gamma Acl' dP Acl in the closed loop of P. Every
    column is the vec of a symmetric matrix, hence fixed by the commutation
    matrix K_nn. Vanishes at the optimal gain, where S = 0. Raises SingularT
    for a gain numerically on the stabilizing boundary.
    """
    return _jacobian_from(Evaluation(prob, gain))


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
    jac = _jacobian_from(ev)
    Lam = _lambda_from(ev, jac)
    H_raw = ev.H_gn + prob.gamma * Lam
    denom = max(np.linalg.norm(H_raw, "fro"), np.finfo(float).tiny)
    asym = float(np.linalg.norm(H_raw - H_raw.T, "fro") / denom)
    H_exact = (H_raw + H_raw.T) / 2.0
    return CurvatureReport(grad=ev.grad, S=ev.S, H_gn=ev.H_gn, Lambda=Lam,
                           H_exact=H_exact, jac_vecP=jac, h_exact_asym=asym)
