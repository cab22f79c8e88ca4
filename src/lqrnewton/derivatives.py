"""Closed-form derivatives of the discounted LQR performance with respect
to the policy parameters theta = vec(K): the policy gradient, the
Gauss-Newton curvature surrogate, the Jacobian of vec(P) with respect to
theta, the distribution-sensitivity term Lambda, and the exact Hessian.

Key quantities, for a stabilizing gain K with closed loop Acl = A - B K,
value matrix P and discounted state correlation Sigma:

    S      = R K - gamma * B' P Acl          (gradient kernel, m x n)
    E      = R + gamma * B' P B              (m x m, positive definite)
    grad   = 2 * vec(S Sigma)                (length m*n)
    H_gn   = 2 * Sigma (x) E                 (Gauss-Newton, PD when Sigma is)
    dP_i   = E_i'S + S'E_i + gamma Acl' dP_i Acl  (E_i: unit m x n at theta_i)
    jac    = [vec(dP_1) ... vec(dP_mn)]  (d vec(P) / d theta)
    Lambda = -2 [ (Sigma Acl' (x) B') jac + jac' (Acl Sigma (x) B) ]
    H      = H_gn + gamma * Lambda           (exact Hessian)

S vanishes at the optimal gain, so grad, jac and Lambda all vanish there and
the Gauss-Newton surrogate matches the exact Hessian.

Neither the Gauss-Newton step nor Lambda needs a Kronecker product. Since
(Sigma (x) E) vec(X) = vec(E X Sigma), the Gauss-Newton step is

    -H_gn^-1 grad = -vec(E^-1 S)

wherever Sigma is invertible. That is Hewer's policy-improvement step
K <- K - E^-1 S, which is defined wherever E is, so the optimizer takes it
even where Sigma, and H_gn with it, is singular. Column i of the first
term of Lambda is vec(B' dP_i Acl Sigma), and the second term is the
transpose of the first, so

    Lambda = -2 (T1 + T1'),  T1 = [vec(B' dP_1 Acl Sigma) ... vec(B' dP_mn Acl Sigma)]

Every piece above is a cached property of :class:`Evaluation`, the one
object that holds a gain's pieces; the functions here read them from a
fresh Evaluation, and :func:`exact_hessian` returns the Evaluation itself.
Hewer's step E^-1 S is the Gauss-Newton direction. The functions are pure
and thread-safe; an Evaluation caches, so give each thread its own. The
dP_i are independent of one another (dP_i only needs the i-th right-hand
side); their right-hand sides are built in one array and solved as one
stack by the Stein solver that gives P.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

import numpy as np

from .errors import SingularT
from .linalg import kron, vec
from .lqr import (Gain, LqrProblem, ValueSolution, _cost_of, _not_stabilizing,
                  _require_finite, _stein_solve, _value_of, closed_loop, solve_sigma,
                  solve_value)

_COND_LIMIT = 1e14


class Evaluation:
    """Every closed-form piece at one gain, each computed at most once.

    Acl = A - B K is formed on construction; the eigenvalues of
    sqrt(gamma) * Acl, the margin, P and q, Sigma, J, S, E = R + gamma B'PB,
    grad, H_gn, Hewer's step E^-1 S, the dP stack and jac_vecP, Lambda and
    H_exact are computed on first read and kept. That one eigenvalue solve
    is the gain's only stability check: P and Sigma are solved without
    another. Reading P or Sigma at a non-stabilizing gain raises
    NotStabilizing, and reading dP at a gain numerically on the stabilizing
    boundary raises SingularT. Reads return the kept arrays themselves; do
    not modify them in place.
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
        return float(_cost_of(self.prob, self.P, self.q))

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

    @cached_property
    def hewer_step(self) -> np.ndarray:
        """E^-1 S, so that K - E^-1 S is Hewer's policy-improvement step.

        -vec(E^-1 S) = -H_gn^-1 grad wherever Sigma is invertible; unlike
        H_gn it needs only P, not Sigma.
        """
        return np.linalg.solve(self.E, self.S)

    @cached_property
    def dP(self) -> np.ndarray:
        """The m*n Stein equations dP_i solved as one stack, shape
        (m*n, n, n); slice i = c*m + r is dP/dK[r, c].

        The Stein operator's eigenvalues are 1 - mu_i mu_j over the
        eigenvalues mu of sqrt(gamma) * Acl; a gain with
        1 / min |1 - mu_i mu_j| above _COND_LIMIT is numerically on the
        stabilizing boundary: SingularT.
        """
        Acl, S, mu = self.Acl, self.S, self.eigvals
        n, m = Acl.shape[0], S.shape[0]
        gap = np.min(np.abs(1.0 - np.multiply.outer(mu, mu)))
        cond = 1.0 / max(gap, 1e-300)
        if cond > _COND_LIMIT:
            raise SingularT(
                f"Stein operator condition ~{cond:.2e} exceeds {_COND_LIMIT:.0e}; "
                f"gain is numerically on the stabilizing boundary")
        # C[c, r] = S'E_i (column c is S[r]') plus E_i'S (row c is S[r]), i = c*m + r
        C = np.zeros((n, m, n, n))
        rows = np.arange(n)
        C[rows, :, :, rows] = S
        C[rows, :, rows, :] += S
        return _stein_solve(Acl.T, C.reshape(n * m, n, n), self.prob.gamma)

    @cached_property
    def jac_vecP(self) -> np.ndarray:
        """The (n^2, m*n) Jacobian of vec(P); column i is vec(dP_i), a view
        of the dP stack."""
        # each dP_i is symmetric, so its row-major ravel is vec(dP_i)
        return self.dP.reshape(len(self.dP), -1).T

    @cached_property
    def Lambda(self) -> np.ndarray:
        """-2 (T1 + T1') from the dP stack; exactly symmetric as computed."""
        X = self.prob.B.T @ self.dP @ (self.Acl @ self.Sigma)
        # row i of T1t is vec(B' dP_i Acl Sigma)', i.e. column i of T1
        T1t = X.swapaxes(1, 2).reshape(len(self.dP), -1)
        return -2.0 * (T1t + T1t.T)

    @cached_property
    def H_exact(self) -> np.ndarray:
        """H_gn + gamma * Lambda; exactly symmetric as computed, since both
        terms are."""
        return self.H_gn + self.prob.gamma * self.Lambda


class Trials:
    """Line-search trial gains theta0 + alpha_j * direction, one per entry of
    ``alphas``, evaluated as stacks.

    One eigenvalue call checks every trial and one Stein call solves P for
    the stabilizing ones; a non-stabilizing trial is never solved. The
    margin, P, q and J formulas are the ones :class:`Evaluation` uses,
    broadcast over the trials (see ``_stein_solve`` for when a stacked P
    can differ from a solve of its own in the last bits). ``stabilizing``
    and ``J`` (NaN where not stabilizing) are vectors over the trials. A
    non-finite trial gain raises ValueError, as Gain does.
    """

    def __init__(self, prob: LqrProblem, theta0: np.ndarray, direction: np.ndarray,
                 alphas: np.ndarray):
        k = len(alphas)
        # row j is vec(K_j); unvec each row into the view Gain.from_theta gives
        K = (theta0 + alphas[:, None] * direction).reshape(k, prob.n, prob.m)
        K = K.swapaxes(-1, -2)
        _require_finite(K, "K")
        Acl = prob.A - prob.B @ K
        self.prob, self.K, self.Acl = prob, K, Acl
        self.eigvals = np.linalg.eigvals(np.sqrt(prob.gamma) * Acl)
        margin = 1.0 - np.max(np.abs(self.eigvals), axis=-1)
        self.stabilizing = s = margin > 0.0
        self.J = np.full(k, np.nan)
        if s.any():
            if not s.all():
                K, Acl = K[s], Acl[s]
            self._P, self._q = _value_of(prob, K, Acl)
            self.J[s] = _cost_of(prob, self._P, self._q)

    def evaluation(self, j: int) -> Evaluation:
        """Trial j's Evaluation, carrying the eigenvalues, P, q and J
        computed here."""
        ev = Evaluation(self.prob, Gain(self.K[j]))
        ev.eigvals = self.eigvals[j]
        if self.stabilizing[j]:
            i = int(np.count_nonzero(self.stabilizing[:j]))
            ev._value = ValueSolution(self._P[i], float(self._q[i]))
            ev.J = float(self.J[j])
        return ev


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


def jacobian_vecP(prob: LqrProblem, gain: Gain) -> np.ndarray:
    """Jacobian of vec(P) with respect to theta, shape (n^2, m*n).

    Column i is vec(dP/dtheta_i), which solves the Stein equation
    dP = E_i'S + S'E_i + gamma Acl' dP Acl in the closed loop of P. Every
    column is the vec of a symmetric matrix. Vanishes at the optimal gain,
    where S = 0. Raises SingularT for a gain numerically on the stabilizing
    boundary.
    """
    return Evaluation(prob, gain).jac_vecP


def lambda_term(prob: LqrProblem, gain: Gain, jac: np.ndarray) -> np.ndarray:
    """Distribution-sensitivity part of the Hessian, from a precomputed jac.

    Lambda = -2 [ (Sigma Acl' (x) B') jac + jac' (Acl Sigma (x) B) ]
           = -2 (T1 + T1'),  column i of T1 = vec(B' dP_i Acl Sigma),
    where column i of jac is vec(dP_i). Exactly symmetric as computed; zero
    whenever B = 0 or jac = 0 (at the optimum). ``jac`` must come from
    :func:`jacobian_vecP` at the same problem and gain.
    """
    n, mn = prob.n, prob.m * prob.n
    if jac.shape != (n * n, mn):
        raise ValueError(f"jac shape {jac.shape} does not match ({n * n}, {mn})")
    ev = Evaluation(prob, gain)
    # column i of jac is vec(dP_i): unvec each one
    ev.dP = jac.T.reshape(mn, n, n).swapaxes(1, 2)
    return ev.Lambda


def exact_hessian(prob: LqrProblem, gain: Gain,
                  evaluation: Optional[Evaluation] = None) -> Evaluation:
    """The Evaluation at a gain with its exact Hessian assembled.

    H_exact = H_gn + gamma * Lambda is exactly symmetric as computed; the
    gradient, S, H_gn, jac_vecP and Lambda are read from the same returned
    Evaluation. An ``evaluation`` of this same problem and gain lends its
    already computed pieces and is the one returned.
    """
    ev = evaluation if evaluation is not None else Evaluation(prob, gain)
    if ev.prob is not prob or ev.gain is not gain:
        raise ValueError("evaluation was built for a different problem or gain")
    ev.H_exact  # assembled here, so the returned Evaluation holds it
    return ev
