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

A product of the exact Hessian with one direction v = vec(V) needs neither
the stack nor H itself (Bu, Mesbahi, Fazel & Mesbahi, 2019). With dP[V] the
Stein solve on V'S + S'V in Acl' and Y the adjoint solve
Y = sym(B V Sigma Acl') + gamma Acl Y Acl',

    H v = 2 vec(E V Sigma) - 2 gamma [vec(B' dP[V] Acl Sigma) + 2 vec(S Y)]

Every piece above is a cached attribute of :class:`Evaluation`, the one
object that holds a gain's pieces; the functions here read them from a
fresh Evaluation, and :func:`exact_hessian` returns the Evaluation itself.
Hewer's step E^-1 S is the Gauss-Newton direction. The functions are pure
and thread-safe; an Evaluation caches, so give each thread its own. Every
Stein equation at a gain, P, Sigma, the dP stack and both solves of each
Hessian-vector product, is solved on the gain's one factored operator
(``Evaluation.stein``). The dP_i are independent of one another (dP_i only
needs the i-th right-hand side); their right-hand sides are built in one
array and solved as one stack.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence, SingularT
from .linalg import kron, vec
from .lqr import (_DIRECT_SOLVE_MAX_DIM, Gain, LqrProblem, SteinOperator, ValueSolution,
                  _eigvals, _not_stabilizing, _solve, _sym, closed_loop, solve_sigma,
                  solve_value)

_COND_LIMIT = 1e14


class cached:
    """A computed attribute kept in the instance ``__dict__`` on first read.

    Like functools.cached_property without its lock: a non-data descriptor,
    so the stored value shadows it from then on, and assigning the attribute
    sets the value directly.
    """

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class Evaluation:
    """Every closed-form piece at one gain, each computed at most once.

    Acl = A - B K is formed on construction; the stability check, the Stein
    operator, the eigenvalues of sqrt(gamma) * Acl and the margin, P and q,
    Sigma, Acl Sigma, J, S, E = R + gamma B'PB, grad, H_gn, Hewer's step
    E^-1 S, the dP stack and jac_vecP, Lambda and H_exact are computed on
    first read and kept.
    The stability check builds the gain's Stein operator, factored once,
    on which P, Sigma and every later solve run without another check. It
    is the library's one stability rule (``_operator``): the
    public solve_value, solve_sigma, performance and optimal_gain read an
    Evaluation, so every entry point accepts and refuses the same gains. For
    n <= 10 it is one eigenvalue solve (margin > 0). Above, it makes none:
    the operator's doubling powers certify the gain, and a gain whose
    powers are refused counts as not stabilizing, even where an eigenvalue
    solve would give a positive margin (a closed loop so non-normal that
    its powers overflow before they decay). There the eigenvalues and the
    margin are computed only when read, and the SingularT test of dP and
    hvp bounds the operator's conditioning from the doubling depth. On
    both branches a closed loop that is not finite is not stabilizing, with
    margin -inf, and so is one whose operator cannot be formed; Acl is
    formed with no errstate, so numpy may warn about its overflow first.
    :meth:`hvp` multiplies by H_exact without forming it. Reading the
    operator, P or Sigma at a non-stabilizing gain raises NotStabilizing,
    and reading dP or calling hvp at a gain numerically on the stabilizing
    boundary raises SingularT. Reads return the kept arrays themselves; do
    not modify them in place.
    """

    def __init__(self, prob: LqrProblem, gain: Gain):
        self.prob = prob
        self.gain = gain
        self.Acl = closed_loop(prob, gain)

    @cached
    def eigvals(self) -> np.ndarray:
        """Eigenvalues of sqrt(gamma) * Acl, all inf where Acl is not finite."""
        return _eigvals(self.prob, self.Acl)

    @cached
    def margin(self) -> float:
        """1 - rho(sqrt(gamma) * Acl); positive for every stabilizing gain,
        -inf for a closed loop that is not finite."""
        return 1.0 - float(np.abs(self.eigvals).max())

    @cached
    def _operator(self) -> SteinOperator | None:
        """The Stein operator of Acl, or None for a gain that is not
        gamma-stabilizing: the library's one stability rule.

        For n <= _DIRECT_SOLVE_MAX_DIM the gain must have margin > 0, and
        the eigenvalue solve comes before the factorization. Above, no
        eigenvalue is computed: reaching the doubling depth test certifies
        rho(sqrt(gamma) * Acl) < 1 (see :class:`SteinOperator`). On both
        branches an operator that cannot be formed (NoConvergence: a
        singular Kronecker system, or doubling powers that overflow or do
        not decay) refuses the gain. Such a refusal can come from a closed
        loop that an eigenvalue solve calls stable: one so non-normal that
        its powers overflow before they decay. Conversely, the rounded
        powers of such a loop can decay although it is unstable by 1e-9 to
        1e-6; its solves then miss their residual bound and raise
        NoConvergence.
        """
        if self.prob.n <= _DIRECT_SOLVE_MAX_DIM and not self.margin > 0.0:
            return None
        try:
            return SteinOperator(self.Acl.T, self.prob.gamma)
        except NoConvergence:
            return None

    stabilizing = property(lambda self: self._operator is not None,
                           doc="Whether the gain is gamma-stabilizing.")

    @cached
    def stein(self) -> SteinOperator:
        """The Stein operator of Acl, factored once: P, the dP stack and the
        forward solve of :meth:`hvp` solve in Acl', Sigma and the adjoint
        solve in Acl."""
        stein = self._operator
        if stein is None:
            raise _not_stabilizing(self.margin)
        return stein

    @cached
    def _value(self) -> ValueSolution:
        return solve_value(self.prob, self.gain, stein=self.stein)

    P = property(lambda self: self._value.P)
    q = property(lambda self: self._value.q)

    @cached
    def Sigma(self) -> np.ndarray:
        return solve_sigma(self.prob, self.gain, stein=self.stein)

    @cached
    def AclSigma(self) -> np.ndarray:
        return self.Acl @ self.Sigma

    @cached
    def J(self) -> float:
        """Performance tr(P Sigma_0) + q."""
        return float((self.P @ self.prob.Sigma_0).trace() + self.q)

    @cached
    def S(self) -> np.ndarray:
        prob = self.prob
        return prob.R @ self.gain.K - prob.gamma * prob.B.T @ self.P @ self.Acl

    @cached
    def E(self) -> np.ndarray:
        prob = self.prob
        E = prob.R + prob.gamma * prob.B.T @ self.P @ prob.B
        # not _sym: E is m x m, and at m = 1 numpy's in-place ops on a
        # size-1 array make _sym cost 2.6 us against 1.2 us for this
        return (E + E.T) / 2.0

    @cached
    def grad(self) -> np.ndarray:
        return 2.0 * vec(self.S @ self.Sigma)

    @cached
    def H_gn(self) -> np.ndarray:
        return 2.0 * kron(self.Sigma, self.E)

    @cached
    def hewer_step(self) -> np.ndarray:
        """E^-1 S, so that K - E^-1 S is Hewer's policy-improvement step.

        -vec(E^-1 S) = -H_gn^-1 grad wherever Sigma is invertible; unlike
        H_gn it needs only P, not Sigma.
        """
        return _solve(self.E, self.S)

    @cached
    def _conditioned_stein(self) -> SteinOperator:
        """The Stein operator at a gain off the stabilizing boundary.

        Its eigenvalues are 1 - mu_i mu_j over the eigenvalues mu of
        sqrt(gamma) * Acl; a gain with 1 / min |1 - mu_i mu_j| above
        _COND_LIMIT is numerically on the boundary: SingularT. A doubling
        operator of depth L bounds that gap with no eigenvalue solve:
        rho <= 2^(-26 / 2^L), so min |1 - mu_i mu_j| >= 1 - 2^(-52 / 2^L),
        which clears _COND_LIMIT for L up to 51. The eigenvalues decide
        beyond that, and on the Kronecker branch.
        """
        stein = self.stein
        if stein.depth is not None:
            # 1 - 2^(-52 / 2^L), without the cancellation at large L
            gap = -np.expm1(-52.0 * np.log(2.0) / 2.0 ** stein.depth)
            if 1.0 / gap <= _COND_LIMIT:
                return stein
        mu = self.eigvals
        gap = np.min(np.abs(1.0 - np.multiply.outer(mu, mu)))
        cond = 1.0 / max(gap, 1e-300)
        if cond > _COND_LIMIT:
            raise SingularT(
                f"Stein operator condition ~{cond:.2e} exceeds {_COND_LIMIT:.0e}; "
                f"gain is numerically on the stabilizing boundary")
        return stein

    @cached
    def dP(self) -> np.ndarray:
        """The m*n Stein equations dP_i solved as one stack, shape
        (m*n, n, n); slice i = c*m + r is dP/dK[r, c]. SingularT at a gain
        numerically on the stabilizing boundary."""
        S = self.S
        stein = self._conditioned_stein
        n, m = self.prob.n, self.prob.m
        # C[c, r] = S'E_i (column c is S[r]') plus E_i'S (row c is S[r]), i = c*m + r
        C = np.zeros((n, m, n, n))
        rows = np.arange(n)
        C[rows, :, :, rows] = S
        C[rows, :, rows, :] += S
        return stein.solve(C.reshape(n * m, n, n))

    def hvp(self, v: np.ndarray) -> np.ndarray:
        """H_exact @ v for a length-(m*n) v = vec(V), from two Stein solves
        on the gain's operator and neither the dP stack nor H_exact:

            2 vec(E V Sigma) - 2 gamma [vec(B' dP[V] Acl Sigma) + 2 vec(S Y)]

        with dP[V] = V'S + S'V + gamma Acl' dP[V] Acl and
        Y = sym(B V Sigma Acl') + gamma Acl Y Acl'. Agrees with H_exact @ v
        to round-off; SingularT as for dP.
        """
        prob, S, AS = self.prob, self.S, self.AclSigma
        stein = self._conditioned_stein
        # in transposed form: v.reshape(n, m) is V', and since Sigma, E, dP[V]
        # and Y are symmetric, the row-major ravel of H' below is vec(H)
        Vt = np.asarray(v, dtype=float).reshape(prob.n, prob.m)
        W = Vt @ S
        # W' + W from one transposed copy, as _sym forms it, with no halving
        WW = W.T.copy()
        WW += W
        dPV = stein.solve(WW)
        Y = stein.solve(_sym(prob.B @ (AS @ Vt).T), transpose=True)
        Ht = self.Sigma @ Vt @ self.E - prob.gamma * (AS.T @ dPV @ prob.B + 2.0 * Y @ S.T)
        return 2.0 * Ht.ravel()

    @cached
    def jac_vecP(self) -> np.ndarray:
        """The (n^2, m*n) Jacobian of vec(P); column i is vec(dP_i), a view
        of the dP stack."""
        # each dP_i is symmetric, so its row-major ravel is vec(dP_i)
        return self.dP.reshape(len(self.dP), -1).T

    @cached
    def Lambda(self) -> np.ndarray:
        """-2 (T1 + T1') from the dP stack; exactly symmetric as computed."""
        X = self.prob.B.T @ self.dP @ self.AclSigma
        # row i of T1t is vec(B' dP_i Acl Sigma)', i.e. column i of T1
        T1t = X.swapaxes(1, 2).reshape(len(self.dP), -1)
        return -2.0 * (T1t + T1t.T)

    @cached
    def H_exact(self) -> np.ndarray:
        """H_gn + gamma * Lambda; exactly symmetric as computed, since both
        terms are."""
        return self.H_gn + self.prob.gamma * self.Lambda


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


def exact_hessian(prob: LqrProblem, gain: Gain) -> Evaluation:
    """The Evaluation at a gain with its exact Hessian assembled.

    H_exact = H_gn + gamma * Lambda is exactly symmetric as computed; the
    gradient, S, H_gn, jac_vecP and Lambda are read from the same returned
    Evaluation.
    """
    ev = Evaluation(prob, gain)
    ev.H_exact  # assembled here, so the returned Evaluation holds it
    return ev
