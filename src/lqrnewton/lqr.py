"""Discounted stochastic LQR: problem container, stabilization checks,
discounted Lyapunov solvers for the value and state-correlation matrices,
performance evaluation, and the optimal gain via the structure-preserving
doubling algorithm for the discrete Riccati equation, finished by one
Hewer (policy-improvement) step. A gain's two Lyapunov equations are
transposes of each other, so one factored :class:`SteinOperator` serves
both, and every further solve in the same closed loop.

Every per-gain result here, P, Sigma, J and both gains of
:func:`optimal_gain`, is read from a
:class:`~lqrnewton.derivatives.Evaluation`, so one stability rule,
``Evaluation.stabilizing``, decides for every entry point whether a gain
is gamma-stabilizing. A closed loop that is not finite is not: its
eigenvalues are inf (:func:`_eigvals`) and its doubling powers are refused.
:func:`is_gamma_stabilizing` is the plain eigenvalue test, which no solve
calls.

Conventions
-----------
Dynamics are s' = A s + B a + w with zero-mean noise of covariance Sigma_w
and initial-state covariance Sigma_0. The policy is a = -K s with K of shape
(m, n); its flat parameter vector is theta = vec(K) (column-major). A gain is
gamma-stabilizing when rho(sqrt(gamma) * (A - B K)) < 1, which is exactly the
condition for the discounted sums below to converge.

All functions are pure, and a SteinOperator is not modified by its solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np
# LAPACK's routines are called directly: at n = 2 numpy.linalg's wrappers
# cost several times the routine they call, and dtrtri (optimize's
# preconditioner) inverts a triangular factor without an LU (see README,
# Numerical notes)
from scipy.linalg.lapack import (dgeev as _geev, dgesv as _gesv, dgetrf as _getrf,
                                 dgetrs as _getrs, dtrtri as _trtri)

from .errors import NoConvergence, NotStabilizing
from .linalg import unvec, vec

if TYPE_CHECKING:
    from .derivatives import Evaluation

# Above this state dimension the n^2 x n^2 Kronecker solve is replaced by
# a squared-iteration (doubling) evaluation of the same fixed point. On a
# 2-core x86 VM with one BLAS thread, an operator and its two solves (a
# gain's P and Sigma) cost 0.19-0.22 ms by LU against 0.23-0.33 ms by
# doubling at n = 10, and 0.37-0.41 ms against 0.23-0.28 ms at n = 12; the
# LU's O(n^6) factorization then took 4.4 ms at n = 20, doubling 0.26 ms.
_DIRECT_SOLVE_MAX_DIM = 10
# Relative residual every doubling solve must reach; see SteinOperator.
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
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")


def _check_symmetric(a: np.ndarray, name: str) -> np.ndarray:
    # the norms, a - a.T and a + a.T can overflow where a does not; the
    # checks below refuse or decide such a matrix, so numpy need not warn
    with np.errstate(over="ignore"):
        scale = 1.0 + np.linalg.norm(a, "fro")
        asym = np.linalg.norm(a - a.T, "fro")
        if scale == np.inf:
            # inf > tol * inf would accept any asymmetry: decide on a copy
            # scaled exactly, by a power of two, to a largest entry in
            # [0.5, 1), where 1 + ||a|| is ||a||
            a_s = np.ldexp(a, -np.frexp(np.abs(a).max())[1])
            scale, asym = np.linalg.norm(a_s, "fro"), np.linalg.norm(a_s - a_s.T, "fro")
        if asym > _SYM_TOL * scale:
            raise ValueError(f"{name} must be symmetric")
        a = _sym(a)
    _require_finite(a, name)
    return a


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


# slots: a RunRecord keeps one gain per iterate, and a slotted gain is its
# matrix and 40 bytes
@dataclass(frozen=True, slots=True)
class Gain:
    """Linear state-feedback gain K (policy a = -K s) with theta = vec(K).

    K is the gain's own copy of the matrix it is given.
    """

    K: np.ndarray

    def __post_init__(self):
        # a view would keep the array it was cut from (a trial's theta)
        # for as long as a RunRecord keeps the gain, and would change with it
        K = _as_matrix(np.array(self.K, dtype=float), "K")
        object.__setattr__(self, "K", K)

    @property
    def theta(self) -> np.ndarray:
        return vec(self.K)

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

    Returns (stabilizing, margin) where margin = 1 - rho, read from a fresh
    :class:`~lqrnewton.derivatives.Evaluation`. A positive margin means the
    discounted closed-loop sums converge; a closed loop that is not finite
    has margin -inf.
    """
    margin = _evaluation(prob, gain).margin
    return margin > 0.0, margin


def _not_stabilizing(margin: float) -> NotStabilizing:
    rho = 1.0 - margin
    why = ">= 1" if rho >= 1.0 else "< 1, but its Stein operator cannot be formed"
    return NotStabilizing(
        f"the gain is not gamma-stabilizing (rho(sqrt(gamma)*Acl) = {rho:.6f} {why})")


class SteinOperator:
    """The discounted Stein equation X = M + gamma * G X G', for gamma*rho(G)^2
    < 1, factored once and solved for any number of symmetric right-hand
    sides, in G or, with ``transpose=True``, in G'.

    G is one (n, n) matrix. :meth:`solve` takes one (n, n) right-hand side
    or a (k, n, n) stack and returns X of that shape, every slice
    symmetrized.

    For n <= 10 the operator holds the LU factors of the vectorized system
    I - gamma * G (x) G; its transpose is the system in G', so both
    equations are solved (getrs, trans=0 or 1) against the same factors,
    every slice of a stack in one call, and refined once with its computed
    residual. Larger systems use the squared-iteration form of the same
    geometric series. The operator computes the powers F, F^2, ...,
    F^(2^(L-1)) of F = sqrt(gamma) G once, where the depth L is the first
    with ||F^(2^L)||_F^2 <= 2^-52, and every solve, in G or in G' (the
    powers read transposed), sums exactly the L levels
    X + F X F' + F^2 X F^2' + ... . The tail left out is F^(2^L) X F^(2^L)',
    at most 2^-52 ||X||_F whatever the scale of M. A solve copies M once
    and adds each level into that copy in place: two products per level
    and the two of the residual gate below, 2L + 2 in all (twice that with
    the correction pass). The gate reads gamma * G, which the operator
    keeps on both branches.
    L is kept as ``depth`` (None on the Kronecker branch); since
    rho(F)^(2^L) <= ||F^(2^L)||_F, it bounds rho(F) <= 2^(-26 / 2^L) < 1.
    NoConvergence is raised when the Kronecker system is singular or
    overflows, when a power is not finite, or when 100 levels do
    not reach the depth test. Each doubled slice must then satisfy
    ||M + gamma G X G' - X||_F <= 1e-10 * (1 + ||X||_F); the slices are
    corrected once by doubling on their residual, and NoConvergence is
    raised if any still misses the bound.
    """

    def __init__(self, G: np.ndarray, gamma: float):
        # gamma * G is kept for the residual, which every solve forms
        self.G, self._gG = G, gamma * G
        n = G.shape[-1]
        if n <= _DIRECT_SOLVE_MAX_DIM:
            # I - gamma * G (x) G, entry (i*n + k, j*n + l) = G[i, j] * G[k, l];
            # einsum sets no floating-point warning, so an entry that
            # overflows is refused below, not warned, at no errstate's cost
            T = np.einsum("ij,kl->ikjl", G, G).reshape(n * n, n * n)
            T *= -gamma
            T.flat[::n * n + 1] += 1.0
            self._lu, self._piv, info = _getrf(T, overwrite_a=True)
            # an entry of T that overflowed leaves factors that are not finite
            if info != 0 or not np.isfinite(self._lu).all():
                raise NoConvergence("discounted Lyapunov operator is singular or "
                                    "not finite")
            self.depth = None
        else:
            self._powers = _doubling_powers(np.sqrt(gamma) * G)
            self.depth = len(self._powers)

    def solve(self, M: np.ndarray, transpose: bool = False) -> np.ndarray:
        """X = M + gamma * G X G', or X = M + gamma * G' X G with ``transpose``."""
        # gamma * G @ X @ G' groups as (gamma G) X G', so the kept gamma G
        # gives the same bits
        gG, Gt = (self._gG.T, self.G) if transpose else (self._gG, self.G.T)
        if self.depth is None:
            X = self._lu_solve(M, transpose)
            # one refinement pass keeps the residual near round-off
            X = X + self._lu_solve(M + gG @ X @ Gt - X, transpose)
            # X is laid out as the transpose of a C-ordered array, which
            # _sym then copies contiguously: 1.7 against 3.1 us at n = 2
            return _sym(X.swapaxes(-1, -2))
        X = self._doubling(M, transpose)
        R = M + gG @ X @ Gt - X
        if not _within_bound(R, X):
            X = X + self._doubling(R, transpose)
            if not _within_bound(M + gG @ X @ Gt - X, X):
                raise NoConvergence(
                    "discounted Lyapunov doubling missed its residual bound; the "
                    "closed loop is too close to the stabilizing boundary")
        return X

    def _lu_solve(self, rhs: np.ndarray, transpose: bool) -> np.ndarray:
        n = len(self.G)
        # rhs.T[j, i, s] = rhs[s, i, j], so each column of its (n*n, k)
        # reshape is the column-major vec of one slice
        X = _getrs(self._lu, self._piv, rhs.T.reshape(n * n, -1), trans=int(transpose))[0]
        return X.reshape(rhs.T.shape).T

    def _doubling(self, M: np.ndarray, transpose: bool) -> np.ndarray:
        """Sum M + F M F' + F^2 M F^2' + ... over the operator's powers
        (F = sqrt(gamma) G, or its transpose), symmetrized. Each level adds
        into one copy of M, which is left as it was."""
        X = M.astype(float)
        for F in self._powers:
            if transpose:
                F = F.T
            # FX lives until the next level's replaces it: with both
            # temporaries freed at once, glibc hands a large stack's pages
            # back and each level faults them in again (a (48, 48, 48)
            # stack: 3600 page faults and 12 ms a solve, against 400 and 6)
            FX = F @ X
            X += FX @ F.T
        return _sym(X)


def _doubling_powers(F: np.ndarray) -> list[np.ndarray]:
    """F, F^2, ..., F^(2^(L-1)) for the first L with ||F^(2^L)||_F^2 <= 2^-52.
    The first 2^L terms of sum_k F^k M F^k' then leave a tail
    F^(2^L) X F^(2^L)' of norm at most 2^-52 ||X||_F, whatever the scale of
    M. NoConvergence on a power whose squared norm is not finite (which a
    power that is not finite has) or when 100 levels do not reach the test."""
    powers = []
    # a power that overflows is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(100):
            sq = float(_sq_norm(F))
            if not math.isfinite(sq):
                break
            if sq <= 2.0 ** -52:
                return powers
            powers.append(F)
            F = F @ F
    raise NoConvergence("discounted Lyapunov doubling iteration did not converge")


def _eigvals(prob: LqrProblem, Acl: np.ndarray) -> np.ndarray:
    """Eigenvalues of sqrt(gamma) * Acl, as np.linalg.eigvals gives them
    (the same geev call, and real when all are): every eigenvalue of a loop
    that is not finite is inf, so its margin is -inf and the stability rule
    refuses it. LinAlgError when geev does not converge.

    scipy's geev does not scale its eigenvalues back once max |F| passes
    2^459 (LAPACK's bignum), and returns them scaled up below 2^-459. So
    an F outside [2^-459, 2^459] is brought to max |F| in [1/2, 1) by an
    exact power of two, and its eigenvalues are scaled back; an F inside
    is solved as it is."""
    F = np.sqrt(prob.gamma) * Acl
    top = np.abs(F).max()
    if not top < np.inf:
        return np.full(len(F), np.inf, dtype=complex)
    shift = 0 if 2.0 ** -459 <= top <= 2.0 ** 459 else int(np.frexp(top)[1])
    if shift:
        F = np.ldexp(F, -shift)
    wr, wi, _, _, info = _geev(F, compute_vl=0, compute_vr=0)
    if info != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    if shift:
        # an eigenvalue beyond float range is inf, and refused as such
        with np.errstate(over="ignore"):
            wr, wi = np.ldexp(wr, shift), np.ldexp(wi, shift)
    if not wi.any():
        return wr
    w = np.empty(len(wr), dtype=complex)
    w.real, w.imag = wr, wi
    return w


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b for a small square a by gesv, the routine np.linalg.solve
    calls (numpy links another OpenBLAS build, whose bits can differ from
    6 unknowns up); LinAlgError for a singular a."""
    x, info = _gesv(a, b)[2:]
    if info != 0:
        raise np.linalg.LinAlgError("Singular matrix")
    return x


def _sym(X: np.ndarray) -> np.ndarray:
    """(X + X') / 2 for a matrix, or for each slice of a stack, as a new
    C-ordered array. It has the bits of ``(X + X.swapaxes(-1, -2)) / 2.0``,
    since addition commutes and halving is exact, from one contiguous copy
    of the transpose, added into and scaled in place: at n = 48 that is 3.0
    against 5.4 us (2-core x86 VM), where the expression reads X strided
    and makes two temporaries."""
    S = X.swapaxes(-1, -2).copy()
    S += X
    S *= 0.5
    return S


def _sq_norm(X: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of a matrix, or of each slice of a stack."""
    v = X.reshape(*X.shape[:-2], -1)
    return np.vecdot(v, v)


def _within_bound(R: np.ndarray, X: np.ndarray) -> bool:
    # an X whose squared norm overflows would pass as inf <= inf
    if X.ndim == 2:
        # one slice is decided on floats: the same test, without 0-d arrays
        sq = float(_sq_norm(X))
        return (math.isfinite(sq)
                and math.sqrt(_sq_norm(R)) <= _RESID_TOL * (1.0 + math.sqrt(sq)))
    sq = _sq_norm(X)
    bound = _RESID_TOL * (1.0 + np.sqrt(sq))
    return bool((np.isfinite(sq) & (np.sqrt(_sq_norm(R)) <= bound)).all())


def _evaluation(prob: LqrProblem, gain: Gain):
    # imported here, since derivatives imports this module
    from .derivatives import Evaluation
    return Evaluation(prob, gain)


def solve_value(prob: LqrProblem, gain: Gain, *,
                stein: Optional[SteinOperator] = None) -> ValueSolution:
    """Value matrix P and offset q for a gamma-stabilizing gain.

    P is the fixed point of P = Q + K' R K + gamma * Acl' P Acl and
    q = gamma / (1 - gamma) * tr(P Sigma_w). The returned P is symmetrized
    and satisfies the fixed point to within ~1e-10 * (1 + ||P||_F).

    The result is ``Evaluation(prob, gain)``'s P and q, the same bits, and
    the gain is checked by its rule: NotStabilizing for a gain it refuses,
    and NoConvergence where the solve misses its residual bound (see
    ``Evaluation.stabilizing``). ``stein`` is how the Evaluation itself
    solves: it passes its checked operator, which is used as given.
    """
    if stein is None:
        stein = _evaluation(prob, gain).stein
    K = gain.K
    M = prob.Q + K.T @ prob.R @ K
    P = stein.solve(_sym(M))
    q = prob.gamma / (1.0 - prob.gamma) * (P @ prob.Sigma_w).trace()
    return ValueSolution(P, float(q))


def solve_sigma(prob: LqrProblem, gain: Gain, *,
                stein: Optional[SteinOperator] = None) -> np.ndarray:
    """Discounted state correlation matrix Sigma for a stabilizing gain.

    Solves Sigma - gamma * Acl Sigma Acl' = Sigma_0 + gamma/(1-gamma) * Sigma_w.
    The result is symmetric PSD (up to round-off) and satisfies the equation
    to within ~1e-10 * (1 + ||Sigma||_F). It is the transposed equation of
    the one P solves, and is solved on the same operator.

    The result is ``Evaluation(prob, gain).Sigma``, checked and raising
    as in :func:`solve_value`, and ``stein`` is used as given there.
    """
    if stein is None:
        stein = _evaluation(prob, gain).stein
    M = prob.Sigma_0 + prob.gamma / (1.0 - prob.gamma) * prob.Sigma_w
    return stein.solve(M, transpose=True)


def performance(prob: LqrProblem, gain: Gain) -> float:
    """Expected discounted cost J = tr(P Sigma_0) + q under the gain's
    policy: ``Evaluation(prob, gain).J``, checked and raising as in
    :func:`solve_value`."""
    return _evaluation(prob, gain).J


def optimal_gain(prob: LqrProblem, tol: float = 1e-10,
                 max_iter: int = 200) -> tuple[Gain, Evaluation]:
    """Optimal gain K* = (R + g B'P*B)^-1 g B'P*A via the structure-preserving
    doubling algorithm (SDA) for the discrete Riccati equation.

    The discount is folded into the plant (A_0 = sqrt(g) A, and
    G_0 = g B R^-1 B'), and from H_0 = Q each step computes, with
    W = I + G_k H_k,

        A_{k+1} = A_k W^-1 A_k
        G_{k+1} = G_k + A_k W^-1 G_k A_k'
        H_{k+1} = H_k + A_k' H_k W^-1 A_k

    so that H_k converges quadratically to P*, with no stabilizing starting
    gain. Each step inverts W once and forms W^-1 A_k and W^-1 G_k by two
    products. The inverse is numpy's, which factors W by the gesv that
    ``np.linalg.solve`` runs, so a step is found singular as a solve finds
    it. scipy's getrf/getri is faster but rounds the pivots differently:
    whether it finds the singular step of a plant with an entry of 2^63
    turns on how the step's products are grouped, where numpy's inverse
    finds it under every grouping tried. The iteration stops once
    ||H_{k+1} - H_k||_F <= tol (1 + ||H_{k+1}||_F).
    The gain formed from that H is checked and its value P solved; one
    Hewer step, K* = (R + g B'PB)^-1 g B'PA, then brings K* to policy
    iteration's accuracy.

    Raises NoConvergence on a non-finite iterate or a singular step, after
    max_iter steps, or when the K* found is not gamma-stabilizing (e.g.
    B = 0 with an unstable A, or an unstable mode that Q does not see).
    Both gains are read as :class:`~lqrnewton.derivatives.Evaluation`
    objects and checked by their rule: above n = 10 by the doubling powers
    of their operators, with no eigenvalue solve unless one is refused,
    whose margin the error then reports.

    The value returned is that Evaluation at K*, whose ``P`` and ``q`` are
    those of :func:`solve_value` at K*, the same bits, but solved only on
    their first read: a caller that needs only K* makes one Stein solve
    fewer. A NoConvergence from that solve (its residual bound missed)
    therefore surfaces at the first read of ``.P``, ``.q`` or ``.J``, not
    in this call.
    """
    g, n = prob.gamma, prob.n
    A = np.sqrt(g) * prob.A
    G = g * prob.B @ _solve(prob.R, prob.B.T)
    H = prob.Q
    eye = np.eye(n)
    # an unstabilizable plant overflows; that is caught below, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            # numpy's inverse, not scipy's getri: see the docstring
            try:
                W_inv = np.linalg.inv(eye + G @ H)
            except np.linalg.LinAlgError:
                raise NoConvergence("Riccati doubling met a singular system I + G H; "
                                    "the plant's scale defeats it") from None
            WA = W_inv @ A
            G = G + A @ (W_inv @ G @ A.T)
            H_next = H + A.T @ H @ WA
            A = A @ WA
            G, H_next = _sym(G), _sym(H_next)
            # numpy's Frobenius norm, sqrt(x @ x) over the ravel, without
            # its wrapper
            d, h = (H_next - H).ravel(), H_next.ravel()
            step, size, H = math.sqrt(d @ d), math.sqrt(h @ h), H_next
            # a norm that overflows must not pass the test below as inf <= inf
            if not (math.isfinite(step + size) and np.isfinite(A).all()
                    and np.isfinite(G).all()):
                raise NoConvergence("Riccati doubling diverged; the pair (A, B) "
                                    "appears not to be gamma-stabilizable")
            if step <= tol * (1.0 + size):
                break
        else:
            raise NoConvergence(f"Riccati doubling did not converge in {max_iter} iterations")
    # H fixes K* only to the Riccati iteration's accuracy; one Hewer step from
    # the exact value of that gain brings it to policy iteration's
    ev = None
    for _ in range(2):
        P = H if ev is None else ev.P
        E = prob.R + g * prob.B.T @ P @ prob.B
        ev = _evaluation(prob, Gain(_solve(E, g * prob.B.T @ P @ prob.A)))
        if not ev.stabilizing:
            raise NoConvergence(
                f"the Riccati gain is not gamma-stabilizing (margin {ev.margin:.3g}); (A, B) "
                f"is not gamma-stabilizable or Q misses an unstable mode")
    return ev.gain, ev
