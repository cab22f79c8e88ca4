"""Independent ground-truth generators used to validate the closed-form
machinery: the one-dimensional closed forms, central finite differences of
the performance, the discounted moment series summed term by term, the
columnwise (M_i) assembly of the Lambda term, and Monte Carlo rollout
estimation of the discounted cost.

Each oracle deliberately avoids the code path it checks: the moment series
never calls the Lyapunov solver, the finite differences only evaluate the
performance (or, for Hessian-vector products, the gradient), and the scalar
closed forms are plain arithmetic.

What an oracle does need at a gain, its margin, closed loop, P, q, Sigma or
dP/dtheta, it reads from one :class:`~lqrnewton.derivatives.Evaluation` of
that gain, so each gain, and each finite-difference probe, is evaluated
once. A probe must have margin > 0, checked before its cost or gradient is
read, or the oracle raises PerturbationLeftStabilizingSet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NoConvergence, NotStabilizing, PerturbationLeftStabilizingSet
from .linalg import kron, psd_sqrt, spectral_radius, unvec, vec
from .lqr import Gain, LqrProblem
from .derivatives import Evaluation


class ScalarReport(NamedTuple):
    """All seven 1-d closed forms at one scalar policy parameter."""

    sigma: float
    p: float
    dp_dtheta: float
    grad: float
    h_gn: float
    lam: float
    hess_exact: float


def scalar_reference(a: float, b: float, Q: float, R: float, gamma: float,
                     sigma0_sq: float, sigma_sq: float, theta: float) -> ScalarReport:
    """Closed-form derivatives for the scalar problem s' = a s + b u + w.

    With closed loop A_cl = a - b*theta and denom = 1 - gamma*A_cl^2:

        sigma = (sigma0^2 + gamma/(1-gamma) sigma^2) / denom
        p     = (Q + R theta^2) / denom
        S     = R theta - gamma b p A_cl
        dp    = 2 S / denom
        grad  = 2 sigma S
        h_gn  = 2 sigma (R + gamma b^2 p)
        lam   = -4 sigma A_cl b dp
        hess  = h_gn + gamma lam

    Requires gamma * A_cl^2 < 1 (the stabilizing condition).
    """
    a_cl = a - b * theta
    denom = 1.0 - gamma * a_cl * a_cl
    if denom <= 0.0:
        raise NotStabilizing(
            f"theta={theta} is not stabilizing: gamma*(a-b*theta)^2 = {gamma * a_cl**2:.6f}")
    sigma = (sigma0_sq + gamma / (1.0 - gamma) * sigma_sq) / denom
    p = (Q + R * theta * theta) / denom
    s = R * theta - gamma * b * p * a_cl
    dp = 2.0 * s / denom
    grad = 2.0 * sigma * s
    h_gn = 2.0 * sigma * (R + gamma * b * b * p)
    lam = -4.0 * sigma * a_cl * b * dp
    return ScalarReport(sigma, p, dp, grad, h_gn, lam, h_gn + gamma * lam)


def _probe(prob: LqrProblem, theta: np.ndarray) -> Evaluation:
    """The Evaluation at a finite-difference probe gain, which must have
    margin > 0, otherwise PerturbationLeftStabilizingSet."""
    ev = Evaluation(prob, Gain.from_theta(theta, prob.m, prob.n))
    if not ev.margin > 0.0:
        raise PerturbationLeftStabilizingSet(
            f"finite-difference probe left the stabilizing set (margin {ev.margin:.3e})")
    return ev


def fd_gradient(prob: LqrProblem, gain: Gain, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of the performance over theta.

    Per-coordinate step h * max(1, |theta_i|). All probe gains must stay
    inside the stabilizing set, otherwise PerturbationLeftStabilizingSet.
    """
    theta0 = gain.theta
    grad = np.zeros_like(theta0)
    for i in range(theta0.size):
        hi = h * max(1.0, abs(theta0[i]))
        up, dn = theta0.copy(), theta0.copy()
        up[i] += hi
        dn[i] -= hi
        grad[i] = (_probe(prob, up).J - _probe(prob, dn).J) / (2.0 * hi)
    return grad


def fd_hessian(prob: LqrProblem, gain: Gain, h: float = 1e-4) -> np.ndarray:
    """Central second differences of the performance, symmetrized."""
    theta0 = gain.theta
    d = theta0.size
    steps = np.array([h * max(1.0, abs(t)) for t in theta0])
    J0 = _probe(prob, theta0).J
    H = np.zeros((d, d))
    for i in range(d):
        up, dn = theta0.copy(), theta0.copy()
        up[i] += steps[i]
        dn[i] -= steps[i]
        H[i, i] = (_probe(prob, up).J - 2.0 * J0 + _probe(prob, dn).J) / steps[i] ** 2
    for i in range(d):
        for j in range(i + 1, d):
            vals = {}
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                t = theta0.copy()
                t[i] += si * steps[i]
                t[j] += sj * steps[j]
                vals[si, sj] = _probe(prob, t).J
            H[i, j] = (vals[1, 1] - vals[1, -1] - vals[-1, 1] + vals[-1, -1]) \
                / (4.0 * steps[i] * steps[j])
            H[j, i] = H[i, j]
    return (H + H.T) / 2.0


def fd_hvp(prob: LqrProblem, gain: Gain, v: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central difference of the policy gradient along v, an oracle for
    H_exact @ v that evaluates gradients only:

        (grad(theta + s v) - grad(theta - s v)) / (2 s),  s = h max(1, ||theta||) / ||v||

    Both probe gains must stay inside the stabilizing set, otherwise
    PerturbationLeftStabilizingSet.
    """
    theta0 = gain.theta
    v = np.asarray(v, dtype=float)
    s = h * max(1.0, float(np.linalg.norm(theta0))) / float(np.linalg.norm(v))
    up, dn = (_probe(prob, theta0 + sign * s * v).grad for sign in (1.0, -1.0))
    return (up - dn) / (2.0 * s)


def discounted_moment_series(prob: LqrProblem, gain: Gain,
                             trunc_tol: float = 1e-14) -> np.ndarray:
    """Sum the series sum_k gamma^k M_k directly from the moment recursion
    M_{k+1} = Acl M_k Acl' + Sigma_w with M_0 = Sigma_0.

    Stops once the geometric tail estimate drops below
    trunc_tol * (1 + ||partial sum||_F) and the terms are shrinking, so
    transient growth from a non-normal Acl cannot trigger an early exit.
    The asymptotic term ratio is gamma when the moments plateau (stable
    Acl, nonzero noise) and gamma*rho(Acl)^2 when they grow; their max is
    used as the tail ratio.
    """
    ev = Evaluation(prob, gain)
    if not ev.margin > 0.0:
        raise NotStabilizing("moment series diverges for a non-stabilizing gain")
    Acl = ev.Acl
    ratio = max(prob.gamma, prob.gamma * spectral_radius(Acl) ** 2)
    tail_factor = ratio / (1.0 - ratio)
    M = prob.Sigma_0.copy()
    total = M.copy()
    g = 1.0
    prev_norm = np.inf
    for _ in range(2_000_000):
        M = Acl @ M @ Acl.T + prob.Sigma_w
        g *= prob.gamma
        term = g * M
        total += term
        tn = np.linalg.norm(term, "fro")
        if tn <= prev_norm and tn * max(1.0, tail_factor) \
                <= trunc_tol * (1.0 + np.linalg.norm(total, "fro")):
            return (total + total.T) / 2.0
        prev_norm = tn
    raise NoConvergence("moment series did not reach the truncation tolerance")


def lambda_via_Mi(prob: LqrProblem, gain: Gain) -> np.ndarray:
    """Columnwise assembly of the Lambda term from the matrices
    M_i = B'(dP/dtheta_i + dP/dtheta_i') Acl:

        E_f = -(Sigma (x) I_m) [vec(M_1) ... vec(M_mn)],   Lambda = E_f + E_f'.

    Must agree with :func:`lqrnewton.derivatives.lambda_term`; exercising
    both routes checks the chain of identities connecting them.
    """
    ev = Evaluation(prob, gain)
    n, m = prob.n, prob.m
    cols = []
    for i in range(m * n):
        D = unvec(ev.jac_vecP[:, i], n, n)
        cols.append(vec(prob.B.T @ (D + D.T) @ ev.Acl))
    Ef = -kron(ev.Sigma, np.eye(m)) @ np.column_stack(cols)
    return Ef + Ef.T


@dataclass
class McEstimate:
    """Monte Carlo estimate of the discounted cost."""

    mean: float
    std_error: float
    samples: int
    horizon: int


_TRUNC_CUTOFF = 3.0  # truncated-Gaussian support, in standard deviations

_NOISE_MODELS = ("gaussian", "truncated_gaussian", "uniform_box")


def _unit_variance_noise(rng: np.random.Generator, model: str,
                         shape: tuple[int, int]) -> np.ndarray:
    """Zero-mean samples with identity covariance under each bundled law.

    gaussian: standard normal. truncated_gaussian: standard normal
    restricted to [-3, 3] per coordinate via inverse-CDF sampling, rescaled
    to unit variance (bounded support; the hard cutoff is documented, and
    only the covariance is asserted). uniform_box: uniform on
    [-sqrt(3), sqrt(3)] per coordinate.
    """
    if model == "gaussian":
        return rng.standard_normal(shape)
    if model == "truncated_gaussian":
        # imported here so that importing the package does not load scipy.special
        from scipy.special import ndtr, ndtri
        c = _TRUNC_CUTOFF
        lo, hi = ndtr(-c), ndtr(c)
        z = ndtri(lo + (hi - lo) * rng.random(shape))
        phi_c = math.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi)
        var = 1.0 - 2.0 * c * phi_c / (2.0 * ndtr(c) - 1.0)
        return z / math.sqrt(var)
    if model == "uniform_box":
        half = math.sqrt(3.0)
        return rng.uniform(-half, half, size=shape)
    raise ValueError(f"unknown noise model {model!r}; choose from {_NOISE_MODELS}")


def _choose_horizon(ev: Evaluation) -> int:
    """Smallest N whose truncation bias gamma^N * E[V(s_N)] is at most 1e-6
    of J, at the gain of ``ev``.

    The bias of truncating the cost sum at N equals
    gamma^N (tr(P M_N) + q) with M_N from the moment recursion, so the
    bound is sharp rather than a crude stage-cost estimate.
    """
    prob, Acl, P, q = ev.prob, ev.Acl, ev.P, ev.q
    budget = 1e-6 * max(abs(ev.J), 1e-12)
    M = prob.Sigma_0.copy()
    g = 1.0
    for N in range(200_000):
        if g * (float(np.trace(P @ M)) + q) <= budget:
            return max(N, 1)
        M = Acl @ M @ Acl.T + prob.Sigma_w
        g *= prob.gamma
    raise NoConvergence("could not bound the Monte Carlo truncation horizon")


def monte_carlo_J(prob: LqrProblem, gain: Gain, noise_model: str = "gaussian",
                  samples: int = 10_000, seed: int = 0) -> McEstimate:
    """Rollout estimate of the discounted cost J under the gain's policy.

    Simulates `samples` (at least 2) independent trajectories whose length,
    reported as ``horizon``, is the shortest that keeps the truncation bias
    below 1e-6 of J, and averages the discounted stage costs. Initial
    states are Gaussian with covariance Sigma_0; process noise follows
    `noise_model`, always with covariance Sigma_w exactly.

    Draws come from one numpy Generator seeded with `seed`: first the
    (samples, n) initial-state block, then one (samples, n) noise block per
    step, so results are reproducible bit for bit. Per-rollout totals are
    reduced with compensated (exact) summation.
    """
    ev = Evaluation(prob, gain)
    if not ev.margin > 0.0:
        raise NotStabilizing("monte_carlo_J requires a stabilizing gain")
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    Acl = ev.Acl
    horizon = _choose_horizon(ev)
    C = prob.Q + gain.K.T @ prob.R @ gain.K
    C = (C + C.T) / 2.0
    L0 = psd_sqrt(prob.Sigma_0)
    Lw = psd_sqrt(prob.Sigma_w)
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((samples, prob.n)) @ L0.T
    totals = np.zeros(samples)
    g = 1.0
    for _ in range(horizon):
        totals += g * np.einsum("ij,jk,ik->i", s, C, s)
        w = _unit_variance_noise(rng, noise_model, (samples, prob.n)) @ Lw.T
        s = s @ Acl.T + w
        g *= prob.gamma
    mean = math.fsum(totals) / samples
    std_error = float(np.std(totals, ddof=1)) / math.sqrt(samples)
    return McEstimate(mean=mean, std_error=std_error,
                      samples=samples, horizon=horizon)
