"""Benchmark problem generators and the two-parameter cost landscape.

Two desk-scale plants are bundled: the upright linearization of a planar
inverted pendulum (n = 2, one torque input) and a synthetic multi-story
shear building under base excitation (n = 2 * floors, one input). Both are
zero-order-hold discretizations of continuous dynamics at Ts = 0.01 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionUnsupported
from .linalg import expm
from .derivatives import Evaluation
from .lqr import Gain, LqrProblem, optimal_gain

GRAVITY = 9.81          # m/s^2
PENDULUM_LENGTH = 1.0   # m
PENDULUM_MASS = 1.0     # kg
DEFAULT_TS = 0.01       # s


def zoh_discretize(A_c: np.ndarray, B_c: np.ndarray, ts: float):
    """Zero-order-hold discretization of x' = A_c x + B_c u at step ts.

    Uses the block matrix exponential exp([[A, B], [0, 0]] * ts) whose top
    row is [A_d, B_d].
    """
    A_c = np.atleast_2d(np.asarray(A_c, dtype=float))
    B_c = np.atleast_2d(np.asarray(B_c, dtype=float))
    if ts <= 0:
        raise ValueError("sampling period ts must be positive")
    n, m = B_c.shape
    block = np.zeros((n + m, n + m))
    block[:n, :n] = A_c
    block[:n, n:] = B_c
    M = expm(block * ts)
    return M[:n, :n], M[:n, n:]


def rotated_Q(lambda1: float, lambda2: float, psi_degrees: float) -> np.ndarray:
    """2x2 symmetric PSD matrix with the given eigenvalues, eigenvectors
    rotated by psi degrees from the axes."""
    if lambda1 < 0 or lambda2 < 0:
        raise ValueError("eigenvalues must be nonnegative")
    psi = np.deg2rad(psi_degrees)
    c, s = np.cos(psi), np.sin(psi)
    C = np.array([[c, -s], [s, c]])
    Q = C @ np.diag([lambda1, lambda2]) @ C.T
    return (Q + Q.T) / 2.0


def pendulum_continuous():
    """Continuous-time matrices of the upright pendulum linearization."""
    A_c = np.array([[0.0, 1.0],
                    [GRAVITY / PENDULUM_LENGTH, 0.0]])
    B_c = np.array([[0.0],
                    [1.0 / (PENDULUM_MASS * PENDULUM_LENGTH ** 2)]])
    return A_c, B_c


def make_pendulum(ts: float = DEFAULT_TS) -> LqrProblem:
    """Inverted-pendulum benchmark: ZOH discretization at ts, discount 0.9,
    unit process noise, initial covariance 0.1 I, input penalty 0.1, and a
    strongly anisotropic state penalty with eigenvalues (1e5, 1e-4) rotated
    by 40 degrees."""
    A_c, B_c = pendulum_continuous()
    A, B = zoh_discretize(A_c, B_c, ts)
    return LqrProblem(
        A=A, B=B,
        Q=rotated_Q(1e5, 1e-4, 40.0),
        R=np.array([[0.1]]),
        gamma=0.9,
        Sigma_w=np.eye(2),
        Sigma_0=0.1 * np.eye(2),
    )


def make_shear_building(floors: int = 24, mass: float = 1.0,
                        stiffness: float = 1000.0, damping: float = 0.01,
                        ts: float = DEFAULT_TS, seed: int = 0,
                        gamma: float = 0.9,
                        lambda_hi: float = 1e3, lambda_lo: float = 1e-3,
                        eps: float = 1e-6) -> LqrProblem:
    """Synthetic multi-story shear building under base excitation.

    A chain of `floors` identical masses coupled by springs (tridiagonal
    stiffness) with stiffness-proportional damping; the single input forces
    the first floor. The stacked state [displacements, velocities] has
    dimension 2 * floors. The state penalty is V diag(lambda_hi I_k,
    lambda_lo I_{n-k}) V' + eps I with V an orthogonal basis drawn from the
    seeded generator (k = n // 2), noise covariance 1e-4 I, initial
    covariance 1e-2 I, and input penalty 0.01.
    """
    if floors < 1:
        raise ValueError("floors must be at least 1")
    if mass <= 0 or stiffness <= 0:
        raise ValueError("mass and stiffness must be positive")
    if damping < 0:
        raise ValueError("damping coefficient must be nonnegative")
    N = floors
    n = 2 * N
    # shear-frame stiffness: each floor couples to its neighbors below/above
    Ks = np.zeros((N, N))
    for i in range(N):
        Ks[i, i] = 2.0 * stiffness if i < N - 1 else stiffness
        if i + 1 < N:
            Ks[i, i + 1] = -stiffness
            Ks[i + 1, i] = -stiffness
    Cd = damping * Ks
    Minv = np.eye(N) / mass
    A_c = np.zeros((n, n))
    A_c[:N, N:] = np.eye(N)
    A_c[N:, :N] = -Minv @ Ks
    A_c[N:, N:] = -Minv @ Cd
    B_c = np.zeros((n, 1))
    B_c[N, 0] = 1.0 / mass  # base actuation enters the first floor's force balance
    A, B = zoh_discretize(A_c, B_c, ts)

    rng = np.random.default_rng(seed)
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    k = n // 2
    diag = np.concatenate([np.full(k, lambda_hi), np.full(n - k, lambda_lo)])
    Q = V @ np.diag(diag) @ V.T + eps * np.eye(n)
    Q = (Q + Q.T) / 2.0
    return LqrProblem(
        A=A, B=B, Q=Q,
        R=np.array([[0.01]]),
        gamma=gamma,
        Sigma_w=1e-4 * np.eye(n),
        Sigma_0=1e-2 * np.eye(n),
    )


def initial_gain(prob: LqrProblem, r_inflation: float = 100.0) -> Gain:
    """Stabilizing but suboptimal starting gain: the optimal gain of the
    same plant with the input penalty inflated by r_inflation."""
    if r_inflation <= 0:
        raise ValueError("r_inflation must be positive")
    inflated = LqrProblem(prob.A, prob.B, prob.Q, r_inflation * prob.R,
                          prob.gamma, prob.Sigma_w, prob.Sigma_0)
    gain, _ = optimal_gain(inflated)
    return gain


@dataclass
class LandscapeGrid:
    """Cost values over a (theta1, theta2) grid.

    J[i, j] is the cost at (theta1[i], theta2[j]); non-stabilizing cells are
    flagged False in `stabilizing` and carry NaN in J.
    """

    theta1: np.ndarray
    theta2: np.ndarray
    J: np.ndarray
    stabilizing: np.ndarray

    def min_cell(self) -> tuple[int, int]:
        """Indices of the smallest evaluated cost; raises if none evaluated."""
        if not self.stabilizing.any():
            raise ValueError("no stabilizing cell in the grid")
        masked = np.where(self.stabilizing, self.J, np.inf)
        return tuple(np.unravel_index(np.argmin(masked), masked.shape))


def landscape(prob: LqrProblem,
              theta1_range: tuple[float, float, int],
              theta2_range: tuple[float, float, int]) -> LandscapeGrid:
    """Evaluate the cost over a rectangular slice of a two-parameter gain.

    Only defined for problems with exactly two policy parameters
    (m * n == 2); anything else raises DimensionUnsupported.
    """
    if prob.m * prob.n != 2:
        raise DimensionUnsupported(
            f"landscape needs m*n == 2, got m={prob.m}, n={prob.n}")
    t1 = np.linspace(*theta1_range)
    t2 = np.linspace(*theta2_range)
    J = np.full((t1.size, t2.size), np.nan)
    stab = np.zeros((t1.size, t2.size), dtype=bool)
    for i, a in enumerate(t1):
        for j, b in enumerate(t2):
            ev = Evaluation(prob, Gain.from_theta(np.array([a, b]), prob.m, prob.n))
            if ev.stabilizing:
                stab[i, j] = True
                J[i, j] = ev.J
    return LandscapeGrid(theta1=t1, theta2=t2, J=J, stabilizing=stab)


def default_landscape_window(prob: LqrProblem, k_star: Optional[Gain] = None):
    """Grid ranges centered on the optimal gain: half-width 1 and 41 points
    per axis, as ``landscape`` takes them. ``k_star`` saves solving for the
    optimal gain when the caller has it."""
    if prob.m * prob.n != 2:
        raise DimensionUnsupported("default window needs m*n == 2")
    if k_star is None:
        k_star, _ = optimal_gain(prob)
    t = k_star.theta
    return ((t[0] - 1.0, t[0] + 1.0, 41),
            (t[1] - 1.0, t[1] + 1.0, 41))
