"""Built-in cross-validation suite behind the `validate` CLI command.

Each check pits a closed-form computation against an independent oracle
(scalar closed forms, finite differences, the term-by-term moment series,
the columnwise Lambda assembly, the dense Hessian, scipy's Riccati solver,
or Monte Carlo rollouts)
on deterministic fixtures, and reports pass/fail with the observed error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_discrete_are

from .errors import NoConvergence
from .lqr import Gain, LqrProblem, optimal_gain
from .derivatives import Evaluation
from .oracles import (discounted_moment_series, fd_gradient, fd_hessian, fd_hvp,
                      lambda_via_Mi, monte_carlo_J, scalar_reference)
from .benchmarks import initial_gain, make_pendulum, make_shear_building


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_stabilizing_instance(seed: int, n: int = None, m: int = None):
    """Deterministic random problem plus an interior stabilizing gain.

    The gain is the optimal gain perturbed away from the optimum until the
    gradient is visible (||grad|| >= 1e-2) while keeping a comfortable
    stability margin (> 0.05), so finite-difference probes stay inside the
    stabilizing set. Each of up to 60 draws shrinks the perturbation by 0.8;
    NoConvergence when none qualifies (seed 34 is the only such seed in
    0-299: its gradients stay below 1e-2).
    """
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(1, 5))
    if m is None:
        m = int(rng.integers(1, 3))
    A = rng.standard_normal((n, n))
    rho = max(np.abs(np.linalg.eigvals(A)).max(), 1e-6)
    A *= rng.uniform(0.5, 1.2) / rho
    B = rng.standard_normal((n, m))
    G = rng.standard_normal((n, n))
    Q = G.T @ G / n
    Hm = rng.standard_normal((m, m))
    R = Hm.T @ Hm / m + 0.1 * np.eye(m)
    W = rng.standard_normal((n, n))
    Sigma_w = 0.1 * W.T @ W / n
    V = rng.standard_normal((n, n))
    Sigma_0 = V.T @ V / n + 0.1 * np.eye(n)
    gamma = float(rng.uniform(0.7, 0.95))
    prob = LqrProblem(A=A, B=B, Q=Q, R=R, gamma=gamma,
                      Sigma_w=Sigma_w, Sigma_0=Sigma_0)
    k_star, _ = optimal_gain(prob)
    scale = 0.1
    for _ in range(60):
        ev = Evaluation(prob, Gain(k_star.K + scale * rng.standard_normal((m, n))))
        if ev.margin > 0.05 and np.linalg.norm(ev.grad) >= 1e-2:
            return prob, ev.gain
        scale *= 0.8
    raise NoConvergence(f"seed {seed}: no perturbed gain has margin > 0.05 and "
                        f"||grad|| >= 1e-2")


def _rel(err: float, ref: float) -> float:
    return err / max(ref, np.finfo(float).tiny)


def check_scalar_grid() -> CheckResult:
    """Library derivatives on 1x1 matrices vs the scalar closed forms."""
    a = b = 1.0
    Q = R = 0.5
    gamma = 0.9
    s0_sq, s_sq = 1.0, 0.2
    prob = LqrProblem(A=[[a]], B=[[b]], Q=[[Q]], R=[[R]], gamma=gamma,
                      Sigma_w=[[s_sq]], Sigma_0=[[s0_sq]])
    thetas = np.linspace(-0.04, 2.04, 50)
    tol, worst = 1e-12, 0.0
    for theta in thetas:
        ref = scalar_reference(a, b, Q, R, gamma, s0_sq, s_sq, theta)
        gain = Gain([[theta]])
        rep = Evaluation(prob, gain)
        vals = (rep.grad[0], rep.H_gn[0, 0], rep.Lambda[0, 0], rep.H_exact[0, 0],
                rep.jac_vecP[0, 0])
        refs = (ref.grad, ref.h_gn, ref.lam, ref.hess_exact, ref.dp_dtheta)
        for got, want in zip(vals, refs):
            worst = max(worst, _rel(abs(got - want), abs(want)))
    return CheckResult("scalar closed forms (50-point grid)", worst <= tol,
                       f"max rel err {worst:.3e} (tol {tol:.0e})")


def check_fd_gradient() -> CheckResult:
    tol, worst = 1e-6, 0.0
    for seed in range(5):
        prob, gain = random_stabilizing_instance(seed)
        g = Evaluation(prob, gain).grad
        fd = fd_gradient(prob, gain)
        worst = max(worst, _rel(np.linalg.norm(g - fd), np.linalg.norm(fd)))
    return CheckResult("gradient vs central differences", worst <= tol,
                       f"max rel err {worst:.3e} (tol {tol:.0e})")


def check_fd_hessian() -> CheckResult:
    tol, worst = 1e-4, 0.0
    for seed in range(3):
        prob, gain = random_stabilizing_instance(seed)
        H = Evaluation(prob, gain).H_exact
        fd = fd_hessian(prob, gain)
        worst = max(worst, _rel(np.linalg.norm(H - fd, "fro"),
                                np.linalg.norm(fd, "fro")))
    return CheckResult("exact Hessian vs central differences", worst <= tol,
                       f"max rel err {worst:.3e} (tol {tol:.0e})")


def check_hvp() -> CheckResult:
    """Hessian-vector products against the dense H_exact and against
    central differences of the gradient, along a random direction and along
    that direction scaled by 1e-12, on random instances (n <= 4) and on a
    24-state building, whose Stein solves run by doubling."""
    tol, fd_tol = 1e-12, 1e-6
    building = make_shear_building(floors=12, seed=7)
    cases = [(seed, *random_stabilizing_instance(seed)) for seed in range(5)]
    cases.append((7, building, initial_gain(building)))
    worst, worst_fd = 0.0, 0.0
    for seed, prob, gain in cases:
        ev = Evaluation(prob, gain)
        v = np.random.default_rng(seed).standard_normal(prob.m * prob.n)
        hv, small, want = ev.hvp(v), ev.hvp(1e-12 * v) / 1e-12, ev.H_exact @ v
        err = max(np.linalg.norm(hv - want), np.linalg.norm(small - want))
        worst = max(worst, _rel(err, np.linalg.norm(want)))
        fd = fd_hvp(prob, gain, v)
        worst_fd = max(worst_fd, _rel(np.linalg.norm(hv - fd), np.linalg.norm(fd)))
    ok = worst <= tol and worst_fd <= fd_tol
    return CheckResult("Hessian-vector product vs H_exact and gradient differences", ok,
                       f"max rel err {worst:.3e} (tol {tol:.0e}), vs differences "
                       f"{worst_fd:.3e} (tol {fd_tol:.0e})")


def check_lambda_paths() -> CheckResult:
    tol, worst = 1e-10, 0.0
    for seed in range(5):
        prob, gain = random_stabilizing_instance(seed)
        direct = Evaluation(prob, gain).Lambda
        columnwise = lambda_via_Mi(prob, gain)
        worst = max(worst, _rel(np.linalg.norm(direct - columnwise, "fro"),
                                np.linalg.norm(direct, "fro")))
    return CheckResult("Lambda direct vs columnwise assembly", worst <= tol,
                       f"max rel err {worst:.3e} (tol {tol:.0e})")


def check_moment_series() -> CheckResult:
    tol, worst = 1e-8, 0.0
    for seed in range(5):
        prob, gain = random_stabilizing_instance(seed)
        solved = Evaluation(prob, gain).Sigma
        series = discounted_moment_series(prob, gain)
        worst = max(worst, _rel(np.linalg.norm(solved - series, "fro"),
                                np.linalg.norm(series, "fro")))
    return CheckResult("correlation solver vs moment series", worst <= tol,
                       f"max rel err {worst:.3e} (tol {tol:.0e})")


def check_optimum_identities() -> CheckResult:
    tol, worst_grad, worst_lam = 1e-8, 0.0, 0.0
    for seed in range(2):
        prob, _ = random_stabilizing_instance(seed)
        k_star, _ = optimal_gain(prob, tol=1e-12)
        rep = Evaluation(prob, k_star)
        worst_grad = max(worst_grad, float(np.linalg.norm(rep.grad)))
        worst_lam = max(worst_lam, _rel(np.linalg.norm(rep.Lambda, "fro"),
                                        np.linalg.norm(rep.H_gn, "fro")))
    ok = worst_grad <= tol and worst_lam <= tol
    return CheckResult("optimum identities (grad = 0, Lambda = 0)", ok,
                       f"grad norm {worst_grad:.3e}, rel Lambda {worst_lam:.3e}")


def check_riccati() -> CheckResult:
    """optimal_gain's K* and P against scipy's Riccati solver (a Schur
    method, independent of the doubling and the Hewer finish)."""
    probs = [make_pendulum(), make_shear_building(floors=24, seed=0)]
    probs += [random_stabilizing_instance(seed, m=2)[0] for seed in (0, 1)]
    worst = 0.0
    for prob in probs:
        g = prob.gamma
        P = solve_discrete_are(np.sqrt(g) * prob.A, np.sqrt(g) * prob.B, prob.Q, prob.R)
        K = np.linalg.solve(prob.R + g * prob.B.T @ P @ prob.B, g * prob.B.T @ P @ prob.A)
        k_star, value = optimal_gain(prob)
        for got, want in ((k_star.K, K), (value.P, P)):
            worst = max(worst, _rel(np.linalg.norm(got - want), np.linalg.norm(want)))
    return CheckResult("Riccati solver vs scipy's DARE", worst <= 1e-12,
                       f"max rel err {worst:.3e} (tol 1e-12)")


def check_monte_carlo() -> CheckResult:
    prob = make_pendulum()
    gain = initial_gain(prob)
    est = monte_carlo_J(prob, gain, samples=2000, seed=0)
    exact = Evaluation(prob, gain).J
    err = abs(est.mean - exact)
    ok = err <= 3.0 * est.std_error
    return CheckResult("Monte Carlo vs closed-form cost", ok,
                       f"|mc - exact| = {err:.4g} vs 3*SE = {3 * est.std_error:.4g}")


ALL_CHECKS = (check_scalar_grid, check_fd_gradient, check_fd_hessian, check_hvp,
              check_lambda_paths, check_moment_series,
              check_optimum_identities, check_riccati, check_monte_carlo)


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
