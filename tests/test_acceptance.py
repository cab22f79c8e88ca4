"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import time

import numpy as np
import pytest

from lqrnewton import (Gain, OptimizerConfig, config_from_dict, exact_hessian,
                       initial_gain, is_gamma_stabilizing, jacobian_vecP,
                       lambda_term, landscape, make_pendulum,
                       make_shear_building, optimal_gain, performance,
                       policy_gradient, run, run_experiment, solve_sigma)
from lqrnewton.oracles import (discounted_moment_series, fd_gradient,
                               fd_hessian, lambda_via_Mi, monte_carlo_J,
                               scalar_reference)

from conftest import CRITERION_10_DOC, SCALAR, rel_err, scalar_problem


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"\n[{tag}] acceptance {num}: {desc}{suffix}")
    assert ok, f"acceptance {num} failed: {detail}"


@pytest.fixture(scope="module")
def pendulum_bundle():
    prob = make_pendulum()
    k_star, _ = optimal_gain(prob, tol=1e-12)
    seed = initial_gain(prob, r_inflation=100.0)
    return prob, k_star, seed


@pytest.fixture(scope="module")
def building_bundle():
    prob = make_shear_building(seed=0)
    k_star, _ = optimal_gain(prob, tol=1e-12)
    # full Newton steps need a seed inside the fast local basin
    seed = initial_gain(prob, r_inflation=2.0)
    return prob, k_star, seed


def _iterations_to(record, tol: float):
    for s in record.steps:
        if s.gain_error <= tol:
            return s.k
    return np.inf


def test_criterion_01_scalar_oracle_equivalence():
    t0 = time.monotonic()
    prob = scalar_problem()
    worst = 0.0
    for theta in np.linspace(-0.04, 2.04, 50):
        ref = scalar_reference(SCALAR["a"], SCALAR["b"], SCALAR["Q"], SCALAR["R"],
                               SCALAR["gamma"], 1.0, 0.0, theta)
        rep = exact_hessian(prob, Gain([[theta]]))
        for got, want in ((rep.grad[0], ref.grad), (rep.H_gn[0, 0], ref.h_gn),
                          (rep.Lambda[0, 0], ref.lam),
                          (rep.H_exact[0, 0], ref.hess_exact)):
            worst = max(worst, rel_err(got, want))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(1, "scalar closed-form equivalence on 50-point grid", ok,
            f"max rel err {worst:.2e} (tol 1e-12), {elapsed:.2f}s (< 1s)")


def test_criterion_02_gradient_vs_finite_differences(instances20):
    t0 = time.monotonic()
    worst = 0.0
    for prob, gain in instances20:
        g = policy_gradient(prob, gain)
        fd = fd_gradient(prob, gain)
        worst = max(worst, rel_err(g, fd))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    _report(2, "policy gradient vs central differences on 20 instances", ok,
            f"max rel err {worst:.2e} (tol 1e-6), {elapsed:.1f}s (< 10s)")


def test_criterion_03_exact_hessian_vs_finite_differences(instances20):
    t0 = time.monotonic()
    worst = 0.0
    symmetric = True
    for prob, gain in instances20:
        rep = exact_hessian(prob, gain)
        fd = fd_hessian(prob, gain)
        worst = max(worst, rel_err(rep.H_exact, fd))
        symmetric &= np.array_equal(rep.H_exact, rep.H_exact.T)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-4 and symmetric and elapsed < 30.0
    _report(3, "exact Hessian vs central differences on 20 instances", ok,
            f"max rel err {worst:.2e} (tol 1e-4), exactly symmetric: {symmetric}, "
            f"{elapsed:.1f}s (< 30s)")


def test_criterion_04_lambda_assembly_paths_agree(instances20):
    worst = 0.0
    for prob, gain in instances20:
        direct = lambda_term(prob, gain, jacobian_vecP(prob, gain))
        columnwise = lambda_via_Mi(prob, gain)
        worst = max(worst, rel_err(columnwise, direct))
    ok = worst <= 1e-10
    _report(4, "Lambda direct form vs columnwise assembly on 20 instances", ok,
            f"max rel err {worst:.2e} (tol 1e-10)")


def test_criterion_05_correlation_solver_vs_moment_series(instances20):
    worst = 0.0
    for prob, gain in instances20:
        solved = solve_sigma(prob, gain)
        series = discounted_moment_series(prob, gain, trunc_tol=1e-14)
        worst = max(worst, rel_err(solved, series))
    ok = worst <= 1e-8
    _report(5, "correlation solver vs term-by-term moment series", ok,
            f"max rel err {worst:.2e} (tol 1e-8)")


def test_criterion_06_optimum_identities(instances20, pendulum_bundle):
    pend, pend_star, _ = pendulum_bundle
    worst_grad = float(np.linalg.norm(policy_gradient(pend, pend_star)))
    pend_rep = exact_hessian(pend, pend_star)
    worst_lam = np.linalg.norm(pend_rep.Lambda, "fro") / np.linalg.norm(pend_rep.H_gn, "fro")
    worst_fd = 0.0
    cases = [(scalar_problem(), None)] + [(p, None) for p, _ in instances20[:5]]
    for prob, _ in cases:
        k_star, _ = optimal_gain(prob, tol=1e-12)
        rep = exact_hessian(prob, k_star)
        worst_grad = max(worst_grad, float(np.linalg.norm(rep.grad)))
        worst_lam = max(worst_lam, np.linalg.norm(rep.Lambda, "fro")
                        / np.linalg.norm(rep.H_gn, "fro"))
        worst_fd = max(worst_fd, rel_err(rep.H_gn, fd_hessian(prob, k_star)))
    ok = worst_grad <= 1e-8 and worst_lam <= 1e-8 and worst_fd <= 1e-4
    _report(6, "optimum identities: grad = 0, Lambda = 0, H_gn is the Hessian", ok,
            f"grad {worst_grad:.2e} (tol 1e-8), rel Lambda {worst_lam:.2e} "
            f"(tol 1e-8), H_gn vs FD {worst_fd:.2e} (tol 1e-4)")


def test_criterion_07_convergence_rates(pendulum_bundle, building_bundle):
    t0 = time.monotonic()
    details = []
    ok_all = True
    for name, (prob, k_star, seed) in (("pendulum", pendulum_bundle),
                                       ("building", building_bundle)):
        records = {}
        for method, mode, alpha, max_iter in (
                ("newton", "fixed", 1.0, 40),
                ("gauss_newton", "fixed", 0.5, 150),
                ("first_order", "backtracking", 1.0, 300)):
            cfg = OptimizerConfig(method=method, step_mode=mode, alpha=alpha,
                                  grad_tol=1e-12, max_iter=max_iter,
                                  seed_gain=seed)
            records[method] = run(prob, cfg, k_star=k_star)

        its = {m: _iterations_to(r, 1e-8) for m, r in records.items()}
        ordering = its["newton"] <= its["gauss_newton"] < its["first_order"]

        # (b) three consecutive error-squaring steps for Newton
        e = records["newton"].column("gain_error")
        ratios = [e[i + 1] / e[i] ** 2 for i in range(len(e) - 1)
                  if 1e-10 <= e[i] <= 2.0]
        quad = len(ratios) >= 3 and max(ratios) <= 1e3

        # (c) Gauss-Newton contraction factor at most 0.6 every step
        g = records["gauss_newton"].column("gain_error")
        gn_ratios = [g[i + 1] / g[i] for i in range(len(g) - 1) if g[i] >= 1e-9]
        linear = len(gn_ratios) > 0 and max(gn_ratios) <= 0.6

        ok_all &= ordering and quad and linear
        details.append(
            f"{name}: iters(N/GN/FO)={its['newton']}/{its['gauss_newton']}/"
            f"{its['first_order']}, quad ratios n={len(ratios)} max={max(ratios):.2g}, "
            f"GN ratio max={max(gn_ratios):.3f}")
    elapsed = time.monotonic() - t0
    ok_all &= elapsed < 120.0
    _report(7, "convergence-rate ordering and local rates on both benchmarks",
            ok_all, "; ".join(details) + f"; {elapsed:.0f}s (< 120s)")


def test_criterion_08_landscape_behavior(pendulum_bundle):
    prob, k_star, seed = pendulum_bundle
    t = k_star.theta
    grid = landscape(prob, (t[0] - 30.0, t[0] + 50.0, 17),
                     (t[1] - 45.0, t[1] + 35.0, 17))
    i, j = grid.min_cell()
    center = np.array([grid.theta1[i], grid.theta2[j]])
    cell = np.array([grid.theta1[1] - grid.theta1[0],
                     grid.theta2[1] - grid.theta2[0]])

    cfg = OptimizerConfig(method="newton", step_mode="backtracking", alpha=1.0,
                          grad_tol=1e-8, max_iter=50, seed_gain=seed)
    newton = run(prob, cfg, k_star=k_star)
    J = newton.column("J")
    monotone = bool(np.all(np.diff(J) <= 1e-9 * np.abs(J[:-1])))
    basin_k = next((s.k for g, s in zip(newton.gains, newton.steps)
                    if np.all(np.abs(g.theta - center) <= cell)), np.inf)

    # largest fixed step whose first-order run never leaves the stabilizing set
    grad0 = policy_gradient(prob, seed)
    alpha = 1.0
    while True:
        trial = Gain.from_theta(seed.theta - alpha * grad0, prob.m, prob.n)
        ok, _ = is_gamma_stabilizing(prob, trial)
        if ok:
            break
        alpha *= 0.5
    while True:
        fo_cfg = OptimizerConfig(method="first_order", step_mode="fixed",
                                 alpha=alpha, grad_tol=1e-8, max_iter=100,
                                 seed_gain=seed)
        fo = run(prob, fo_cfg, k_star=k_star)
        if fo.flag is None:
            break
        alpha *= 0.5
    fo_J = fo.column("J")
    nonmono = int(np.sum(np.diff(fo_J) > 0))
    fo_ok = nonmono >= 1 or fo.iterations >= 5 * newton.iterations

    ok = monotone and basin_k <= 10 and fo_ok
    _report(8, "landscape: monotone Newton reaches the minimum basin, "
               "fixed-step gradient fluctuates", ok,
            f"Newton monotone={monotone}, basin at iter {basin_k} (<= 10), "
            f"first-order alpha={alpha:.2e} non-monotone segments={nonmono}, "
            f"iters={fo.iterations} vs Newton {newton.iterations}")


def test_criterion_09_monte_carlo_consistency(pendulum_bundle):
    t0 = time.monotonic()
    prob, _, seed = pendulum_bundle
    est = monte_carlo_J(prob, seed, samples=10_000, seed=0)
    exact = performance(prob, seed)
    err = abs(est.mean - exact)
    elapsed = time.monotonic() - t0
    ok = err <= 3.0 * est.std_error and elapsed < 30.0
    _report(9, "Monte Carlo cost agrees with the closed form at 3 sigma", ok,
            f"|mc - exact| = {err:.4g} vs 3*SE = {3 * est.std_error:.4g}, "
            f"{est.samples} rollouts, horizon {est.horizon}, {elapsed:.1f}s (< 30s)")


def test_criterion_10_experiment_determinism(tmp_path):
    outs = []
    for sub in ("a", "b"):
        cfg = config_from_dict(CRITERION_10_DOC, output_dir=tmp_path / sub)
        assert run_experiment(cfg) == 0
        outs.append({p.name: p.read_bytes()
                     for p in sorted((tmp_path / sub).iterdir())})
    identical = outs[0].keys() == outs[1].keys() and all(
        outs[0][k] == outs[1][k] for k in outs[0])
    ok = identical and len(outs[0]) == 4
    _report(10, "repeated experiment runs emit byte-identical files", ok,
            f"{len(outs[0])} files compared")
