"""The four benchmark workloads and the benchmark's own correctness checks.

A workload is a pool of seeded cases (a plant plus a starting gain) built by
``setup``, a ``task`` that hands one case to the library's public API, and a
``check`` that verifies the task's output against references computed here
with scipy, never with the code under test. The library only ever receives
the generated problems and starting gains.

Checks return accuracy figures (relative errors, larger is worse) and a list
of failure reasons. A task fails when it raises, when the library flags the
run, when any check fails or when an accuracy figure exceeds its ceiling;
failures are counted, never filtered out.
"""

from __future__ import annotations

import json
import math
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from lqrnewton import benchmarks, derivatives, experiment, lqr, optimize, oracles

# Absolute ceilings on the accuracy metrics. The values measured at the
# commit that introduced the benchmark were around 1e-14 (gains, residuals,
# costs) and 1e-5 (finite differences, which are truncation-limited), so a
# ceiling is crossed only by a real loss of accuracy, not by round-off.
CEILINGS = {
    "gain_rel_err": 1e-9,
    "lyap_resid": 1e-10,
    "cost_rel_err": 1e-9,
    "grad_fd_rel_err": 1e-4,
}

# Finite-difference gradients cost 2*m*n cost evaluations; check at most
# this many distinct starting gains per run.
FD_CHECKS = 4

PENDULUM_METHODS = [
    {"method": "newton", "step_mode": "fixed", "alpha": 1.0,
     "grad_tol": 1e-8, "max_iter": 40},
    {"method": "gauss_newton", "step_mode": "fixed", "alpha": 0.5,
     "grad_tol": 1e-8, "max_iter": 150},
    {"method": "first_order", "step_mode": "backtracking", "alpha": 1.0,
     "grad_tol": 1e-8, "max_iter": 40},
]
PENDULUM_FILES = sorted(["summary.json"] + [f"trace_{m['method']}.csv"
                                            for m in PENDULUM_METHODS])


@dataclass
class Case:
    """One task's inputs: a plant and the optimizer's starting gain."""

    prob: lqr.LqrProblem
    seed_gain: lqr.Gain
    label: str


@dataclass
class Reference:
    """Independent reference values for one case."""

    K_dare: np.ndarray
    J_dare: float
    grad_fd_rel_err: Optional[float] = None


@dataclass
class Outcome:
    """Accuracy figures and failure reasons for one checked task."""

    accuracy: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def worst(self, name: str, value: float) -> None:
        self.accuracy[name] = worse(self.accuracy.get(name), float(value))


def worse(old: Optional[float], new: float) -> float:
    """The larger of two errors, where NaN counts as the largest."""
    if old is None or math.isnan(new) or new > old:
        return new
    return old


@dataclass
class Workload:
    name: str
    why: str
    pool: int      # distinct cases per run; tasks cycle through them
    traced: int    # cases timed under tracing in a traced run
    make_cases: Callable[[np.random.Generator, int], list]
    task: Callable
    check: Callable


# -- independent references ------------------------------------------------

def dare_reference(prob) -> tuple[np.ndarray, float]:
    """Optimal gain and cost from scipy's discrete algebraic Riccati solver."""
    g = prob.gamma
    P = scipy.linalg.solve_discrete_are(np.sqrt(g) * prob.A, np.sqrt(g) * prob.B,
                                        prob.Q, prob.R)
    K = np.linalg.solve(prob.R + g * prob.B.T @ P @ prob.B, g * prob.B.T @ P @ prob.A)
    return K, _cost_from_value(prob, P)


def _cost_from_value(prob, P: np.ndarray) -> float:
    g = prob.gamma
    return float(np.trace(P @ prob.Sigma_0) + g / (1.0 - g) * np.trace(P @ prob.Sigma_w))


def scipy_cost(prob, K: np.ndarray) -> float:
    """Discounted cost of gain K from scipy's Lyapunov solver."""
    Acl = prob.A - prob.B @ K
    P = scipy.linalg.solve_discrete_lyapunov(np.sqrt(prob.gamma) * Acl.T,
                                             prob.Q + K.T @ prob.R @ K)
    return _cost_from_value(prob, P)


def is_stabilizing(prob, K: np.ndarray) -> bool:
    Acl = np.sqrt(prob.gamma) * (prob.A - prob.B @ K)
    return float(np.max(np.abs(np.linalg.eigvals(Acl)))) < 1.0


def lyapunov_residual(prob, gain) -> float:
    """Largest relative residual of the library's P and Sigma equations."""
    g, K = prob.gamma, gain.K
    Acl = prob.A - prob.B @ K
    P, _ = lqr.solve_value(prob, gain)
    Sigma = lqr.solve_sigma(prob, gain)
    rP = prob.Q + K.T @ prob.R @ K + g * Acl.T @ P @ Acl - P
    rS = prob.Sigma_0 + g / (1.0 - g) * prob.Sigma_w + g * Acl @ Sigma @ Acl.T - Sigma
    return max(np.linalg.norm(rP) / np.linalg.norm(P),
               np.linalg.norm(rS) / np.linalg.norm(Sigma))


def rel_err(x, ref) -> float:
    return float(np.linalg.norm(np.asarray(x) - ref) / np.linalg.norm(ref))


def reference_for(case: Case, with_fd: bool) -> Reference:
    K, J = dare_reference(case.prob)
    ref = Reference(K, J)
    if with_fd:
        grad = derivatives.policy_gradient(case.prob, case.seed_gain)
        ref.grad_fd_rel_err = rel_err(oracles.fd_gradient(case.prob, case.seed_gain), grad)
    return ref


def ceiling_failures(accuracy: dict) -> list[str]:
    return [f"{name} {value:.2e} exceeds its ceiling {CEILINGS[name]:.0e}"
            for name, value in accuracy.items() if not value <= CEILINGS[name]]


def _check_descent(out: Outcome, J: list[float]) -> None:
    rises = [k for k in range(1, len(J)) if J[k] > J[k - 1]]
    if rises:
        out.failures.append(f"cost rose at iterate {rises[0]}")


# -- building workloads ----------------------------------------------------

def building_cases(floors: int) -> Callable:
    def make(rng: np.random.Generator, count: int) -> list[Case]:
        cases = []
        for s in rng.integers(0, 2**31, size=count):
            prob = benchmarks.make_shear_building(floors=floors, seed=int(s))
            gain = benchmarks.initial_gain(prob, r_inflation=2.0)
            cases.append(Case(prob, gain, f"floors={floors} seed={s}"))
        return cases
    return make


def building_task(config: dict) -> Callable:
    def task(case: Case, workdir: Path):
        cfg = optimize.OptimizerConfig(seed_gain=case.seed_gain, **config)
        return optimize.run(case.prob, cfg)
    return task


def building_check(case: Case, rec, ref: Reference) -> Outcome:
    out = Outcome()
    if not rec.steps or rec.k_star is None or len(rec.gains) != len(rec.steps):
        out.failures.append("run record is incomplete")
        return out
    if rec.flag is not None:
        out.failures.append(f"run flagged {rec.flag}")
    if not all(is_stabilizing(case.prob, g.K) for g in rec.gains):
        out.failures.append("a recorded iterate is not stabilizing")
    out.worst("gain_rel_err", rel_err(rec.k_star.K, ref.K_dare))
    out.worst("lyap_resid", lyapunov_residual(case.prob, rec.final_gain))
    J_ref = scipy_cost(case.prob, rec.final_gain.K)
    out.worst("cost_rel_err", abs(rec.steps[-1].J - J_ref) / abs(J_ref))
    return out


def budget_check(max_iter: int, min_reduction: float = 1.0) -> Callable:
    """Checks a fixed-budget run: it takes every step of its budget, its
    cost never rises, and its gradient norm falls by ``min_reduction``."""
    def check(case: Case, rec, ref: Reference) -> Outcome:
        out = building_check(case, rec, ref)
        if rec.iterations != max_iter:
            out.failures.append(f"ran {rec.iterations} of {max_iter} iterations")
        _check_descent(out, [s.J for s in rec.steps])
        g = rec.column("grad_norm")
        if not g[-1] * min_reduction <= g[0]:
            out.failures.append(f"gradient norm fell only from {g[0]:.2e} to {g[-1]:.2e}")
        return out
    return check


# -- pendulum experiment ---------------------------------------------------

def pendulum_cases(rng: np.random.Generator, count: int) -> list[Case]:
    """Starting gains from r_inflation log-stratified over [3, 1000].

    Task time depends strongly on r (0.06 to 0.13 s, in clusters), so the
    median is sensitive to the mix of r values that a run completes. The
    strata are therefore visited in bit-reversed order: every prefix of the
    pool, and so every run length, spreads evenly over the whole range.
    """
    prob = benchmarks.make_pendulum()
    bits = max(count - 1, 1).bit_length()
    order = sorted(range(count), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))
    u = (np.array(order) + rng.random(count)) / count
    return [Case(prob, benchmarks.initial_gain(prob, r_inflation=float(r)),
                 f"pendulum r={r:.4g}") for r in 3.0 * (1000.0 / 3.0) ** u]


def pendulum_task(case: Case, workdir: Path):
    out_dir = Path(tempfile.mkdtemp(dir=workdir))
    cfg = experiment.config_from_dict(
        {"problem": {"generator": "pendulum"}, "methods": PENDULUM_METHODS,
         "seed": 0, "seed_gain": case.seed_gain.K.tolist(),
         "emit": {"trace_csv": True, "summary": True}},
        output_dir=out_dir)
    return experiment.run_experiment(cfg), out_dir


def _read_trace(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != experiment.TRACE_HEADER:
        raise ValueError(f"{path.name} has a wrong header")
    return [line.split(",") for line in lines[1:]]


def pendulum_check(case: Case, output, ref: Reference) -> Outcome:
    """Checks the four emitted files.

    The files carry no gains, so a converged method's distance to the DARE
    gain is bounded by its recorded gain_error (the distance to the
    library's k_star) plus k_star's own distance to the DARE gain, and the
    Lyapunov residuals are taken at k_star.
    """
    status, out_dir = output
    out = Outcome()
    k_star, _ = lqr.optimal_gain(case.prob)
    out.worst("gain_rel_err", rel_err(k_star.K, ref.K_dare))
    out.worst("lyap_resid", lyapunov_residual(case.prob, k_star))
    K_star_err = np.linalg.norm(k_star.K - ref.K_dare)
    if status != 0:
        out.failures.append(f"run_experiment returned {status}")
    names = sorted(p.name for p in out_dir.iterdir())
    if names != PENDULUM_FILES:
        out.failures.append(f"emitted {names}")
        return out
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    K_norm = np.linalg.norm(ref.K_dare)
    for spec in PENDULUM_METHODS:
        label = spec["method"]
        rows = _read_trace(out_dir / f"trace_{label}.csv")
        J = [float(r[1]) for r in rows]
        info = summary["methods"][label]
        if info.get("flag") is not None or info["final_J"] != J[-1]:
            out.failures.append(f"{label}: summary disagrees with trace or is flagged")
        if label == "first_order":
            _check_descent(out, J)
            if J[-1] < ref.J_dare * (1.0 - 1e-12):
                out.failures.append("first_order cost fell below the optimum")
            continue
        if not info["converged"]:
            out.failures.append(f"{label} did not converge")
        out.worst("gain_rel_err", (float(rows[-1][3]) + K_star_err) / K_norm)
        out.worst("cost_rel_err", abs(J[-1] - ref.J_dare) / ref.J_dare)
    return out


# The building tasks leave k_star unset, so ``run`` also calls optimal_gain.
# They run a fixed number of iterations (grad_tol is out of reach): Newton
# with backtracking stalls at the round-off floor of J, which lies between
# 1e-13 and 2e-6 in gradient norm depending on the plant, so a tolerance
# would make the work per task depend on the plant drawn.
BUDGET_RUN = {"step_mode": "backtracking", "alpha": 1.0, "grad_tol": 1e-12}

WORKLOADS = {w.name: w for w in [
    Workload(
        "pendulum_experiment",
        "pendulum (n=2) experiment with three methods and four output files: "
        "thousands of tiny calls, so it measures per-call overhead, the line "
        "search and experiment I/O",
        pool=256, traced=32, make_cases=pendulum_cases,
        task=pendulum_task, check=pendulum_check),
    Workload(
        "building20_first_order",
        "20-state building, first-order for 30 iterations plus optimal_gain: "
        "the largest size on the Kronecker branch of the Stein solver",
        pool=12, traced=6, make_cases=building_cases(10),
        task=building_task({**BUDGET_RUN, "method": "first_order", "max_iter": 30}),
        check=budget_check(30)),
    Workload(
        "building48_first_order",
        "48-state building, first-order for 100 iterations: the doubling "
        "branch of the Stein solver and the eigenvalue stability checks",
        pool=16, traced=10, make_cases=building_cases(24),
        task=building_task({**BUDGET_RUN, "method": "first_order", "max_iter": 100}),
        check=budget_check(100)),
    Workload(
        "building48_newton",
        "48-state building, four exact Newton steps: dominated by the "
        "curvature layer (the 2304x2304 Lyapunov operator), which the "
        "first-order workloads skip",
        pool=6, traced=4, make_cases=building_cases(24),
        task=building_task({**BUDGET_RUN, "method": "newton", "max_iter": 4}),
        check=budget_check(4, min_reduction=1e2)),
]}
