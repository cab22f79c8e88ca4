"""Preconditioned policy-update loop for discounted LQR with three
preconditioners (identity, Gauss-Newton, exact Newton), Armijo backtracking,
and stabilization safeguards.

The update is theta <- theta - alpha * Pinv grad with Pinv the inverse of
the chosen curvature matrix. Trial gains that leave the gamma-stabilizing
set (where the cost is undefined) are rejected exactly like Armijo
failures, so no recorded iterate is ever non-stabilizing.

A single run is sequential; separate runs share no state and may execute
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import DirectionError, LineSearchFailure, SeedNotStabilizing
from .lqr import Gain, LqrProblem, optimal_gain
from .derivatives import CurvatureReport, Evaluation, exact_hessian

METHODS = ("first_order", "gauss_newton", "newton")
STEP_MODES = ("fixed", "backtracking")


@dataclass
class OptimizerConfig:
    """Settings for one optimizer run.

    method      : first_order | gauss_newton | newton
    step_mode   : "fixed" (always step alpha) or "backtracking" (Armijo,
                  starting from alpha and shrinking)
    alpha       : fixed step, or the initial step for backtracking
    newton_damping : base Levenberg shift for non-PD exact Hessians;
                  doubled until a Cholesky factorization succeeds
    seed_gain   : starting gain; None means the zero gain
    """

    method: str = "newton"
    step_mode: str = "backtracking"
    alpha: float = 1.0
    c_armijo: float = 1e-4
    shrink: float = 0.5
    max_backtracks: int = 60
    grad_tol: float = 1e-8
    max_iter: int = 100
    newton_damping: float = 1e-8
    seed_gain: Optional[Gain] = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.step_mode not in STEP_MODES:
            raise ValueError(f"step_mode must be one of {STEP_MODES}, got {self.step_mode!r}")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must lie in (0, 1)")
        if not 0.0 < self.c_armijo < 1.0:
            raise ValueError("c_armijo must lie in (0, 1)")
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.newton_damping < 0:
            raise ValueError("newton_damping must be >= 0")


@dataclass
class IterateRecord:
    """State of one recorded iterate plus the step taken from it.

    alpha_used and backtracks are zero on the final row (no step taken).
    """

    k: int
    J: float
    grad_norm: float
    gain_error: float
    alpha_used: float
    backtracks: int
    stabilizing_margin: float


@dataclass
class RunRecord:
    """Trace of an optimizer run. steps[k] and gains[k] describe iterate k."""

    steps: list[IterateRecord] = field(default_factory=list)
    gains: list[Gain] = field(default_factory=list)
    final_gain: Optional[Gain] = None
    k_star: Optional[Gain] = None
    converged: bool = False
    flag: Optional[str] = None

    @property
    def iterations(self) -> int:
        return max(len(self.steps) - 1, 0)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(s, name) for s in self.steps])


def search_direction(method: str, report: CurvatureReport,
                     damping: float = 1e-8) -> np.ndarray:
    """Descent direction for the given preconditioner.

    first_order: -grad. gauss_newton: -H_gn^-1 grad (H_gn must be PD).
    newton: -(H_exact + lambda I)^-1 grad where lambda is the smallest value
    in {0, damping * 2^j, j < 60} whose shift factorizes (Cholesky). Raises
    DirectionError when no shift works or the result is not a descent
    direction.
    """
    g = report.grad
    if not np.any(g):
        return np.zeros_like(g)
    if method == "first_order":
        return -g
    if method == "gauss_newton":
        if report.H_gn is None:
            raise ValueError("report lacks H_gn; build it with gn_hessian or exact_hessian")
        try:
            c = scipy.linalg.cho_factor(report.H_gn)
        except np.linalg.LinAlgError:
            raise DirectionError("Gauss-Newton curvature is not positive definite") from None
        d = -scipy.linalg.cho_solve(c, g)
    elif method == "newton":
        if report.H_exact is None:
            raise ValueError("report lacks H_exact; build it with exact_hessian")
        H = report.H_exact
        shifts = [0.0]
        if damping > 0:
            shifts += [damping * 2.0 ** j for j in range(60)]
        for lam in shifts:
            try:
                c = scipy.linalg.cho_factor(H + lam * np.eye(H.shape[0]))
                break
            except np.linalg.LinAlgError:
                continue
        else:
            raise DirectionError(
                "no positive-definite shift of the exact Hessian found in 60 doublings")
        d = -scipy.linalg.cho_solve(c, g)
    else:
        raise ValueError(f"unknown method {method!r}")
    if float(d @ g) >= 0.0:
        raise DirectionError("computed direction is not a descent direction")
    return d


def _backtrack(prob: LqrProblem, gain: Gain, direction: np.ndarray, J0: float,
               grad: np.ndarray, cfg: OptimizerConfig):
    """Armijo backtracking with a stabilization guard.

    Returns (alpha, trial Evaluation, backtracks); trial gains outside the
    stabilizing set count as Armijo failures. Raises LineSearchFailure when
    max_backtracks shrinks are exhausted.
    """
    theta0 = gain.theta
    if not np.any(direction):
        return cfg.alpha, Evaluation(prob, gain), 0
    slope = float(grad @ direction)
    if slope >= 0.0:
        raise DirectionError("backtracking requires a descent direction")
    alpha = cfg.alpha
    for j in range(cfg.max_backtracks + 1):
        trial = Evaluation(prob, Gain.from_theta(theta0 + alpha * direction, prob.m, prob.n))
        if trial.stabilizing and trial.J <= J0 + cfg.c_armijo * alpha * slope:
            return alpha, trial, j
        alpha *= cfg.shrink
    raise LineSearchFailure(
        f"no stabilizing Armijo step within {cfg.max_backtracks} backtracks")


def backtracking_search(prob: LqrProblem, gain: Gain, direction: np.ndarray,
                        J0: float, grad: np.ndarray,
                        cfg: OptimizerConfig) -> tuple[float, Gain]:
    """Public line search: smallest j with alpha = alpha0 * shrink^j whose
    gain is stabilizing and satisfies the Armijo decrease. Returns
    (alpha, new_gain); a zero direction returns (alpha0, gain) unchanged.
    """
    alpha, trial, _ = _backtrack(prob, gain, direction, J0, grad, cfg)
    return alpha, trial.gain


def run(prob: LqrProblem, cfg: OptimizerConfig,
        k_star: Optional[Gain] = None) -> RunRecord:
    """Run the preconditioned update loop until grad_tol or max_iter.

    Every recorded iterate is gamma-stabilizing. In backtracking mode the
    cost is non-increasing across iterations. The gain-error column uses
    k_star (computed once via optimal_gain when not supplied). On a line
    search failure, or a fixed step that would leave the stabilizing set,
    the current iterate is kept and the run is flagged rather than raising;
    DirectionError propagates with the partial record attached as
    ``exc.record``. The accepted trial's Evaluation becomes the next
    iterate, so its stability check and value solve are not repeated.
    """
    ev = Evaluation(prob, cfg.seed_gain if cfg.seed_gain is not None else Gain.zero(prob))
    if not ev.stabilizing:
        raise SeedNotStabilizing("optimizer seed gain is not gamma-stabilizing")
    if k_star is None:
        k_star, _ = optimal_gain(prob)

    rec = RunRecord(k_star=k_star)
    for k in range(cfg.max_iter + 1):
        gain = ev.gain
        grad_norm = float(np.linalg.norm(ev.grad))
        gain_error = float(np.linalg.norm(gain.K - k_star.K, "fro"))

        def record(alpha_used: float, backtracks: int) -> None:
            rec.steps.append(IterateRecord(k, ev.J, grad_norm, gain_error,
                                           alpha_used, backtracks, ev.margin))
            rec.gains.append(gain)

        if grad_norm <= cfg.grad_tol or k == cfg.max_iter:
            record(0.0, 0)
            rec.converged = grad_norm <= cfg.grad_tol
            break

        if cfg.method == "newton":
            report = exact_hessian(prob, gain, ev)
        else:
            H_gn = ev.H_gn if cfg.method == "gauss_newton" else None
            report = CurvatureReport(grad=ev.grad, S=ev.S, H_gn=H_gn)
        try:
            direction = search_direction(cfg.method, report, cfg.newton_damping)
        except DirectionError as exc:
            record(0.0, 0)
            rec.flag = "direction_error"
            rec.final_gain = gain
            exc.record = rec
            raise

        if cfg.step_mode == "fixed":
            trial = Evaluation(prob, Gain.from_theta(gain.theta + cfg.alpha * direction,
                                                     prob.m, prob.n))
            if not trial.stabilizing:
                record(0.0, 0)
                rec.flag = "left_stabilizing_set"
                break
            alpha_used, backtracks = cfg.alpha, 0
        else:
            try:
                alpha_used, trial, backtracks = _backtrack(
                    prob, gain, direction, ev.J, ev.grad, cfg)
            except LineSearchFailure:
                record(0.0, 0)
                rec.flag = "line_search_failure"
                break

        record(alpha_used, backtracks)
        ev = trial

    rec.final_gain = ev.gain
    return rec
