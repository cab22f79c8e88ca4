"""Preconditioned policy-update loop for discounted LQR with three
preconditioners (identity, Gauss-Newton, exact Newton), Armijo backtracking,
and stabilization safeguards.

The update is theta <- theta - alpha * Pinv grad with Pinv the inverse of
the chosen curvature matrix; for Gauss-Newton, Pinv grad is vec(E^-1 S)
(Hewer's step), so H_gn is never formed. Trial gains that leave the
gamma-stabilizing set (where the cost is undefined) are rejected exactly
like Armijo failures, so no recorded iterate is ever non-stabilizing.

A single run is sequential; separate runs share no state and may execute
concurrently.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import DirectionError, LineSearchFailure, NoConvergence, SeedNotStabilizing
from .lqr import Gain, LqrProblem, optimal_gain
from .derivatives import Evaluation, Trials, exact_hessian
from .linalg import vec

METHODS = ("first_order", "gauss_newton", "newton")
STEP_MODES = ("fixed", "backtracking")
# Largest state dimension whose line search sizes its first block of trials
# by the previous search's depth. A block saves one call per trial it holds
# and wastes one slice per trial past the accepted one. On a 2-core x86 VM
# with one BLAS thread, a slice cost less than a call up to n = 8 (at n = 2,
# 20 us against 110 us) and more from n = 10 on (at n = 20, 6 ms: the LU of
# the 400 x 400 Stein operator).
_BLOCK_MAX_DIM = 8


def _require_int(value, name: str, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass
class OptimizerConfig:
    """Settings for one optimizer run.

    method      : first_order | gauss_newton | newton
    step_mode   : "fixed" (always step alpha) or "backtracking" (Armijo,
                  starting from alpha and shrinking)
    alpha       : fixed step, or the initial step for backtracking;
                  positive and finite
    max_backtracks, max_iter : integers, at least 0 and 1
    newton_damping : base Levenberg shift for non-PD exact Hessians, >= 0
                  and finite; doubled until a Cholesky factorization succeeds
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
        if not 0.0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must lie in (0, 1)")
        if not 0.0 < self.c_armijo < 1.0:
            raise ValueError("c_armijo must lie in (0, 1)")
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        _require_int(self.max_iter, "max_iter", 1)
        _require_int(self.max_backtracks, "max_backtracks", 0)
        if not 0.0 <= self.newton_damping < np.inf:
            raise ValueError("newton_damping must be finite and >= 0")


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


def _damped_newton(H: np.ndarray, g: np.ndarray, damping: float) -> np.ndarray:
    """The Levenberg-shifted step -(H + lambda I)^-1 g of search_direction."""
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
    return -scipy.linalg.cho_solve(c, g)


def search_direction(method: str, ev: Evaluation, damping: float = 1e-8) -> np.ndarray:
    """Descent direction for the given preconditioner at an iterate's
    Evaluation.

    first_order: -grad. gauss_newton: Hewer's step -vec(E^-1 S), which is
    -H_gn^-1 grad wherever Sigma is invertible and is defined wherever E
    is. newton: -(H_exact + lambda I)^-1 grad with H_exact from
    :func:`exact_hessian` and lambda the smallest value in
    {0, damping * 2^j, j < 60} whose shift factorizes (Cholesky). A zero
    gradient gives a zero direction. Raises DirectionError when no shift
    works or the result is not a descent direction.
    """
    g = ev.grad
    if not np.any(g):
        return np.zeros_like(g)
    if method == "first_order":
        return -g
    if method == "gauss_newton":
        d = -vec(ev.hewer_step)
    elif method == "newton":
        d = _damped_newton(exact_hessian(ev.prob, ev.gain, ev).H_exact, g, damping)
    else:
        raise ValueError(f"unknown method {method!r}")
    if float(d @ g) >= 0.0:
        raise DirectionError("computed direction is not a descent direction")
    return d


def _backtrack(prob: LqrProblem, gain: Gain, direction: np.ndarray, J0: float,
               grad: np.ndarray, cfg: OptimizerConfig, depth_hint: int = 0):
    """Armijo backtracking with a stabilization guard.

    Returns (alpha, trial Evaluation, backtracks) for the first j whose
    step alpha = alpha0 * shrink^j gives a stabilizing gain that meets the
    Armijo decrease; trial gains outside the stabilizing set count as
    Armijo failures. Raises LineSearchFailure when max_backtracks shrinks
    are exhausted.

    The first block of trials holds trials 0 .. max(depth_hint, 1) - 1,
    where run passes the depth of its previous search; later trials go one
    at a time. A block of several trials is evaluated as stacks
    (:class:`Trials`), and a single trial as an :class:`Evaluation`,
    which costs less than a stack of one. A block computes trials past the
    accepted one only when the search ends shallower than the hint, so for
    n > _BLOCK_MAX_DIM, where such a trial costs more than the call a
    block saves, every block is one trial. The schedule sets how much work
    is done, never the result: a block that raises is evaluated again one
    trial at a time, so an error surfaces only at a trial that a
    trial-by-trial search reaches.
    """
    theta0 = gain.theta
    if not np.any(direction):
        return cfg.alpha, Evaluation(prob, gain), 0
    slope = float(grad @ direction)
    if slope >= 0.0:
        raise DirectionError("backtracking requires a descent direction")

    def bound(alpha):
        # Armijo: the cost must fall to J0 + c * alpha * slope or below
        return J0 + cfg.c_armijo * alpha * slope

    j, alpha = 0, cfg.alpha
    size = max(depth_hint, 1) if prob.n <= _BLOCK_MAX_DIM else 1
    while j <= cfg.max_backtracks:
        size = min(size, cfg.max_backtracks + 1 - j)
        if size == 1:
            trial = Evaluation(prob, Gain.from_theta(theta0 + alpha * direction,
                                                     prob.m, prob.n))
            if trial.stabilizing and trial.J <= bound(alpha):
                return alpha, trial, j
            j, alpha = j + 1, alpha * cfg.shrink
            continue
        # repeated multiplication, the same floats as alpha *= shrink
        alphas = np.multiply.accumulate([alpha] + [cfg.shrink] * (size - 1))
        try:
            trials = Trials(prob, theta0, direction, alphas)
        except (ValueError, NoConvergence, np.linalg.LinAlgError):
            size = 1  # evaluate the block again, one trial at a time
            continue
        ok = trials.stabilizing & (trials.J <= bound(alphas))
        if ok.any():
            i = int(ok.argmax())
            return float(alphas[i]), trials.evaluation(i), j + i
        j += size
        alpha = float(alphas[-1]) * cfg.shrink
        size = 1
    raise LineSearchFailure(
        f"no stabilizing Armijo step within {cfg.max_backtracks} backtracks")


def backtracking_search(prob: LqrProblem, gain: Gain, direction: np.ndarray,
                        J0: float, grad: np.ndarray,
                        cfg: OptimizerConfig) -> tuple[float, Gain]:
    """Public line search: smallest j with alpha = alpha0 * shrink^j whose
    gain is stabilizing and satisfies the Armijo decrease. Returns
    (alpha, new_gain); a zero direction returns (alpha0, gain) unchanged.
    The trials are evaluated as in :func:`run`'s search, from a first
    block of one trial, since no previous search sizes it.
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
    backtracks = 0
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

        try:
            direction = search_direction(cfg.method, ev, cfg.newton_damping)
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
                # the previous search's depth sizes this search's first block
                alpha_used, trial, backtracks = _backtrack(
                    prob, gain, direction, ev.J, ev.grad, cfg, backtracks)
            except LineSearchFailure:
                record(0.0, 0)
                rec.flag = "line_search_failure"
                break

        record(alpha_used, backtracks)
        ev = trial

    rec.final_gain = ev.gain
    return rec
