"""Preconditioned policy-update loop for discounted LQR with three
preconditioners (identity, Gauss-Newton, exact Newton), Armijo backtracking,
and stabilization safeguards.

The update is theta <- theta + alpha * d, with d = -grad for first order.
For Gauss-Newton, d = -vec(E^-1 S) (Hewer's step), so H_gn is never
formed. For exact Newton, d solves H_exact d = -grad by preconditioned
conjugate gradients on Hessian-vector products, so H_exact is never formed
either; negative curvature ends the solve early (truncated Newton-CG,
Nocedal & Wright, Algorithm 7.1). Newton-type searches start at the unit
step, which their directions are scaled for. A gradient direction has no
such scale, so a first-order search after the first starts at the
previous step times the ratio of the previous slope grad'd to this one
(Nocedal & Wright, eq. 3.60), which saves most of the trials a restart at
alpha would reject. Every step is taken by one search (_step), and a
fixed step is its one-trial case. Each trial is one Evaluation, and trial
gains that leave the gamma-stabilizing set (where the cost is undefined)
are rejected exactly like Armijo failures, so no recorded iterate is ever
non-stabilizing.
Above n = 10 that includes a trial whose doubling powers do not certify
it (see :class:`~lqrnewton.derivatives.Evaluation`), and one they certify
whose value solve then misses its residual bound.

A single run is sequential; separate runs share no state and may execute
concurrently.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DirectionError, NoConvergence, SeedNotStabilizing
from .lqr import Gain, LqrProblem, _trtri, optimal_gain
from .derivatives import Evaluation
from .linalg import vec

METHODS = ("first_order", "gauss_newton", "newton")
STEP_MODES = ("fixed", "backtracking")
# Floor of Newton-CG's forcing term eta (see _newton_cg): no system is
# solved past ||H d + grad|| <= 1e-12 ||grad||.
_CG_RTOL = 1e-12
# Armijo's sufficient-decrease constant and the backtracking factor, fixed
# at the customary c = 1e-4 and halving (Nocedal & Wright, Numerical
# Optimization, 2nd ed., section 3.1): the three methods share one search,
# and no run, experiment or benchmark has needed other values.
_ARMIJO = 1e-4
_SHRINK = 0.5


def _require_int(value, name: str, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass
class OptimizerConfig:
    """Settings for one optimizer run.

    method      : first_order | gauss_newton | newton; newton's direction
                  is truncated preconditioned CG on Hessian-vector products,
                  stopped by a forcing term (see search_direction), which
                  has no settings of its own
    step_mode   : "fixed" (always step alpha) or "backtracking" (Armijo's
                  test at c = 1e-4, halving from a first step; c and the
                  halving are constants, not settings)
    alpha       : fixed step, or, for backtracking, the first search's
                  first step and every search's cap: Newton-type searches
                  start at alpha, first-order ones after the first at the
                  previous step scaled by the slope ratio (see run), never
                  above alpha; positive and finite
    max_backtracks : integer >= 0, the halvings a search may make
    grad_tol    : positive; the run stops once ||grad|| <= grad_tol
    max_iter    : integer >= 1
    seed_gain   : starting gain; None means the zero gain
    """

    method: str = "newton"
    step_mode: str = "backtracking"
    alpha: float = 1.0
    max_backtracks: int = 60
    grad_tol: float = 1e-8
    max_iter: int = 100
    seed_gain: Optional[Gain] = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.step_mode not in STEP_MODES:
            raise ValueError(f"step_mode must be one of {STEP_MODES}, got {self.step_mode!r}")
        if not 0.0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        _require_int(self.max_iter, "max_iter", 1)
        _require_int(self.max_backtracks, "max_backtracks", 0)


# slots: a RunRecord keeps one record per iterate; without them each would
# carry an instance dictionary too
@dataclass(slots=True)
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


def _newton_cg(ev: Evaluation) -> np.ndarray:
    """The Newton direction of search_direction: H_exact d = -grad solved
    by preconditioned CG on ``ev.hvp``.

    The preconditioner M^-1 is the inverse Gauss-Newton map
    r -> vec(E^-1 R Sigma^-1) / 2, with Sigma's Cholesky factor L computed
    once and inverted by LAPACK's triangular trtri (Sigma^-1 = L^-T L^-1),
    or r -> vec(E^-1 R) / 2 where Sigma has none or trtri finds L
    singular. CG stops when the residual falls to eta * ||grad|| (inexact
    Newton), after m*n iterations, or at the first direction p with
    p'Hp <= 0: at the first iteration it then returns Hewer's step
    -vec(E^-1 S), later the iterate it has reached, which is a descent
    direction since every curvature before was positive.

    The forcing term is eta = max(min(0.1, sqrt(grad' M^-1 grad / J)),
    _CG_RTOL). The Gauss-Newton decrement grad' M^-1 grad is CG's first
    r'z and has the units of J, so eta does not change with the scale of
    the plant, as a term read from ||grad|| would; near the optimum it is
    O(||grad||), which keeps Newton's local rate quadratic (Dembo,
    Eisenstat & Steihaug, 1982).
    """
    g, m, n = ev.grad, ev.prob.m, ev.prob.n
    E_inv = np.linalg.inv(ev.E) / 2.0
    try:
        L_inv, info = _trtri(np.linalg.cholesky(ev.Sigma), lower=1)
    except np.linalg.LinAlgError:
        info = 1
    Sigma_inv = L_inv.T @ L_inv if info == 0 else np.eye(n)

    def precondition(r):
        # r.reshape(n, m) is R'; the row-major ravel of (E^-1 R Sigma^-1)'
        # is vec(E^-1 R Sigma^-1)
        return (Sigma_inv @ r.reshape(n, m) @ E_inv).ravel()

    d = np.zeros_like(g)
    r = -g
    z = precondition(r)
    p, rz = z, float(r @ z)
    eta = max(min(0.1, math.sqrt(rz / ev.J)), _CG_RTOL)
    stop = (eta * math.sqrt(g @ g)) ** 2
    for i in range(m * n):
        Hp = ev.hvp(p)
        curvature = float(p @ Hp)
        if curvature <= 0.0:
            return -vec(ev.hewer_step) if i == 0 else d
        step = rz / curvature
        d = d + step * p
        r = r - step * Hp
        if r @ r <= stop:
            break
        z = precondition(r)
        rz, rz_old = float(r @ z), rz
        p = z + (rz / rz_old) * p
    return d


def search_direction(method: str, ev: Evaluation) -> np.ndarray:
    """Descent direction for the given preconditioner at an iterate's
    Evaluation.

    first_order: -grad. gauss_newton: Hewer's step -vec(E^-1 S), which is
    -H_gn^-1 grad wherever Sigma is invertible and is defined wherever E
    is. newton: -H_exact^-1 grad by truncated preconditioned CG on
    Hessian-vector products (see :func:`_newton_cg`), so neither H_exact
    nor the dP stack is formed. CG solves the system to a relative
    residual eta, the forcing term, which falls with the Gauss-Newton
    decrement from 0.1 to 1e-12; where CG meets negative curvature the
    direction is Hewer's step or the CG iterate reached. A zero gradient
    gives a zero direction. Raises DirectionError when the result is not a
    descent direction.
    """
    g = ev.grad
    if not g.any():
        return np.zeros_like(g)
    if method == "first_order":
        return -g
    if method == "gauss_newton":
        d = -vec(ev.hewer_step)
    elif method == "newton":
        d = _newton_cg(ev)
    else:
        raise ValueError(f"unknown method {method!r}")
    if float(d @ g) >= 0.0:
        raise DirectionError("computed direction is not a descent direction")
    return d


def _step(ev: Evaluation, direction: np.ndarray, slope: float, cfg: OptimizerConfig,
          alpha0: float):
    """The step from the iterate ``ev`` along direction: (alpha, trial
    Evaluation, backtracks), or None when no trial is accepted.

    A fixed step is one trial at alpha0. Backtracking tries
    alpha = alpha0 * _SHRINK^j for j = 0 .. max_backtracks and takes the
    first trial that meets the Armijo decrease
    J <= ev.J + _ARMIJO * alpha * slope, with slope = grad'direction. In
    both modes a trial is refused when its gain is not finite (refused by
    Gain), when it is not stabilizing (including a closed loop that
    overflows), or when its doubling powers certify it although its value
    solve misses the residual bound (a loop unstable by round-off). Each
    trial is one :class:`Evaluation`.
    """
    prob, theta0, J0 = ev.prob, ev.gain.theta, ev.J
    fixed = cfg.step_mode == "fixed"
    alpha = alpha0
    for j in range(1 if fixed else cfg.max_backtracks + 1):
        try:
            # a step that overflows is refused, not warned about
            with np.errstate(over="ignore", invalid="ignore"):
                trial = Evaluation(prob, Gain.from_theta(theta0 + alpha * direction,
                                                         prob.m, prob.n))
            # J is read in both modes, so a solve that misses its bound
            # refuses the trial
            if trial.stabilizing and (trial.J <= J0 + _ARMIJO * alpha * slope
                                      or fixed):
                return alpha, trial, j
        except (ValueError, NoConvergence):
            pass
        alpha *= _SHRINK
    return None


def _initial_step(alpha: float, decrease: Optional[float], slope: float) -> float:
    """The first step of a first-order search: the step whose first-order
    decrease alpha0 * slope equals the previous search's, ``decrease``
    (its accepted step times its slope), so alpha0 = decrease / slope
    (Nocedal & Wright, Numerical Optimization, 2nd ed., eq. 3.60), capped
    at ``alpha``. A gradient direction carries no step length of its own;
    this one carries the previous search's over. ``alpha`` where there is
    no previous search or the ratio is not finite and positive.
    """
    if decrease is None or not slope < 0.0:
        return alpha
    guess = decrease / slope
    return guess if 0.0 < guess < alpha else alpha


def run(prob: LqrProblem, cfg: OptimizerConfig,
        k_star: Optional[Gain] = None) -> RunRecord:
    """Run the preconditioned update loop until grad_tol or max_iter.

    Every recorded iterate is gamma-stabilizing. In backtracking mode the
    cost is non-increasing across iterations; a Newton or Gauss-Newton
    search starts at alpha, a first-order search after the first at
    min(alpha, alpha_prev * slope_prev / slope), with slope = grad'd
    (:func:`_initial_step`), and a record's backtracks counts the halvings
    from its search's first step to the step alpha_used it took. Every step
    is one call of :func:`_step`. The gain-error column uses k_star
    (computed once via optimal_gain when not supplied). When no trial is
    accepted (a line search failure, or a fixed step that would leave the
    stabilizing set), the current iterate is kept and the run is flagged
    rather than raising (a trial gain that is not finite, or whose value
    solve misses its residual bound, counts as leaving); DirectionError
    propagates with the partial record attached as ``exc.record``. The
    accepted trial's Evaluation becomes the next iterate, so its stability
    check and value solve are not repeated.
    Above n = 10 a run makes no eigenvalue solve.
    """
    ev = Evaluation(prob, cfg.seed_gain if cfg.seed_gain is not None else Gain.zero(prob))
    if not ev.stabilizing:
        raise SeedNotStabilizing("optimizer seed gain is not gamma-stabilizing")
    if k_star is None:
        k_star, _ = optimal_gain(prob)

    rec = RunRecord(k_star=k_star)
    decrease = None  # the previous search's alpha * slope
    for k in range(cfg.max_iter + 1):
        # numpy's 2-norm and Frobenius norm, sqrt(x @ x) over the ravel,
        # without its wrapper
        grad_norm = math.sqrt(ev.grad @ ev.grad)
        error = (ev.gain.K - k_star.K).ravel()
        row = IterateRecord(k, ev.J, grad_norm, math.sqrt(error @ error), 0.0, 0)
        rec.steps.append(row)
        rec.gains.append(ev.gain)
        if grad_norm <= cfg.grad_tol or k == cfg.max_iter:
            rec.converged = grad_norm <= cfg.grad_tol
            break

        try:
            direction = search_direction(cfg.method, ev)
        except DirectionError as exc:
            rec.flag = "direction_error"
            rec.final_gain = ev.gain
            exc.record = rec
            raise
        slope = float(ev.grad @ direction)
        # Newton-type directions carry their own scale: the unit step
        alpha0 = (_initial_step(cfg.alpha, decrease, slope)
                  if cfg.method == "first_order" and cfg.step_mode == "backtracking"
                  else cfg.alpha)
        step = _step(ev, direction, slope, cfg, alpha0)
        if step is None:
            rec.flag = ("left_stabilizing_set" if cfg.step_mode == "fixed"
                        else "line_search_failure")
            break
        row.alpha_used, ev, row.backtracks = step
        decrease = row.alpha_used * slope

    rec.final_gain = ev.gain
    return rec
