"""Preconditioned policy-update loop for discounted LQR with three
preconditioners (identity, Gauss-Newton, exact Newton), Armijo backtracking,
and stabilization safeguards.

The update is theta <- theta + alpha * d, with d = -grad for first order.
For Gauss-Newton, d = -vec(E^-1 S) (Hewer's step), so H_gn is never
formed. For exact Newton, d solves H_exact d = -grad by preconditioned
conjugate gradients on Hessian-vector products, so H_exact is never formed
either; negative curvature ends the solve early (truncated Newton-CG,
Nocedal & Wright, Algorithm 7.1). Trial gains that leave the
gamma-stabilizing set (where the cost is undefined) are rejected exactly
like Armijo failures, so no recorded iterate is ever non-stabilizing.
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

from .errors import DirectionError, LineSearchFailure, NoConvergence, SeedNotStabilizing
from .lqr import Gain, LqrProblem, optimal_gain
from .derivatives import Evaluation, Trials
from .linalg import vec

METHODS = ("first_order", "gauss_newton", "newton")
STEP_MODES = ("fixed", "backtracking")
# Largest state dimension whose line search sizes its first block of trials
# by the previous search's depth. A block saves one call per trial it holds
# and wastes one slice per trial past the accepted one. On a 2-core x86 VM
# with one BLAS thread, a slice cost less than a call up to n = 8 (at n = 2,
# 20 us against 110 us). Blocks stay on the Kronecker branch (n <= 10),
# where each slice has the bits of a solve of its own. A doubling stack runs
# its slowest slice's depth, so its slices would not, though a slice there
# costs less than a call (0.03 against 0.17 ms at n = 12).
_BLOCK_MAX_DIM = 8
# Floor of Newton-CG's forcing term eta (see _newton_cg): no system is
# solved past ||H d + grad|| <= 1e-12 ||grad||.
_CG_RTOL = 1e-12


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
    step_mode   : "fixed" (always step alpha) or "backtracking" (Armijo,
                  starting from alpha and shrinking)
    alpha       : fixed step, or the initial step for backtracking;
                  positive and finite
    max_backtracks, max_iter : integers, at least 0 and 1
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


class _MarginOnRead:
    """IterateRecord.stabilizing_margin: the float it was given, or, given a
    (prob, gain) pair, Evaluation(prob, gain).margin, computed on first
    read and kept in place of the pair."""

    def __set_name__(self, owner, name):
        self.key = "_" + name

    def __get__(self, rec, owner=None):
        if rec is None:
            raise AttributeError(self.key)  # the field has no default
        margin = getattr(rec, self.key)
        if isinstance(margin, tuple):
            margin = Evaluation(*margin).margin
            setattr(rec, self.key, margin)
        return margin

    # the value lives in the record's slot named self.key
    def __set__(self, rec, margin):
        setattr(rec, self.key, margin)


@dataclass
class IterateRecord:
    """State of one recorded iterate plus the step taken from it.

    alpha_used and backtracks are zero on the final row (no step taken).
    stabilizing_margin is 1 - rho(sqrt(gamma) (A - BK)). :func:`run`
    records it as a float where the iterate's Evaluation computed it (every
    n <= 10), and otherwise has it computed, by the same eigenvalue solve,
    when it is first read, so a run above n = 10 makes no eigenvalue solve
    of its own. The record then keeps a reference to the problem and the
    gain until that read; equality and repr compare and show the float.
    """

    # a RunRecord keeps one record per iterate; without slots each would
    # carry an instance dictionary too
    __slots__ = ("k", "J", "grad_norm", "gain_error", "alpha_used", "backtracks",
                 "_stabilizing_margin")

    k: int
    J: float
    grad_norm: float
    gain_error: float
    alpha_used: float
    backtracks: int
    stabilizing_margin: float = _MarginOnRead()


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
    r -> vec(E^-1 R Sigma^-1) / 2, with Sigma's Cholesky factor computed
    once, or r -> vec(E^-1 R) / 2 where Sigma has none. CG stops when the
    residual falls to eta * ||grad|| (inexact Newton), after m*n
    iterations, or at the first direction p with p'Hp <= 0: at the first
    iteration it then returns Hewer's step -vec(E^-1 S), later the iterate
    it has reached, which is a descent direction since every curvature
    before was positive.

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
        L_inv = np.linalg.inv(np.linalg.cholesky(ev.Sigma))
        Sigma_inv = L_inv.T @ L_inv
    except np.linalg.LinAlgError:
        Sigma_inv = np.eye(n)

    def precondition(r):
        # r.reshape(n, m) is R'; the row-major ravel of (E^-1 R Sigma^-1)'
        # is vec(E^-1 R Sigma^-1)
        return (Sigma_inv @ r.reshape(n, m) @ E_inv).ravel()

    d = np.zeros_like(g)
    r = -g
    z = precondition(r)
    p, rz = z, float(r @ z)
    eta = max(min(0.1, math.sqrt(rz / ev.J)), _CG_RTOL)
    stop = (eta * np.linalg.norm(g)) ** 2
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
    if not np.any(g):
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


def _trial(prob: LqrProblem, theta0: np.ndarray, alpha: float,
           direction: np.ndarray) -> Optional[Evaluation]:
    """The Evaluation at the trial gain theta0 + alpha * direction, with J
    read, or None for a trial that is refused: one whose gain is not finite
    (refused by Gain), that is not stabilizing (including a closed loop
    that overflows), or that its doubling powers certify although its value
    solve misses the residual bound (a loop unstable by round-off)."""
    try:
        # a step that overflows is refused, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            trial = Evaluation(prob, Gain.from_theta(theta0 + alpha * direction,
                                                     prob.m, prob.n))
        if trial.stabilizing:
            trial.J  # read here, so a solve that misses its bound refuses the trial
            return trial
    except (ValueError, NoConvergence):
        pass
    return None


def _backtrack(prob: LqrProblem, gain: Gain, direction: np.ndarray, J0: float,
               grad: np.ndarray, cfg: OptimizerConfig, depth_hint: int = 0):
    """Armijo backtracking with a stabilization guard.

    Returns (alpha, trial Evaluation, backtracks) for the first j whose
    step alpha = alpha0 * shrink^j gives a stabilizing gain that meets the
    Armijo decrease; trial gains that are not finite, lie outside the
    stabilizing set, or whose value solve misses its residual bound, count
    as Armijo failures.
    Raises LineSearchFailure when max_backtracks shrinks are exhausted.

    A first block holds trials 0 .. depth_hint, where run passes the depth
    of its previous search, so that it reaches the trial that search
    accepted, and is evaluated as stacks (:class:`Trials`); the trials
    after it go one at a time, each an :class:`Evaluation`, which costs
    less than a stack of one. A block computes trials past the accepted
    one only when the search ends shallower than the hint, so for
    n > _BLOCK_MAX_DIM, where such a trial costs more than the call a
    block saves, there is no block. The schedule sets how much work is
    done, never the result: the accepted trial is handed on with the bits
    a trial-by-trial search gives it.
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

    first, alpha = 0, cfg.alpha
    size = min(depth_hint, cfg.max_backtracks) + 1 if prob.n <= _BLOCK_MAX_DIM else 1
    if size > 1:
        # repeated multiplication, the same floats as alpha *= shrink
        alphas = np.multiply.accumulate([alpha] + [cfg.shrink] * (size - 1))
        trials = Trials(prob, theta0, direction, alphas)
        # a bound that overflows is -inf, which no trial meets
        with np.errstate(over="ignore"):
            ok = trials.stabilizing & (trials.J <= bound(alphas))
        if ok.any():
            i = int(ok.argmax())
            return float(alphas[i]), trials.evaluation(i), i
        first, alpha = size, float(alphas[-1]) * cfg.shrink
    for j in range(first, cfg.max_backtracks + 1):
        trial = _trial(prob, theta0, alpha, direction)
        if trial is not None and trial.J <= bound(alpha):
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
    the current iterate is kept and the run is flagged rather than raising
    (a trial gain that is not finite, or whose value solve misses its
    residual bound, counts as leaving);
    DirectionError propagates with the partial record attached as
    ``exc.record``. The accepted trial's Evaluation becomes the next
    iterate, so its stability check and value solve are not repeated.
    Above n = 10 a run makes no eigenvalue solve: the margins it records
    are computed when read (see :class:`IterateRecord`).
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
            margin = ev.__dict__.get("margin", (prob, gain))
            rec.steps.append(IterateRecord(k, ev.J, grad_norm, gain_error,
                                           alpha_used, backtracks, margin))
            rec.gains.append(gain)

        if grad_norm <= cfg.grad_tol or k == cfg.max_iter:
            record(0.0, 0)
            rec.converged = grad_norm <= cfg.grad_tol
            break

        try:
            direction = search_direction(cfg.method, ev)
        except DirectionError as exc:
            record(0.0, 0)
            rec.flag = "direction_error"
            rec.final_gain = gain
            exc.record = rec
            raise

        if cfg.step_mode == "fixed":
            trial = _trial(prob, gain.theta, cfg.alpha, direction)
            if trial is None:
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
