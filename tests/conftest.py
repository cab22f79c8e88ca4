import numpy as np
import pytest

from lqrnewton import Gain, LqrProblem
from lqrnewton.validate import random_stabilizing_instance

# scalar fixture used throughout: s' = s + u + w, Q = R = 0.5, gamma = 0.9,
# unit initial variance, no process noise
SCALAR = dict(a=1.0, b=1.0, Q=0.5, R=0.5, gamma=0.9, sigma0_sq=1.0, sigma_sq=0.0)

# exact closed-form values at theta = 0.5 (hand-reduced fractions)
SIGMA_05 = 40.0 / 31.0
P_05 = 25.0 / 31.0
DP_05 = -280.0 / 961.0
GRAD_05 = -280.0 / 961.0
HGN_05 = 3040.0 / 961.0
LAM_05 = 22400.0 / 29791.0
HEXACT_05 = 114400.0 / 29791.0


def scalar_problem(sigma_sq: float = 0.0, sigma0_sq: float = 1.0) -> LqrProblem:
    return LqrProblem(A=[[SCALAR["a"]]], B=[[SCALAR["b"]]], Q=[[SCALAR["Q"]]],
                      R=[[SCALAR["R"]]], gamma=SCALAR["gamma"],
                      Sigma_w=[[sigma_sq]], Sigma_0=[[sigma0_sq]])


@pytest.fixture(scope="session")
def scalar_prob() -> LqrProblem:
    return scalar_problem()


@pytest.fixture(scope="session")
def scalar_gain() -> Gain:
    return Gain([[0.5]])


def make_instances(count: int = 20):
    """Deterministic random stabilizing instances covering n <= 4, m <= 2."""
    pairs = [(n, m) for n in (1, 2, 3, 4) for m in (1, 2)]
    out = []
    for i in range(count):
        n, m = pairs[i % len(pairs)]
        out.append(random_stabilizing_instance(seed=100 + i, n=n, m=m))
    return out


@pytest.fixture(scope="session")
def instances20():
    return make_instances(20)


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    denom = max(np.linalg.norm(want.ravel()), np.finfo(float).tiny)
    return float(np.linalg.norm((got - want).ravel()) / denom)


def count_calls(monkeypatch, module, name):
    """Wrap module.name for the test; returns the list of call arguments."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def stack_slices(*arrays):
    """Split matrices or (k, n, n) stacks that broadcast together into their
    slices: one tuple per slice, holding that slice of every array."""
    arrays = np.broadcast_arrays(*arrays)
    return list(zip(*(a.reshape(-1, *a.shape[-2:]) for a in arrays)))
