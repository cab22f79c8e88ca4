import numpy as np
import pytest

from lqrnewton import Gain, LqrProblem, make_shear_building, zoh_discretize
from lqrnewton.benchmarks import DEFAULT_TS
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


# the experiment of acceptance criterion 10: three methods on the pendulum,
# four output files
CRITERION_10_DOC = {
    "problem": {"generator": "pendulum"},
    "methods": [
        {"method": "newton", "step_mode": "fixed", "alpha": 1.0,
         "grad_tol": 1e-8, "max_iter": 40},
        {"method": "gauss_newton", "step_mode": "fixed", "alpha": 0.5,
         "grad_tol": 1e-8, "max_iter": 150},
        {"method": "first_order", "step_mode": "backtracking", "alpha": 1.0,
         "grad_tol": 1e-8, "max_iter": 40},
    ],
    "seed": 0,
    "emit": {"trace_csv": True, "summary": True},
}


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


def multi_actuator_building(floors: int, seed: int = 7) -> LqrProblem:
    """make_shear_building's plant with an actuator on every floor:
    B_c = [0; I_N] and R = 0.01 I_N, so m = floors and m*n = 2 floors^2.
    A and B are the zero-order hold of that continuous plant (A agrees with
    make_shear_building's to round-off); Q and both covariances are its own."""
    base = make_shear_building(floors=floors, seed=seed)
    N = floors
    Ks = 1000.0 * (2.0 * np.eye(N) - np.eye(N, k=1) - np.eye(N, k=-1))
    Ks[-1, -1] = 1000.0
    A_c = np.block([[np.zeros((N, N)), np.eye(N)], [-Ks, -0.01 * Ks]])
    A, B = zoh_discretize(A_c, np.vstack([np.zeros((N, N)), np.eye(N)]), DEFAULT_TS)
    np.testing.assert_allclose(A, base.A, rtol=0, atol=1e-12)
    return LqrProblem(A=A, B=B, Q=base.Q, R=0.01 * np.eye(N), gamma=base.gamma,
                      Sigma_w=base.Sigma_w, Sigma_0=base.Sigma_0)


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
