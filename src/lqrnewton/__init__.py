"""Curvature-aware policy optimization for discounted stochastic LQR.

The library provides closed-form first- and second-order derivatives of the
discounted quadratic cost with respect to a linear state-feedback policy,
three preconditioned optimizers built on them (plain gradient, Gauss-Newton,
exact Newton), independent validation oracles, and two benchmark plants.
"""

from .errors import (ConfigError, DimensionUnsupported, DirectionError,
                     LqrError, NoConvergence, NotStabilizing,
                     PerturbationLeftStabilizingSet, SeedNotStabilizing,
                     SingularT)
from .linalg import expm, kron, psd_sqrt, spectral_radius, unvec, vec
from .lqr import (Gain, LqrProblem, ValueSolution, closed_loop,
                  is_gamma_stabilizing, optimal_gain, performance,
                  solve_sigma, solve_value)
from .derivatives import (Evaluation, exact_hessian, gn_hessian, jacobian_vecP,
                          lambda_term, policy_gradient)
from .optimize import (IterateRecord, OptimizerConfig, RunRecord, run,
                       search_direction)
from .oracles import (McEstimate, ScalarReport, discounted_moment_series,
                      fd_gradient, fd_hessian, fd_hvp, lambda_via_Mi,
                      monte_carlo_J, scalar_reference)
from .benchmarks import (LandscapeGrid, default_landscape_window,
                         initial_gain, landscape, make_pendulum,
                         make_shear_building, pendulum_continuous,
                         rotated_Q, zoh_discretize)
from .experiment import (EmitFlags, ExperimentConfig, config_from_dict,
                         load_config, run_experiment)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DimensionUnsupported", "DirectionError", "LqrError",
    "NoConvergence", "NotStabilizing", "PerturbationLeftStabilizingSet",
    "SeedNotStabilizing", "SingularT",
    "expm", "kron", "psd_sqrt", "spectral_radius", "unvec", "vec",
    "Gain", "LqrProblem", "ValueSolution", "closed_loop",
    "is_gamma_stabilizing", "optimal_gain", "performance", "solve_sigma",
    "solve_value",
    "Evaluation", "exact_hessian", "gn_hessian", "jacobian_vecP",
    "lambda_term", "policy_gradient",
    "IterateRecord", "OptimizerConfig", "RunRecord", "run",
    "search_direction",
    "McEstimate", "ScalarReport", "discounted_moment_series", "fd_gradient",
    "fd_hessian", "fd_hvp", "lambda_via_Mi", "monte_carlo_J", "scalar_reference",
    "LandscapeGrid", "default_landscape_window", "initial_gain", "landscape",
    "make_pendulum", "make_shear_building", "pendulum_continuous",
    "rotated_Q", "zoh_discretize",
    "EmitFlags", "ExperimentConfig", "config_from_dict", "load_config",
    "run_experiment",
]
