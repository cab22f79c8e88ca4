"""Cross-validate every closed-form derivative against an independent route.

Five checks on a random 3-state, 2-input instance:
  1. the policy gradient against central finite differences of the cost,
  2. the exact Hessian against finite differences,
  3. Hessian-vector products (two Stein solves each) against the dense
     exact Hessian times the same vectors,
  4. the distribution term Lambda assembled two different ways,
  5. the discounted state correlation from the Lyapunov solver against the
     series summed term by term from the moment recursion.
"""

import numpy as np

from lqrnewton import (exact_hessian, jacobian_vecP, lambda_term,
                       policy_gradient, solve_sigma)
from lqrnewton.oracles import (discounted_moment_series, fd_gradient,
                               fd_hessian, lambda_via_Mi)
from lqrnewton.validate import random_stabilizing_instance

prob, gain = random_stabilizing_instance(seed=7, n=3, m=2)
print(f"instance: n={prob.n}, m={prob.m}, gamma={prob.gamma:.3f}")
print(f"gain:\n{gain.K}\n")

grad = policy_gradient(prob, gain)
fd = fd_gradient(prob, gain)
print("gradient (closed form):   ", np.array2string(grad, precision=6))
print("gradient (finite diff):   ", np.array2string(fd, precision=6))
print(f"relative error: {np.linalg.norm(grad - fd) / np.linalg.norm(fd):.2e}\n")

rep = exact_hessian(prob, gain)
fdh = fd_hessian(prob, gain)
print(f"exact Hessian vs finite differences: "
      f"{np.linalg.norm(rep.H_exact - fdh, 'fro') / np.linalg.norm(fdh, 'fro'):.2e} relative")
print(f"max |H_exact - H_exact'|: {np.max(np.abs(rep.H_exact - rep.H_exact.T)):.2e}")
V = np.random.default_rng(0).standard_normal((prob.m * prob.n, 4))
hvp_err = max(np.max(np.abs(rep.hvp(v) - rep.H_exact @ v)) for v in V.T)
print(f"max |hvp(v) - H_exact v| over 4 random v: {hvp_err:.2e} "
      f"(max |H_exact v| {np.max(np.abs(rep.H_exact @ V)):.2e})\n")

jac = jacobian_vecP(prob, gain)
lam_direct = lambda_term(prob, gain, jac)
lam_cols = lambda_via_Mi(prob, gain)
print(f"Lambda, direct vs columnwise assembly: "
      f"{np.linalg.norm(lam_direct - lam_cols, 'fro') / np.linalg.norm(lam_direct, 'fro'):.2e} relative")

sigma = solve_sigma(prob, gain)
series = discounted_moment_series(prob, gain)
print(f"state correlation, solver vs series:   "
      f"{np.linalg.norm(sigma - series, 'fro') / np.linalg.norm(series, 'fro'):.2e} relative")

print("\nhessian decomposition at this gain:")
print(f"  ||H_gn||_F     = {np.linalg.norm(rep.H_gn, 'fro'):.4f}")
print(f"  ||Lambda||_F   = {np.linalg.norm(rep.Lambda, 'fro'):.4f}")
print(f"  ||H_exact||_F  = {np.linalg.norm(rep.H_exact, 'fro'):.4f}")
print("The curvature surrogate misses exactly the gamma-weighted Lambda part.")
