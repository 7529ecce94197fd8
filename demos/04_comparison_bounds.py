"""Comparison systems dominating the functionals along an orbit.

The area and the mixed functionals W_i = V[u, B^i u] obey differential
relations whose right-hand sides form a quasimonotone ODE system on the
cone; solutions of that system started from the initial functional values
bound the simulated ones.  Here: the pure set equation with a swap-matrix
source, whose growth system is linear, plus its practical stability window.
"""

import numpy as np

from setflow import (SemiflowParams, area, bound_check, check_practical,
                     check_wazewski, constant, evolve, integrate,
                     linear_source, make_polygon, mixed_columns,
                     sde_growth_system)
from setflow.certificates import sde_growth_exponents

swap = np.array([[0.0, 1.0], [1.0, 0.0]])
square = make_polygon([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
params = SemiflowParams(A=np.zeros((2, 2)), phi=constant(1.0),
                        source=linear_source(constant(1.0), swap))
system = sde_growth_system(swap)

print("quasimonotonicity:", "passes" if check_wazewski(system, (0, 5)).passed
      else "fails")

traj = evolve(square, params, horizon=1.0, dt=1e-3,
              tracked={"V": area, **mixed_columns(swap, 2)})
rep = bound_check(traj, system, ["W0", "W1"], tol_scale=1e-6)
print(f"dominance of (W0, W1) along the orbit: passed={rep.passed}, "
      f"worst margin {rep.max_violation:.2e}")

xi = integrate(system, [1.0, 1.0], horizon=1.0, dt_out=0.25)
print("\ncomparison state from (1, 1):")
for t, row in zip(xi.times, xi.states):
    print(f"  t={t:4.2f}  xi0={row[0]:9.5f}  xi1={row[1]:9.5f}")

verdict = check_practical(system, lam=1.0, bound=100.0, horizon=1.0)
print(f"\npractical stability (lam=1, bound=100, T=1): {verdict.kind}, "
      f"margin {verdict.witness['margin']:.2f}")

exp_rep = sde_growth_exponents(swap)
print(f"growth exponents: formula {exp_rep.formula_plus:.2f}/"
      f"{exp_rep.formula_minus:.2f} vs eigenvalues {exp_rep.eigen_plus:.2f}/"
      f"{exp_rep.eigen_minus:.2f} (discrepancy flagged: {exp_rep.discrepancy})")
