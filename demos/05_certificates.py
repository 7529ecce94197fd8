"""Closed-form certificates: fixed points, linearization, norm stability, instability.

The uniform contraction fed by a disc source has a unique fixed ball; its
stability is decided by one logarithmic derivative, and the numerical
linearization reproduces the closed-form decay rate.  The sup-norm
envelope of deviations around the fixed ball decays too, which certifies
stability in the Hausdorff measures.  Shrinking the source more slowly than
the square-root of the volume instead certifies instability in the volume
measures.
"""

import numpy as np

from setflow import (SemiflowParams, ball_source, ball_source_fixed_point,
                     ball_source_instability, constant, cyclic3_ratio_threshold,
                     evolve, hausdorff_distance, hausdorff_stability_report,
                     linearize, make_ball)

params = SemiflowParams(A=-np.eye(2), phi=constant(1.0),
                        source=ball_source(constant(1.0)))

rep = ball_source_fixed_point(constant(1.0), constant(1.0), n=2)
print(f"fixed volume {rep.lambda0:.12f} (pi = {np.pi:.12f})")
print(f"fixed ball radius {rep.radius:.6f}, stable: {rep.stable} "
      f"(log-derivative {rep.log_derivative:.6f} > 0)")

lin = linearize(rep.body, params)
print(f"\nlinearization: gamma0 = {lin.gamma0:.6f}, delta0 = {lin.delta0:.6f}, "
      f"N = {lin.growth_constant:.1f}, alpha = {lin.growth_rate:.1f}")
print(f"verdict stable: {lin.stable}; eigenvalue cross-check: "
      f"{lin.routh_hurwitz['stable']}")

# near the fixed ball the clock is 1 and the disc source does not depend on
# the body, so deviations within radius 0.5 obey omega' <= -omega
norm = hausdorff_stability_report(params, clock_range=(1.0, 1.0), source_bound=(0.0, 0.0),
                                  radius=0.5, eps_grid=(0.1, 0.5))
print(f"\nHausdorff-norm envelope around the fixed ball: {norm.kind} "
      f"(rate {norm.witness['envelope_rate']:.1f}, {norm.witness['measures']})")

traj = evolve(make_ball(1.2), params, horizon=10.0, dt=1e-3)
print(f"\norbit from 1.2 x disc: distance to the fixed ball at t=10 is "
      f"{hausdorff_distance(traj.final, rep.body):.2e}")

print(f"\nthreshold ratio for the 3-chain quadratic energy: "
      f"{cyclic3_ratio_threshold():.9f}")

inst = ball_source_instability(constant(1.0), constant(1.0), tr_a=-2.0)
print(f"\nconstant disc source near vanishing bodies: {inst.kind} "
      f"(liminf estimate {inst.liminf_estimate:.3g} above threshold "
      f"{inst.threshold:.1f})")
