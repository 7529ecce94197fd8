"""Attainability sets of a linear control system as a special flow.

For x' = A x + u with controls in a fixed body U, the support function of
the reachable set satisfies dh/dt = A* h + h_U, which is the flow with
unit clock and constant source.  With A = -I and U the unit disc the
reachable set from the origin is a disc whose radius solves r' = 1 - r.
"""

import numpy as np

from setflow import make_ball, reach_set

origin = make_ball(0.0)
disc = make_ball(1.0)

print("free integrator (A = 0): reachable set is t * disc")
traj = reach_set(np.zeros((2, 2)), disc, origin, horizon=1.0, dt=1e-3)
print(f"{'t':>5} {'area':>12} {'pi t^2':>12}")
for t_probe in (0.25, 0.5, 1.0):
    i = int(np.argmin(np.abs(traj.times - t_probe)))
    print(f"{traj.times[i]:5.2f} {traj.tracked['V'][i]:12.8f} "
          f"{np.pi * traj.times[i] ** 2:12.8f}")

print("\ncontractive system (A = -I): radius saturates at 1 - exp(-t)")
# the frames are not kept, so the radius is tracked as a column of its own
traj = reach_set(-np.eye(2), disc, origin, horizon=2.0, dt=1e-3,
                 tracked={"radius": lambda u: np.max(u.values, axis=-1)})
print(f"{'t':>5} {'max h':>12} {'1 - exp(-t)':>12}")
for t_probe in (0.5, 1.0, 2.0):
    i = int(np.argmin(np.abs(traj.times - t_probe)))
    radius = traj.tracked["radius"][i]
    print(f"{traj.times[i]:5.2f} {radius:12.8f} {1 - np.exp(-traj.times[i]):12.8f}")
