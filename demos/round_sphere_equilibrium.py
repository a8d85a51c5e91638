"""Round spheres sit still when beta = 1 + k*alpha.

For every admissible (n, k, alpha) the speed exponent beta = 1 + k*alpha makes
the normalized velocity vanish identically on centered spheres of any radius:
the shrinking from the curvature term and the rescaling term cancel exactly.
This script evaluates the discrete right-hand side on round graphs across the
whole parameter table and then time-steps one of them to show the radius and
its spatial uniformity hold to rounding level.
"""

import numpy as np

from anisoflow.flow_engine import StepControl, initial_state, rhs, run
from anisoflow.speed_profile import SpeedProfile
from anisoflow.sphere_geometry import SphericalGrid, sphere_graph

print("stationarity of round spheres (max |d phi/d tau| over the grid)")
print(f"{'n':>2} {'k':>2} {'alpha':>6} {'beta':>5}   worst over r0 in {{0.5, 1, 1.7}}")
for n in (1, 2):
    grid = SphericalGrid.circle(256) if n == 1 else SphericalGrid.sphere(48, 96)
    for k in range(1, n + 1):
        for alpha in sorted({1.0 / k, 1.0, 2.0}):
            prof = SpeedProfile(n=n, k=k, alpha=alpha, beta=1.0 + k * alpha)
            worst = 0.0
            for r0 in (0.5, 1.0, 1.7):
                out, _, _ = rhs(prof, sphere_graph(grid, r0), 0.0)
                worst = max(worst, float(np.abs(out).max()))
            print(f"{n:>2} {k:>2} {alpha:>6.2f} {prof.beta:>5.2f}   {worst:.3e}")

print()
print("time-stepping one case (n=2, k=2, alpha=1, beta=3, r0=1.7) to tau=1:")
prof = SpeedProfile(n=2, k=2, alpha=1.0, beta=3.0)
grid = SphericalGrid.sphere(48, 96)
state = initial_state(prof, sphere_graph(grid, 1.7))
result = run(state, StepControl(t_end=1.0, record_every=50))
r_max = result.series.last("r_max")
osc = result.series.column("osc").max()
print(f"  steps taken        : {result.state.step_count}")
print(f"  final max radius   : {r_max:.15f}  (drift {abs(r_max - 1.7):.2e})")
print(f"  worst oscillation  : {osc:.2e}")
