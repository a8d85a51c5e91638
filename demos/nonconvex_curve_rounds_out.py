"""A non-convex star-shaped curve rounds itself out.

Curve flow with speed r * kappa (k = 1, alpha = 1, beta = 2, no perturbation)
started from r = 1 + 0.3 cos(2 theta), which is concave at its waist.  The
normalized flow should erase the oscillation exponentially while the outer
radius never grows and the curve stays star-shaped (support function > 0).
The run stops itself once max r - min r drops below 1e-3.
"""

import numpy as np

from anisoflow.flow_engine import StepControl, initial_state, run
from anisoflow.speed_profile import SpeedProfile
from anisoflow.sphere_geometry import RadialGraph, SphericalGrid
from anisoflow.verify import fit_exponential

N = 256
prof = SpeedProfile(n=1, k=1, alpha=1.0, beta=2.0)
grid = SphericalGrid.circle(N)
graph = RadialGraph(grid, np.log(1.0 + 0.3 * np.cos(2.0 * grid.theta)))

state = initial_state(prof, graph)
control = StepControl(t_end=3.0, sphericity_stop=1e-3, record_every=10)
result = run(state, control)
series = result.series

print(f"grid N = {N}, stopped because: {result.reason}")
print(f"{'tau':>7} {'r_min':>9} {'r_max':>9} {'osc':>10} {'cone margin':>12} {'u_min':>7}")
tau = series.column("tau")
marks = np.searchsorted(tau, np.linspace(0.0, tau[-1], 9))
for i in marks:
    print(
        f"{tau[i]:>7.3f} {series.column('r_min')[i]:>9.5f} "
        f"{series.column('r_max')[i]:>9.5f} {series.column('osc')[i]:>10.3e} "
        f"{series.column('cone_margin')[i]:>12.4f} {series.column('u_min')[i]:>7.4f}"
    )

fit = fit_exponential(tau, series.column("osc"))
print()
print(f"tail decay rate of the oscillation : {fit.rate:.3f} (amplitude {fit.amplitude:.3f})")
print(f"outer radius ever increased by     : {max(np.diff(series.column('r_max')).max(), 0.0):.2e}")
print(f"minimum support function over run  : {series.column('u_min').min():.4f}")
print()
print("note the cone margin: it starts negative (the waist is concave) and the")
print("flow drags the curve into the convex cone before rounding it out.")
