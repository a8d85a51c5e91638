"""A perturbed zonal surface relaxes to the unit sphere (strict regime).

2-convex flow on S^2 (k = 2, alpha = 1) with beta = 4 > 1 + k*alpha and an
exponentially flat perturbation g(r) = r^3 exp(-1/r).  The initial surface is
rotationally symmetric: r = 1.0375 + 0.1125 cos(2 theta).  Two things to watch:

 * the perturbation makes the mean radius dip below 1 before the rescaling
   term pulls it back - the limit radius is approached from below;
 * longitude-independence is preserved bit-for-bit (every phi stencil sees
   identical values), so initial_state puts the surface on one latitude
   column, where the run lives: the CFL bound ignores the 1/sin^2(theta) pole
   factor, and the saved graph repeats the column over every longitude.
"""

import os
import tempfile

import numpy as np

from anisoflow.flow_engine import StepControl, initial_state, run
from anisoflow.speed_profile import ExpFlatG, SpeedProfile
from anisoflow.sphere_geometry import RadialGraph, SphericalGrid, is_zonal
from anisoflow.textform import load_graph, save_graph

prof = SpeedProfile(n=2, k=2, alpha=1.0, beta=4.0, g=ExpFlatG(1.0))
grid = SphericalGrid.sphere(32, 64)
col = np.log(1.0375 + 0.1125 * np.cos(2.0 * grid.theta))
graph = RadialGraph(grid, np.broadcast_to(col[:, None], grid.shape).copy())

state = initial_state(prof, graph)
result = run(state, StepControl(t_end=4.0, record_every=20))
series = result.series

print(f"grid 32x64, {result.state.step_count} steps, finished because: {result.reason}")
print(f"{'tau':>6} {'r_min':>10} {'r_max':>10} {'osc':>10} {'dt':>9}")
tau = series.column("tau")
for target in np.linspace(0.0, tau[-1], 11):
    i = int(np.searchsorted(tau, target))
    i = min(i, len(tau) - 1)
    print(
        f"{tau[i]:>6.2f} {series.column('r_min')[i]:>10.6f} "
        f"{series.column('r_max')[i]:>10.6f} {series.column('osc')[i]:>10.3e} "
        f"{series.column('dt')[i]:>9.2e}"
    )

r_end = series.last("r_max")
print()
print(f"dip below the limit radius : min over run r_min = {series.column('r_min').min():.6f}")
print(f"final |r - 1|              : {abs(r_end - 1.0):.2e}")
print(f"run lived on               : {result.state.graph.grid}")
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "final.graph")
    save_graph(result.state.graph, path)
    saved = load_graph(path)
print(f"saved graph, exactly zonal : {saved.grid}, {is_zonal(saved)}")
