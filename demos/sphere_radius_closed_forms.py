"""Sphere radius trajectories: closed forms vs integrator vs PDE.

On centered spheres the normalized flow reduces to a scalar ODE for the
radius.  For beta > 1 + k*alpha and g == 0 that ODE has the explicit solution
returned by ``closed_form_r2``; with a perturbation bound C it is bracketed
below by ``closed_form_r1``.  This script checks all three layers against
each other for k = 1, alpha = 1, beta = 3:

  closed_form_r2   vs  RK4 on the radius ODE        (machine-level)
  closed_form_r1   vs  RK4 on its comparison ODE    (machine-level)
  full PDE run     vs  the radius ODE               (time-integration error)
"""

import math

import numpy as np

from anisoflow.flow_engine import StepControl, initial_state
from anisoflow.speed_profile import MonomialG, SpeedProfile, ZeroG
from anisoflow.sphere_geometry import SphericalGrid, sphere_graph
from anisoflow.verify import (
    closed_form_r1,
    closed_form_r2,
    pde_vs_ode_check,
    r1_comparison_rhs,
    rk4_at,
    sphere_ode_at,
)

prof = SpeedProfile(n=1, k=1, alpha=1.0, beta=3.0)
r0 = 2.0

print("closed_form_r2 against RK4 on the radius ODE (g == 0):")
times = np.linspace(0.0, 4.0, 9)
ode = sphere_ode_at(prof, r0, times)
for t, r_ode in zip(times, ode):
    r_cf = closed_form_r2(prof, r0, t)
    print(f"  tau = {t:4.1f}: closed form {r_cf:.12f}   ODE {r_ode:.12f}   diff {abs(r_cf - r_ode):.1e}")
print(f"  tau = log 2 gives exactly {closed_form_r2(prof, r0, math.log(2.0)):.12f} (= 4/3)")

print()
print("closed_form_r1 against RK4 on the comparison ODE (C = 1):")
for C in (0.5, 1.0):
    (r,) = rk4_at(lambda t, y: r1_comparison_rhs(prof, C, y, t), r0, [1.0], max_dt=1e-4)
    r_cf = closed_form_r1(prof, r0, C, 1.0)
    print(f"  C = {C}: closed form {r_cf:.12f}   RK4 {r:.12f}   diff {abs(r_cf - r):.1e}")
print("  (beta = 3, k*alpha = 1 lands on the resonant branch with its t*exp term)")

print()
print("full PDE (N = 256 circle) against the radius ODE:")
grid = SphericalGrid.circle(256)
for g, label in ((ZeroG(), "g == 0"), (MonomialG(4.0), "g = r^4")):
    p = SpeedProfile(n=1, k=1, alpha=1.0, beta=3.0, g=g)
    start = initial_state(p, sphere_graph(grid, r0))
    dev, nonuni = pde_vs_ode_check(start, StepControl(t_end=math.log(2.0), record_every=50))
    print(f"  {label:>7}: max relative deviation {dev:.2e}, spatial non-uniformity {nonuni:.2e}")

print()
print("both closed forms approach 1 (the normalized limit sphere):")
for t in (5.0, 10.0, 20.0):
    print(
        f"  tau = {t:4.1f}: r2 = {closed_form_r2(prof, r0, t):.10f}, "
        f"r1(C=1) = {closed_form_r1(prof, r0, 1.0, t):.10f}"
    )
