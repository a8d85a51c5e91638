"""scipy stays off the import path until the first tabulated g is built.

Only ``TabulatedG`` needs scipy (for its Hermite spline), and loading
scipy.interpolate costs several times the rest of the package's import.  The
check runs in a fresh interpreter, because this test process has long since
imported scipy through other test modules.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = r'''
import json, os, sys

import numpy as np

import anisoflow
import anisoflow.cli
from anisoflow import (
    BumpG, DiagnosticsSeries, ExpFlatG, MonomialG, RadialGraph, SpeedProfile,
    SphericalGrid, StepControl, ZeroG, initial_state, load_checkpoint, run,
    save_checkpoint,
)

tmp = sys.argv[1]
seen = {}


def note(stage):
    seen[stage] = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


note("import")
assert os.path.abspath(anisoflow.__file__).startswith(os.path.abspath(sys.argv[2]) + os.sep)

curve, sphere = SphericalGrid.circle(32), SphericalGrid.sphere(16, 32)
col = np.log(1.0 + 0.05 * np.cos(2.0 * sphere.theta))[:, None]
graphs = {
    "S^1": RadialGraph(curve, np.log(1.0 + 0.05 * np.cos(2.0 * curve.theta))),
    "zonal S^2": RadialGraph(sphere, np.repeat(col, sphere.n_lon, axis=1)),
    "non-zonal S^2": RadialGraph(
        sphere, col + 1e-3 * np.sin(sphere.theta)[:, None] ** 2 * np.cos(2.0 * sphere.phi_lon)
    ),
}
for where, graph in graphs.items():
    n = graph.grid.n
    ka = float(n)  # k = n, alpha = 1
    profiles = (
        SpeedProfile(n=n, k=n, alpha=1.0, beta=1.0 + ka, g=ZeroG()),
        SpeedProfile(n=n, k=n, alpha=1.0, beta=1.0 + ka, g=BumpG(0.5, 1.0)),
        SpeedProfile(n=n, k=n, alpha=1.0, beta=2.0 + ka, g=ExpFlatG(1.0)),
        SpeedProfile(n=n, k=n, alpha=1.0, beta=2.0 + ka, g=MonomialG(3.0 + ka)),
    )
    for profile in profiles:
        result = run(initial_state(profile, graph), StepControl(t_end=1.0, max_steps=3, record_every=1))
        assert result.reason == "max_steps" and result.state.step_count == 3
        csv = os.path.join(tmp, "series.csv")
        result.series.to_csv(csv)
        back = DiagnosticsSeries.from_csv(csv)
        assert np.array_equal(back.column("tau"), result.series.column("tau"))
        ckpt = os.path.join(tmp, "state.ckpt")
        save_checkpoint(result.state, ckpt)
        resumed = load_checkpoint(ckpt)
        assert np.array_equal(resumed.graph.phi, result.state.graph.phi)
        assert resumed.profile == profile
note("runs, records and checkpoints")

run_ini = os.path.join(tmp, "run.ini")
with open(run_ini, "w") as fh:
    fh.write(
        "[profile]\nn = 2\nk = 2\nalpha = 1\nbeta = 5\ng.kind = expflat\ng.p = 1\n"
        "[grid]\nn_lat = 16\nn_lon = 32\n"
        "[initial]\nkind = fourier\nconst = 1.0\ncos_2 = 0.05\n"
        "[control]\nt_end = 1.0\nmax_steps = 3\nrecord_every = 1\n"
        f"[output]\ncsv_path = {tmp}/cli.csv\nplot_path = {tmp}/cli.svg\n"
        f"checkpoint_path = {tmp}/cli.ckpt\n"
    )
assert anisoflow.cli.main(["run", run_ini]) == 0
ode_ini = os.path.join(tmp, "ode.ini")
with open(ode_ini, "w") as fh:
    fh.write(
        "[profile]\nn = 1\nk = 1\nalpha = 1\nbeta = 4\ng.kind = expflat\ng.p = 1\n"
        "[grid]\nN = 32\n[initial]\nkind = sphere\nr0 = 1.3\n[control]\nt_end = 0.01\n"
    )
assert anisoflow.cli.main(["ode-compare", ode_ini]) == 0
assert anisoflow.cli.main(["verify"]) == 0
assert anisoflow.cli.main(["verify", run_ini]) == 0
note("anisoflow run, ode-compare and verify")

from anisoflow import TabulatedG

pts = np.linspace(0.0, 2.0, 9)
table = TabulatedG(pts, pts**3, 3.0 * pts**2)
note("TabulatedG")
from scipy.interpolate import CubicHermiteSpline

r = np.linspace(0.0, 2.0, 101)
seen["value matches CubicHermiteSpline"] = bool(
    np.array_equal(table.value(r), CubicHermiteSpline(pts, pts**3, 3.0 * pts**2)(r))
)
print("FOOTPRINT " + json.dumps(seen))
'''


def test_only_a_tabulated_g_loads_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), SRC],
        env=dict(os.environ, PYTHONPATH=SRC),
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    line = [ln for ln in proc.stdout.splitlines() if ln.startswith("FOOTPRINT ")][-1]
    seen = json.loads(line.removeprefix("FOOTPRINT "))
    assert seen["import"] == []
    assert seen["runs, records and checkpoints"] == []
    assert seen["anisoflow run, ode-compare and verify"] == []
    assert "scipy.interpolate" in seen["TabulatedG"]
    assert seen["value matches CubicHermiteSpline"] is True
