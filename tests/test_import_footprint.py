"""No path through the package loads scipy: numpy is its only runtime dependency;
and importing the package loads neither its command line nor argparse.

Every g kind, the tabulated one with its Hermite spline included, is plain
numpy.  The check runs in a fresh interpreter, because this test process has
long since imported scipy, the tests' independent reference, through other
test modules.
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
    ExpFlatG, MonomialG, RadialGraph, SpeedProfile, SphericalGrid,
    StepControl, TabulatedG, ZeroG, eval_g, initial_state, load_checkpoint,
    load_series, run, save_checkpoint, save_series,
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
pts = np.concatenate([[0.0], np.geomspace(1e-3, 3.0, 200)])
for where, graph in graphs.items():
    n = graph.grid.n
    ka = float(n)  # k = n, alpha = 1
    expflat = SpeedProfile(n=n, k=n, alpha=1.0, beta=2.0 + ka, g=ExpFlatG(1.0))
    profiles = (
        SpeedProfile(n=n, k=n, alpha=1.0, beta=1.0 + ka, g=ZeroG()),
        SpeedProfile(n=n, k=n, alpha=1.0, beta=1.0 + ka, g=ExpFlatG(p=1.0, epsilon=0.5)),
        expflat,
        SpeedProfile(n=n, k=n, alpha=1.0, beta=2.0 + ka, g=MonomialG(3.0 + ka)),
        SpeedProfile(n=n, k=n, alpha=1.0, beta=2.0 + ka, g=TabulatedG(pts, *eval_g(expflat, pts))),
    )
    for profile in profiles:
        result = run(initial_state(profile, graph), StepControl(t_end=1.0, max_steps=3, record_every=1))
        assert result.reason == "max_steps" and result.state.step_count == 3
        csv = os.path.join(tmp, "series.csv")
        save_series(result.series, csv)
        back = load_series(csv)
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
        f"[output]\ncsv_path = {tmp}/cli.csv\n"
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
table = os.path.join(tmp, "table.csv")
g = profiles[-1].g  # the S^2 tabulated expflat g, which does not depend on beta
np.savetxt(table, np.column_stack((g.points, g.values, g.derivs)), fmt="%.17g", delimiter=",")
tab_ini = os.path.join(tmp, "tab.ini")
with open(run_ini) as src, open(tab_ini, "w") as fh:
    fh.write(src.read().replace("g.p = 1", f"g.table_path = {table}").replace("expflat", "tabulated"))
assert anisoflow.cli.main(["run", tab_ini]) == 0
assert anisoflow.cli.main(["verify", tab_ini]) == 0
note("anisoflow run, ode-compare and verify")

cubic = TabulatedG(pts, pts**3, 3.0 * pts**2)
r = np.linspace(0.0, 3.0, 101)
val, der = eval_g(SpeedProfile(n=1, k=1, alpha=1.0, beta=4.0, g=cubic), r)
assert np.array_equal(val, cubic.value(r)) and np.abs(der - 3.0 * r**2).max() < 1e-3
note("TabulatedG value and g'")
print("FOOTPRINT " + json.dumps(seen))
'''


def test_no_path_loads_scipy(tmp_path):
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
    assert list(seen) == [
        "import",
        "runs, records and checkpoints",
        "anisoflow run, ode-compare and verify",
        "TabulatedG value and g'",
    ]
    assert all(modules == [] for modules in seen.values()), seen


def test_import_loads_neither_the_command_line_nor_argparse():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, anisoflow; print([m for m in ('anisoflow.cli', 'argparse') if m in sys.modules])"],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", (
        "import anisoflow loaded " + proc.stdout.strip() + ": `python -m anisoflow.cli` imports the package, "
        "then runs cli as __main__, and warns when it finds anisoflow.cli in sys.modules already"
    )
