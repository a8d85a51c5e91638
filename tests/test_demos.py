"""Every demo runs to completion: each ``demos/*.py`` script, ``anisoflow
run demos/sample_run.ini`` and the README's minimal example, in a fresh
interpreter that turns every RuntimeWarning into an error, from a temporary
working directory (the sample run writes its CSV there).  The README's
config reference parses as it stands."""

import glob
import os
import re
import subprocess
import sys

import pytest

from anisoflow import textform

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DEMOS = os.path.join(ROOT, "demos")
SCRIPTS = sorted(glob.glob(os.path.join(DEMOS, "*.py")))


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        env=dict(os.environ, PYTHONPATH=SRC),
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_demos_are_found():
    assert len(SCRIPTS) >= 5


@pytest.mark.parametrize("script", SCRIPTS, ids=[os.path.basename(s) for s in SCRIPTS])
def test_demo_script_runs(script, tmp_path):
    proc = _run([script], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_sample_run_config_runs(tmp_path):
    proc = _run(["-m", "anisoflow.cli", "run", os.path.join(DEMOS, "sample_run.ini")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "reason=sphericity_stop" in proc.stdout
    assert (tmp_path / "run_series.csv").is_file()


def test_readme_minimal_example_runs(tmp_path):
    with open(os.path.join(ROOT, "README.md")) as fh:
        (example,) = re.findall(r"^```python\n(.*?)^```$", fh.read(), flags=re.S | re.M)
    proc = _run(["-c", example], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("sphericity_stop ")


def test_readme_config_reference_parses():
    with open(os.path.join(ROOT, "README.md")) as fh:
        (reference,) = re.findall(r"^```ini\n(.*?)^```$", fh.read(), flags=re.S | re.M)
    config, state = textform.parse_config_state(reference)
    assert config.control.t_end == 3.0 and state.tau == 0.0
