"""anisoflow benchmark: time to reach the sphere on three flows.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in perfbench/workloads.py; perfbench/README.md says why
each exists and which metric each layer should move.  Every timed run is a
fresh interpreter (perfbench/case.py) started one after another, never two at
once, until the time budget leaves no room for another.

--trace 0 reports the end-to-end metrics.  Each run is timed in chunks of
equal work (clock_steps steps), each set against a fixed reference kernel
timed on both sides of it (layers.StepClock), because this host's speed drifts
by up to 1.5x in phases of seconds to minutes.  us_per_step is the median
chunk-to-kernel ratio over every run, per step, stated in microseconds of a
host on which the kernel takes layers.REFERENCE_S; run_s is the step count at
that rate.  Set-up time is the median over every run's set-up and set-up-only
interpreters, two before the first run and one after each run.  --trace 1
makes one traced run, then untraced runs for the tracing overhead, and
reports the per-layer metrics.  Every run is checked against its workload's gates and against the
other runs of the same seed (identical step count and final phi bytes).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exits with code 2, printing no result, when
the package cannot be imported from src/ or no run completed.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
from time import perf_counter

from layers import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CASE = os.path.join(HERE, "case.py")
NO_PACKAGE = 3  # case.py's exit code when src/anisoflow is missing
WORKLOAD_NAMES = ("curve_nonconvex", "zonal_expflat", "nonzonal_pole")
SETUP_SAMPLES = 2  # set-up-only interpreters before the first untraced run; one follows each run
# Untraced runs made even past the budget: a slow phase of the host can stretch
# one run to half of it, and a lone run checks no rerun against another.
MIN_RUNS = 2
TIME_LIMIT = 170.0  # seconds; the whole benchmark must end well within 180


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (no package, or no run completed)."""


def _case(workload, seed, deadline, *flags):
    """Run case.py once; returns its record."""
    cmd = [sys.executable, CASE, "--workload", workload, "--seed", str(seed), *flags]
    start = perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        return {"problems": ["run exceeded the benchmark's time limit"]}
    if proc.returncode == NO_PACKAGE:
        raise BenchmarkError(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"problems": [f"exit code {proc.returncode}: {tail[0]}"]}
    return json.loads(lines[-1])


def _timed_runs(workload, seed, budget_end, deadline, first_flags=(), min_runs=1, setups=None):
    """Runs one after another while the budget has room for one more like the last.

    With a setups list, a set-up-only interpreter follows each run and its
    record goes to that list.
    """
    runs = []
    flags = first_flags
    while True:
        start = perf_counter()
        runs.append(_case(workload, seed, deadline, *flags))
        if setups is not None:
            setups.append(_case(workload, seed, deadline, "--setup-only"))
        flags = ()
        now = perf_counter()
        elapsed = now - start
        if now + elapsed > deadline:
            return runs
        if len(runs) >= min_runs and now + elapsed > budget_end:
            return runs


def _check_determinism(runs):
    """Every completed run of one seed must give the same steps and final phi bytes."""
    done = [r for r in runs if "phi_sha256" in r]
    if not done:
        return
    reference = (done[0]["steps"], done[0]["phi_sha256"])
    for r in done[1:]:
        if (r["steps"], r["phi_sha256"]) != reference:
            r["problems"].append(
                f"not bit-identical to the first run: steps {r['steps']} vs {reference[0]}, "
                f"phi sha256 {r['phi_sha256'][:12]} vs {reference[1][:12]}"
            )


def _source_digest():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _provenance(runs):
    versions = next((r["versions"] for r in runs if "versions" in r), {})
    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _calibrated_us_per_step(runs):
    """Median over the runs' chunks of chunk time over kernel time, per step,
    scaled by REFERENCE_S.  Without chunks (diagnostics_row gone), the median
    of the runs' raw averages per step, as noisy as the host."""
    ratios = [
        chunk / kernel / r["clock_steps"] for r in runs for chunk, kernel in r.get("chunks", ())
    ]
    if ratios:
        return 1e6 * REFERENCE_S * statistics.median(ratios)
    return statistics.median(1e6 * _run_seconds(r) / max(r["steps"], 1) for r in runs)


def _run_seconds(record):
    """A run's wall time without the reference kernels the step clock ran in it."""
    return record["wall_s"] - record.get("kernel_s", 0.0)


def _end_to_end(runs, setups):
    """Over the runs that completed; a run that failed a gate still timed its work."""
    done = [r for r in runs if "steps" in r]
    passed = sum(not r["problems"] for r in runs)
    us_per_step = _calibrated_us_per_step(done)
    steps = statistics.median(r["steps"] for r in done)
    return {
        "run_s": _metric(1e-6 * us_per_step * steps, "s"),
        "steps": _metric(steps, "count"),
        "us_per_step": _metric(us_per_step, "us"),
        "median_dt": _metric(statistics.median(r["median_dt"] for r in done), "tau"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in done), "MB"),
        "passed_share": _metric(passed / len(runs), "share"),
    }


def _per_layer(traced, untraced):
    layers = traced["layers"]
    wall, steps = traced["wall_s"], traced["steps"]
    metrics = {}
    for layer, calls in layers["calls"].items():
        self_s = layers["self_s"][layer]
        metrics[f"{layer}.calls"] = _metric(calls, "count")
        metrics[f"{layer}.self_s"] = _metric(self_s, "s")
        metrics[f"{layer}.share"] = _metric(self_s / wall, "share")
        metrics[f"{layer}.absent"] = _metric(int(layer in layers["absent"]), "count")
    metrics["diagnostics.incl_share"] = _metric(layers["incl_s"]["diagnostics"] / wall, "share")
    metrics["rhs.calls_per_step"] = _metric(layers["calls"]["rhs"] / steps, "count")
    metrics["weingarten.calls_per_step"] = _metric(layers["calls"]["weingarten"] / steps, "count")
    metrics["trace.coverage"] = _metric(sum(layers["self_s"].values()) / wall, "share")
    untraced_wall = statistics.median(_run_seconds(r) for r in untraced)
    metrics["trace.overhead"] = _metric(wall / untraced_wall, "ratio")
    return metrics


def _report(label, payload):
    print(f"{label}: {json.dumps(payload)}")


def benchmark(workload, seed, seconds, trace):
    start = perf_counter()
    budget_end, deadline = start + seconds, start + TIME_LIMIT
    setups = []
    if trace:
        runs = _timed_runs(workload, seed, budget_end, deadline, ("--trace",), min_runs=2)
    else:
        for _ in range(SETUP_SAMPLES):
            setups.append(_case(workload, seed, deadline, "--setup-only"))
        runs = _timed_runs(workload, seed, budget_end, deadline, min_runs=MIN_RUNS, setups=setups)
    for r in runs:
        r.setdefault("problems", [])
    _check_determinism(runs)
    _report("provenance", _provenance(runs))
    for i, r in enumerate(runs):
        row = {k: r.get(k) for k in ("wall_s", "cpu_s", "kernel_s", "steps", "median_dt",
                                     "reason", "phi_sha256", "setup_s", "peak_rss_mb",
                                     "problems")}
        if "chunks" in r:
            row["chunks"] = len(r["chunks"])
            if r["chunks"]:
                row["us_per_step"] = _calibrated_us_per_step([r])
                row["raw_us_per_step"] = 1e6 * _run_seconds(r) / r["steps"]
        _report(f"run {i} (seed {seed}{', traced' if trace and i == 0 else ''})", row)

    failed = sum(bool(r["problems"]) for r in runs)
    done = [r for r in runs if "steps" in r]
    if trace:
        untraced = done[1:] if done and done[0] is runs[0] else []
        if not untraced:
            raise BenchmarkError("the traced run or every untraced run raised")
        metrics = _per_layer(runs[0], untraced)
    else:
        if not done:
            raise BenchmarkError("every run raised")
        samples = [s["setup_s"] for s in setups if "setup_s" in s]
        samples += [r["setup_s"] for r in runs if "setup_s" in r]
        _report("setup_s samples", samples)
        metrics = _end_to_end(runs, samples)
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the running case
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
