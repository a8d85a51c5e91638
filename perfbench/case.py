"""One timed run of one workload, in a fresh interpreter.

    python3 perfbench/case.py --workload NAME --seed N [--trace] [--setup-only]

Imports anisoflow from this checkout's src/, builds the workload's initial
state and (unless --setup-only) runs it to its stop criterion.  Prints one
JSON line: set-up time, run wall and CPU time, step count, median dt, the
SHA-256 of the final phi, gate problems, peak RSS and either, with --trace,
per-layer totals or, without, the run's equal-work chunks of clock_steps steps,
each with the reference kernel time next to it (layers.StepClock).
Exits with code 3 when anisoflow cannot be imported from src/.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import sys
from time import perf_counter, process_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NO_PACKAGE = 3


def _timed_run(flow_engine, state, case, trace):
    import numpy as np

    from layers import StepClock, Tracer

    out = {}
    hook = Tracer() if trace else StepClock(case.clock_steps)
    start, cpu_start = perf_counter(), process_time()
    try:
        with hook:
            result = flow_engine.run(state, case.control)
    except Exception as err:  # a run that raises is a failed run, not a crash
        out["wall_s"] = perf_counter() - start
        out["problems"] = [f"{type(err).__name__}: {err}"]
        return out
    out["wall_s"] = perf_counter() - start
    out["cpu_s"] = process_time() - cpu_start
    dt = result.series.column("dt")
    dt = dt[dt > 0.0]  # the tau = 0 record has no step behind it
    phi = np.ascontiguousarray(result.state.graph.phi, dtype="<f8")
    out.update(
        steps=result.state.step_count,
        median_dt=float(np.median(dt)) if dt.size else 0.0,
        reason=result.reason,
        phi_sha256=hashlib.sha256(phi.tobytes()).hexdigest(),
        problems=case.gate(result),
    )
    if trace:
        out["layers"] = {
            "calls": hook.calls,
            "self_s": hook.self_s,
            "incl_s": hook.incl_s,
            "absent": hook.absent,
        }
    else:
        out["clock_steps"] = hook.chunk_steps
        out["kernel_s"] = hook.kernel_seconds()
        out["chunks"] = hook.chunks()
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # set-up: import of anisoflow, then profile/grid/graph and initial_state
    start = perf_counter()
    sys.path.insert(0, SRC)
    try:
        import anisoflow
    except ImportError as err:
        print(f"cannot import anisoflow from {SRC}: {err}", file=sys.stderr)
        return NO_PACKAGE
    if not os.path.abspath(anisoflow.__file__).startswith(SRC + os.sep):
        print(f"anisoflow imported from {anisoflow.__file__}, not {SRC}", file=sys.stderr)
        return NO_PACKAGE
    from anisoflow import flow_engine

    import workloads

    case = workloads.WORKLOADS[args.workload](args.seed)
    state = flow_engine.initial_state(case.profile, case.graph)
    out = {"setup_s": perf_counter() - start}

    if not args.setup_only:
        out.update(_timed_run(flow_engine, state, case, args.trace))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["versions"] = {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "anisoflow": anisoflow.__version__,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
