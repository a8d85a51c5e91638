"""Command-line front end: runs, verification and ODE comparison.

``textform`` reads the config; the README has the key reference.

Exit codes: 0 ok; 1 config error; 2 runtime (cone/overflow/step) error;
3 verification failure.
"""

import argparse
import os
import sys

from . import flow_engine, verify
from .speed_profile import validate_for_regime
from .textform import ConfigError, parse_config_state, save_checkpoint, save_series


def _read_config(path):
    try:
        with open(path) as fh:
            return parse_config_state(fh.read())
    except OSError as exc:
        raise ConfigError([str(exc)]) from exc


def cmd_run(config_path):
    cfg, state = _read_config(config_path)
    if cfg.csv_path is None:
        raise ConfigError(["[output] csv_path is required by run"])
    for path in (cfg.csv_path, cfg.checkpoint_path):
        try:
            if path is not None:
                open(path, "a").close()
        except OSError as exc:
            raise ConfigError([f"{path!r} not writable: {exc}"]) from exc
    try:
        end = flow_engine.run(state, cfg.control)
    except flow_engine.FlowError as err:
        end = err  # a failed run keeps its evidence: the records so far and the last state reached
    save_series(end.series, cfg.csv_path)
    if cfg.checkpoint_path is not None:
        save_checkpoint(end.state, cfg.checkpoint_path)
    if isinstance(end, flow_engine.FlowError):
        print(f"run failed: {end}", file=sys.stderr)
        return 2
    series = end.series
    try:
        rate = f"{verify.fit_exponential(series.column('tau'), series.column('osc')).rate:.4g}"
    except ValueError:
        rate = "n/a"
    print(
        f"reason={end.reason} steps={end.state.step_count} "
        f"tau={end.state.tau:.6g} oscillation={series.last('osc'):.4e} "
        f"osc_decay_rate={rate}"
    )
    return 0


def cmd_verify(target):
    if target != "all" and target not in verify.SUITES:
        if os.path.exists(target):
            profile = _read_config(target)[1].profile
            report = validate_for_regime(profile)
            regime = "equality" if profile.equality_regime else "strict"
            print(f"profile regime: {regime}; g kind: {profile.g.KIND}")
            for cond in report.conditions:
                status = "PASS" if cond.ok else "FAIL"
                print(
                    f"  {cond.name}: {status} worst={cond.worst_violation:.3e} at r={cond.location:.6g}"
                )
            return 0 if report.ok else 3
        print(
            f"verify: unknown suite {target!r} (choose from {', '.join(verify.SUITES)}, "
            "'all', or a config path)",
            file=sys.stderr,
        )
        return 1
    results = [suite() for name, suite in verify.SUITES.items() if target in ("all", name)]
    for res in results:
        print(f"{res.name}: {'PASS' if res.ok else 'FAIL'} — {res.details}")
    return 0 if all(res.ok for res in results) else 3


def cmd_ode_compare(config_path):
    cfg, state = _read_config(config_path)
    try:
        deviation, nonuniformity = verify.pde_vs_ode_check(state, cfg.control)
    except ValueError as exc:  # not round data at tau = 0
        raise ConfigError([f"ode-compare: {exc}"]) from exc
    except flow_engine.FlowError as err:
        print(f"ode-compare failed: {err}", file=sys.stderr)
        return 2
    print(f"max_relative_deviation={deviation:.4e} max_spatial_oscillation={nonuniformity:.4e}")
    if not state.profile.equality_regime and state.profile.pure_power:
        r2 = verify.closed_form_r2(state.profile, verify.sphere_radius(state), cfg.control.t_end)
        print(f"closed_form_radius_at_t_end={r2:.12g}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="anisoflow",
        description="Normalized anisotropic curvature flow of star-shaped hypersurfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="integrate a configured flow and write diagnostics")
    p_run.add_argument("config")
    p_verify = sub.add_parser("verify", help="run property suites or validate a config's profile")
    p_verify.add_argument("target", nargs="?", default="all")
    p_ode = sub.add_parser("ode-compare", help="compare a sphere run against the exact ODE")
    p_ode.add_argument("config")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config)
        if args.command == "verify":
            return cmd_verify(args.target)
        return cmd_ode_compare(args.config)
    except ConfigError as exc:  # every problem with the config or its outputs, before any run
        for msg in exc.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
