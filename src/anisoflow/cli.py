"""Command-line front end: config parsing, runs, verification, ODE comparison.

A config's text form is ``textform``'s; the README has the key reference.

Exit codes: 0 ok; 1 config error; 2 runtime (cone/overflow/step) error;
3 verification failure.
"""

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import flow_engine, verify
from .diagnostics import closed_form_r2, fit_exponential
from .speed_profile import SpeedProfile, validate_for_regime
from .sphere_geometry import RadialGraph, SphericalGrid, sphere_graph
from .textform import GRID_KEYS, PROFILE_KEYS, ConfigError, _field_lines, _grid_lines, _keys_of, _parse_grid
from .textform import _parse_profile, _parse_text, _profile_lines, _take, _take_fields, load_graph, save_checkpoint


@dataclass(frozen=True)
class SphereInitial:
    """The round sphere of radius r0."""

    r0: float
    KIND = "sphere"

    def __post_init__(self):
        if self.r0 <= 0:
            raise ValueError(f"r0: must be positive, got {self.r0}")

    def graph(self, grid):
        return sphere_graph(grid, self.r0)


@dataclass(frozen=True)
class FourierInitial:
    """const plus (m, c) terms c cos(m theta) and c sin(m theta), sorted by m,
    as the radius r or as phi = log r.  A config names each term after its
    field: cos_<m> = c, sin_<m> = c."""

    const: float = 1.0
    variable: str = "r"
    cos_terms: tuple = ()
    sin_terms: tuple = ()
    KIND = "fourier"

    def __post_init__(self):
        if self.variable not in ("r", "phi"):
            raise ValueError(f"variable: must be 'r' or 'phi', got {self.variable!r}")
        if not np.isfinite([self.const, *(c for _, c in self.cos_terms + self.sin_terms)]).all():
            raise ValueError("const, cos_* and sin_*: must be finite")

    def graph(self, grid):
        # cos(m theta) = T_m(cos theta) is smooth on S^2; sin(theta) is not at the poles
        if grid.n == 2 and self.sin_terms:
            raise ValueError("sin_*: not smooth across the poles on n=2 grids")
        th = np.expand_dims(grid.theta, tuple(range(1, len(grid.shape))))  # a column on a sphere grid
        vals = np.full_like(th, self.const)
        with np.errstate(over="ignore"):  # a sum past the float range fails as phi = inf
            for m, c in self.cos_terms:
                vals = vals + c * np.cos(m * th)
            for m, c in self.sin_terms:
                vals = vals + c * np.sin(m * th)
        vals = np.broadcast_to(vals, grid.shape).copy()
        if self.variable == "phi":
            return RadialGraph(grid, vals)
        if not np.all(vals > 0.0):
            raise ValueError(f"initial radius must be positive everywhere (min = {vals.min():.6g})")
        return RadialGraph(grid, np.log(vals))


@dataclass(frozen=True)
class FileInitial:
    """A graph saved by save_graph, on the config's grid."""

    path: str
    KIND = "file"

    def graph(self, grid):
        graph = load_graph(self.path)
        if graph.grid != grid:
            raise ValueError(f"initial file grid ({graph.grid.describe()}) does not match config grid ({grid.describe()})")
        return graph


# each kind's fields are its [initial] keys; graph(grid) raises ValueError on bad data
INITIAL_KINDS = {c.KIND: c for c in (SphereInitial, FourierInitial, FileInitial)}


@dataclass(frozen=True)
class RunConfig:
    profile: SpeedProfile
    grid: SphericalGrid
    initial: object  # an INITIAL_KINDS instance
    control: flow_engine.StepControl
    override: bool = False
    csv_path: str = None
    plot_path: str = None
    checkpoint_path: str = None
    g_table_path: str = None


# the fields each section reads (_take_fields) and writes (_field_lines), besides kind and override
_CONTROL_FIELDS = dataclasses.fields(flow_engine.StepControl)
_OUTPUT_FIELDS = tuple(f for f in dataclasses.fields(RunConfig) if f.name in ("csv_path", "plot_path", "checkpoint_path"))
_INITIAL_FIELDS = [f for cls in INITIAL_KINDS.values() for f in dataclasses.fields(cls)]

_SECTIONS = {
    "profile": PROFILE_KEYS,
    "grid": GRID_KEYS,
    "initial": _keys_of(_INITIAL_FIELDS, "kind"),
    "control": _keys_of(_CONTROL_FIELDS, "override"),
    "output": _keys_of(_OUTPUT_FIELDS),
}


def _parse_initial(data, errors):
    kind = _take(data, "initial", "kind", str, errors)
    cls = INITIAL_KINDS.get(kind)
    initial = None
    if cls is not None:
        values = _take_fields(data, "initial", dataclasses.fields(cls), errors)
        if None not in values.values():
            try:
                initial = cls(**values)
            except ValueError as exc:
                errors.append(f"[initial] {exc}")
    elif kind is not None:
        errors.append(f"[initial] kind: unknown kind {kind!r} ({'|'.join(INITIAL_KINDS)})")
    for leftover in sorted(data["initial"]):
        _, lineno = data["initial"][leftover]
        errors.append(f"line {lineno}: [initial] {leftover}: not valid for kind={kind}")
    return initial


def parse_config(text):
    """Validated RunConfig or ConfigError listing every problem."""
    return _parse_config(text)[0]


def _parse_config(text):
    """(RunConfig, the initial graph built and checked from it), as parse_config."""
    return _parse_text(text, _SECTIONS, _parse_sections)


def _parse_sections(data, errors):
    override = _take(data, "control", "override", {"true": True, "false": False}.__getitem__, errors, default=False)
    controls = _take_fields(data, "control", _CONTROL_FIELDS, errors)
    control = None
    if None not in controls.values():
        try:
            control = flow_engine.StepControl(**controls)
        except ValueError as exc:
            errors.append(f"[control] {exc}")

    profile, table_path = _parse_profile(data, errors)
    grid = _parse_grid(data, None if profile is None else profile.n, errors)
    initial = _parse_initial(data, errors)
    outputs = _take_fields(data, "output", _OUTPUT_FIELDS, errors)

    if profile is not None and not override:
        report = validate_for_regime(profile)
        if not report.ok:
            errors.append(
                f"[profile] fails its regime validator (condition {report.condition!r}, "
                f"worst violation {report.worst_violation:.3e}); set [control] override = true to force"
            )
    graph = None
    if grid is not None and initial is not None:
        try:
            graph = initial.graph(grid)
            if profile is not None:  # the initial data's own checks, without the validator's
                flow_engine.initial_state(profile, graph, validate_regime=False)
        except (OSError, ValueError) as exc:
            errors.append(f"[initial] {exc}")

    if errors:
        return None
    config = RunConfig(
        profile=profile,
        grid=grid,
        initial=initial,
        control=control,
        override=override,
        g_table_path=table_path,
        **outputs,
    )
    return config, graph


def format_config(cfg):
    """Canonical text for a RunConfig; parse_config(format_config(c)) == c."""
    lines = [*_profile_lines(cfg.profile, cfg.g_table_path), *_grid_lines(cfg.grid)]
    lines += ["[initial]", f"kind = {cfg.initial.KIND}", *_field_lines(cfg.initial, dataclasses.fields(cfg.initial))]
    lines += ["[control]", *_field_lines(cfg.control, _CONTROL_FIELDS)]
    lines.append(f"override = {'true' if cfg.override else 'false'}")
    lines += ["[output]", *_field_lines(cfg, _OUTPUT_FIELDS)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG plot (no plotting dependency: direct polyline emission)


def _svg_polyline(xs, ys, x0, x1, y0, y1, width, height, margin, color):
    pts = []
    for x, y in zip(xs, ys):
        px = margin + (x - x0) / (x1 - x0) * (width - 2 * margin)
        py = height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)
        pts.append(f"{px:.2f},{py:.2f}")
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{" ".join(pts)}"/>'


def write_svg_plot(path, series):
    """Oscillation and max|grad phi| vs tau on a log-10 y axis."""
    width, height, margin = 640, 400, 60
    tau = series.column("tau")
    curves = [
        ("oscillation", series.column("osc"), "#1f77b4"),
        ("max|grad phi|", series.column("grad_phi_max"), "#d62728"),
    ]
    body = []
    positive = [
        (label, tau[vals > 0], np.log10(vals[vals > 0]), color)
        for label, vals, color in curves
        if np.any(vals > 0)
    ]
    if positive and len(tau) > 1 and tau[-1] > tau[0]:
        x0, x1 = float(tau[0]), float(tau[-1])
        y0 = min(float(ys.min()) for _, _, ys, _ in positive)
        y1 = max(float(ys.max()) for _, _, ys, _ in positive)
        if y1 - y0 < 1e-12:
            y0, y1 = y0 - 1.0, y1 + 1.0
        for label, xs, ys, color in positive:
            if len(xs) >= 2:
                body.append(_svg_polyline(xs, ys, x0, x1, y0, y1, width, height, margin, color))
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            yv = y0 + frac * (y1 - y0)
            py = height - margin - frac * (height - 2 * margin)
            body.append(
                f'<text x="{margin - 8}" y="{py + 4:.1f}" font-size="11" text-anchor="end">1e{yv:.1f}</text>'
            )
            xv = x0 + frac * (x1 - x0)
            px = margin + frac * (width - 2 * margin)
            body.append(
                f'<text x="{px:.1f}" y="{height - margin + 16}" font-size="11" text-anchor="middle">{xv:.3g}</text>'
            )
        for i, (label, _, _, color) in enumerate(positive):
            ly = margin + 14 * i
            body.append(f'<rect x="{width - margin - 150}" y="{ly - 9}" width="10" height="10" fill="{color}"/>')
            body.append(f'<text x="{width - margin - 135}" y="{ly}" font-size="11">{label}</text>')
    else:
        body.append(f'<text x="{width / 2}" y="{height / 2}" text-anchor="middle">no positive data to plot</text>')
    frame = (
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="black"/>'
    )
    labels = (
        f'<text x="{width / 2}" y="{height - 12}" font-size="12" text-anchor="middle">tau</text>'
        f'<text x="16" y="{height / 2}" font-size="12" transform="rotate(-90 16 {height / 2})" '
        f'text-anchor="middle">log10 value</text>'
    )
    with open(path, "w") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
            f"{frame}\n" + "\n".join(body) + f"\n{labels}\n</svg>\n"
        )


# ---------------------------------------------------------------------------
# subcommands


def _read_config(path, parse=parse_config):
    try:
        with open(path) as fh:
            return parse(fh.read())
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return None
    except ConfigError as exc:
        for msg in exc.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return None


def _probe_writable(path):
    try:
        with open(path, "a"):
            return True
    except OSError as exc:
        print(f"config error: {path!r} not writable: {exc}", file=sys.stderr)
        return False


def cmd_run(config_path):
    parsed = _read_config(config_path, _parse_config)
    if parsed is None:
        return 1
    cfg, graph = parsed
    if cfg.csv_path is None:
        print("config error: [output] csv_path is required by run", file=sys.stderr)
        return 1
    for path in (getattr(cfg, f.name) for f in _OUTPUT_FIELDS):
        if path is not None and not _probe_writable(path):
            return 1
    state = flow_engine.initial_state(cfg.profile, graph, validate_regime=False)
    try:
        result = flow_engine.run(state, cfg.control)
    except flow_engine.FlowError as err:
        # keep the evidence: the records before the failure and the last state reached
        err.series.to_csv(cfg.csv_path)
        if cfg.checkpoint_path is not None:
            save_checkpoint(err.state, cfg.checkpoint_path)
        print(f"run failed: {err}", file=sys.stderr)
        return 2
    result.series.to_csv(cfg.csv_path)
    if cfg.plot_path is not None:
        write_svg_plot(cfg.plot_path, result.series)
    if cfg.checkpoint_path is not None:
        save_checkpoint(result.state, cfg.checkpoint_path)
    series = result.series
    try:
        rate = f"{fit_exponential(series.column('tau'), series.column('osc')).rate:.4g}"
    except ValueError:
        rate = "n/a"
    print(
        f"reason={result.reason} steps={result.state.step_count} "
        f"tau={result.state.tau:.6g} oscillation={series.last('osc'):.4e} "
        f"osc_decay_rate={rate}"
    )
    return 0


def cmd_verify(target):
    if target != "all" and target not in verify.SUITE_NAMES:
        if os.path.exists(target):
            cfg = _read_config(target)
            if cfg is None:
                return 1
            report = validate_for_regime(cfg.profile)
            regime = "equality" if cfg.profile.equality_regime else "strict"
            print(f"profile regime: {regime}; g kind: {cfg.profile.g.KIND}")
            for cond in report.conditions:
                status = "PASS" if cond.ok else "FAIL"
                print(
                    f"  {cond.name}: {status} worst={cond.worst_violation:.3e} at r={cond.location:.6g}"
                )
            return 0 if report.ok else 3
        print(
            f"verify: unknown suite {target!r} (choose from {', '.join(verify.SUITE_NAMES)}, "
            "'all', or a config path)",
            file=sys.stderr,
        )
        return 1
    results = verify.run_all() if target == "all" else [verify.run_suite(target)]
    for res in results:
        print(f"{res.name}: {'PASS' if res.ok else 'FAIL'} — {res.details}")
    return 0 if all(res.ok for res in results) else 3


def cmd_ode_compare(config_path):
    cfg = _read_config(config_path)
    if cfg is None:
        return 1
    if cfg.initial.KIND != "sphere":
        print("config error: ode-compare needs [initial] kind = sphere", file=sys.stderr)
        return 1
    try:
        # the regime was checked (or overridden) when the config was parsed
        deviation, nonuniformity = verify.pde_vs_ode_check(
            cfg.profile, cfg.initial.r0, cfg.grid, cfg.control, validate_regime=False
        )
    except flow_engine.FlowError as err:
        print(f"ode-compare failed: {err}", file=sys.stderr)
        return 2
    print(f"max_relative_deviation={deviation:.4e} max_spatial_oscillation={nonuniformity:.4e}")
    if not cfg.profile.equality_regime and cfg.profile.pure_power:
        r2 = closed_form_r2(cfg.profile, cfg.initial.r0, cfg.control.t_end)
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
    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "verify":
        return cmd_verify(args.target)
    return cmd_ode_compare(args.config)


if __name__ == "__main__":
    sys.exit(main())
