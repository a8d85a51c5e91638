"""Command-line front end: config parsing, runs, verification, ODE comparison.

Config format: INI-like plain text.  ``[section]`` headers, ``key = value``
pairs, ``#`` starts a comment anywhere.  Sections and keys are fixed; unknown
ones are errors (typos must not silently change a run).  See the README for
the full key reference.

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
from .speed_profile import G_KINDS, SpeedProfile, validate_for_regime
from .sphere_geometry import GRID_KINDS, RadialGraph, SphericalGrid, _fmt, load_graph, sphere_graph

_REQUIRED = object()


class ConfigError(Exception):
    """Carries every config problem found, not just the first."""

    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


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


# the fields each section reads (_take_fields) and writes (_field_lines), besides g's, kind and override
_PROFILE_FIELDS = tuple(f for f in dataclasses.fields(SpeedProfile) if f.init and f.name != "g")
_CONTROL_FIELDS = dataclasses.fields(flow_engine.StepControl)
_OUTPUT_FIELDS = tuple(f for f in dataclasses.fields(RunConfig) if f.name in ("csv_path", "plot_path", "checkpoint_path"))
_INITIAL_FIELDS = [f for cls in INITIAL_KINDS.values() for f in dataclasses.fields(cls)]

# g.<field> for every field of every g kind given by parameters (a table kind has g.table_path)
_G_PARAMS = {f"g.{f.name}" for cls in G_KINDS.values() if not cls.TABLE for f in dataclasses.fields(cls)}

_SECTIONS = {
    "profile": {f.name for f in _PROFILE_FIELDS} | {"g.kind", "g.table_path"} | _G_PARAMS,
    "grid": {"n"} | {key for cls in GRID_KINDS.values() for key in cls.CONFIG_KEYS},
    "initial": {"kind"} | {f.name for f in _INITIAL_FIELDS if f.type is not tuple},
    "control": {f.name for f in _CONTROL_FIELDS} | {"override"},
    "output": {f.name for f in _OUTPUT_FIELDS},
}


def _series_m(f, key):
    """m if f is a series field '<prefix>_terms', a tuple of (m, value) pairs,
    and key is '<prefix>_<m>' with m a positive integer in plain digits."""
    head, _, m = key.rpartition("_")
    series = f.type is tuple and head == f.name.removesuffix("_terms")
    return int(m) if series and m.isascii() and m.isdigit() and m[0] != "0" else None


def _tokenize(text, errors):
    """-> {section: {key: (raw_value, line_no)}}"""
    data = {name: {} for name in _SECTIONS}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                errors.append(f"line {lineno}: unknown section [{name}]")
                section = None
            else:
                section = name
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if section is None:
            errors.append(f"line {lineno}: key {key!r} outside any section")
            continue
        known = key in _SECTIONS[section] or (section == "initial" and any(_series_m(f, key) for f in _INITIAL_FIELDS))
        if not known:
            errors.append(f"line {lineno}: unknown key {key!r} in [{section}]")
            continue
        if key in data[section]:
            errors.append(f"line {lineno}: duplicate key {key!r} in [{section}]")
            continue
        data[section][key] = (value, lineno)
    return data


def _take(data, section, key, conv, errors, default=_REQUIRED):
    if key not in data[section]:
        if default is _REQUIRED:
            errors.append(f"[{section}] {key}: required")
            return None
        return default
    raw, lineno = data[section].pop(key)
    try:
        return conv(raw)
    except (ValueError, TypeError):
        errors.append(f"line {lineno}: [{section}] {key}: bad value {raw!r}")
        return None


def _take_fields(data, section, fields, errors):
    """{name: value} of the dataclass fields, each read through its type and
    required unless it has a default; a series is its keys' pairs sorted by m."""
    values = {}
    for f in fields:
        if f.type is tuple:
            terms = [(m, _take(data, section, key, float, errors)) for key in sorted(data[section]) if (m := _series_m(f, key))]
            values[f.name] = None if any(c is None for _, c in terms) else tuple(sorted(terms))
        else:
            default = _REQUIRED if f.default is dataclasses.MISSING else f.default
            values[f.name] = _take(data, section, f.name, f.type, errors, default)
    return values


def _field_lines(obj, fields):
    """The lines _take_fields reads back into obj's fields; a None is left out."""
    lines = []
    for f in fields:
        value = getattr(obj, f.name)
        if f.type is tuple:
            lines += [f"{f.name.removesuffix('_terms')}_{m} = {_fmt(c)}" for m, c in value]
        elif value is not None:  # ints as plain digits: _fmt(10**17) is '1e+17', which int() rejects
            lines.append(f"{f.name} = {_fmt(value) if f.type is float else value}")
    return lines


def _bool(raw):
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ValueError(raw)


def _parse_profile(data, errors):
    scalars = _take_fields(data, "profile", _PROFILE_FIELDS, errors)
    kind = _take(data, "profile", "g.kind", str, errors)
    table_path = None
    g = None
    cls = G_KINDS.get(kind)
    if cls is not None and cls.TABLE:
        table_path = _take(data, "profile", "g.table_path", str, errors)
        if table_path is not None:
            try:
                with open(table_path) as fh:
                    g = cls.from_rows(fh)
            except (OSError, ValueError) as exc:
                errors.append(f"[profile] g.table_path: {exc}")
    elif cls is not None:
        params = {
            f.name: _take(data, "profile", f"g.{f.name}", float, errors)
            for f in dataclasses.fields(cls)
        }
        if None not in params.values():
            try:
                g = cls(**params)
            except ValueError as exc:
                errors.append(f"[profile] g: {exc}")
    elif kind is not None:
        errors.append(f"[profile] g.kind: unknown kind {kind!r}")
    for leftover in sorted(data["profile"]):
        _, lineno = data["profile"][leftover]
        errors.append(f"line {lineno}: [profile] {leftover}: not valid for g.kind={kind}")
    if None in scalars.values() or g is None:
        return None, table_path
    try:
        return SpeedProfile(**scalars, g=g), table_path
    except ValueError as exc:
        errors.append(f"[profile] {exc}")
        return None, table_path


def _parse_grid(data, profile, errors):
    n_grid = _take(data, "grid", "n", int, errors, default=None)
    if profile is not None and n_grid is not None and n_grid != profile.n:
        errors.append(f"[grid] n: {n_grid} does not match [profile] n = {profile.n}")
    n = profile.n if profile is not None else n_grid
    cls = GRID_KINDS.get(n)
    if cls is None:
        return None
    sizes = [_take(data, "grid", key, int, errors) for key in cls.CONFIG_KEYS]
    for key, (_, lineno) in sorted(data["grid"].items()):  # another kind's keys
        errors.append(f"line {lineno}: [grid] {key}: not valid for n={n} (use {'/'.join(cls.CONFIG_KEYS)})")
    if None in sizes:
        return None
    try:
        return cls(*sizes)
    except ValueError as exc:
        errors.append(f"[grid] {exc}")
        return None


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
    errors = []
    data = _tokenize(text, errors)
    override = _take(data, "control", "override", _bool, errors, default=False)
    controls = _take_fields(data, "control", _CONTROL_FIELDS, errors)
    control = None
    if None not in controls.values():
        try:
            control = flow_engine.StepControl(**controls)
        except ValueError as exc:
            errors.append(f"[control] {exc}")

    profile, table_path = _parse_profile(data, errors)
    grid = _parse_grid(data, profile, errors)
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
        raise ConfigError(errors)
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
    g = cfg.profile.g
    lines = ["[profile]", *_field_lines(cfg.profile, _PROFILE_FIELDS), f"g.kind = {g.KIND}"]
    lines += [f"g.{name} = {_fmt(value)}" for name, value in g.params.items()]
    if g.TABLE:
        lines.append(f"g.table_path = {cfg.g_table_path}")
    lines.append("[grid]")
    lines += [f"{key} = {size}" for key, size in zip(cfg.grid.CONFIG_KEYS, cfg.grid.shape)]
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
            flow_engine.save_checkpoint(err.state, cfg.checkpoint_path)
        print(f"run failed: {err}", file=sys.stderr)
        return 2
    result.series.to_csv(cfg.csv_path)
    if cfg.plot_path is not None:
        write_svg_plot(cfg.plot_path, result.series)
    if cfg.checkpoint_path is not None:
        flow_engine.save_checkpoint(result.state, cfg.checkpoint_path)
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
