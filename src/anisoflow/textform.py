"""The text forms of the flow's objects, one codec: configs, graph files, checkpoints and record CSVs.

A text is INI-like: ``[section]`` headers, ``key = value`` pairs, ``#``
comments (from a ``#`` at a line's start or after whitespace, so ``out#1.csv``
is a path); an unknown section is an error.  A row section holds
comma-separated rows instead.  Each section is read (and, outside a config,
written) from the fields of what it builds, so every key is named once, by the
reader that takes it.  The reader of a one-kind section ([profile]: one g kind,
[grid]: one dimension, [initial]: one initial kind) reports each key its kind
does not take; any other key that no reader took is reported as unknown.

* a config, read only: [profile], [grid], [initial], [control], [output];
* a graph file: [grid], then one 'theta[,phi],value' [graph] row per node;
* a checkpoint: [profile], then [state], then the graph file's sections;
* a run's records: a CSV, the COLUMNS header, then one row per record.

Graph files, checkpoints and record CSVs are written with 17 significant
digits, so each round-trips bit-exactly.  A config or checkpoint reads a
tabulated g's 'r,value,derivative' rows from the file g.table_path names or
from a [table] section after [profile]; save_checkpoint writes them in [table].

A malformed config, graph file or checkpoint raises ConfigError, a ValueError
listing every problem found; a malformed CSV, a ValueError at its first problem.
"""

import dataclasses
import re

import numpy as np

from .flow_engine import COLUMNS, DiagnosticsSeries, FlowState, StepControl, initial_state
from .speed_profile import G_KINDS, SpeedProfile, TabulatedG, validate_for_regime
from .sphere_geometry import GRID_KINDS, RadialGraph, expand_zonal, sphere_graph

_REQUIRED = object()


class ConfigError(ValueError):
    """Carries every problem found in a text, not just the first."""

    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


def _fmt(x):
    return format(float(x), ".17g")


def _content(raw):
    """The line before its comment, stripped; a '#' inside a value is the value's."""
    return re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()


def _series_m(f, key, prefix):
    """m if f is a series field '<stem>_terms', a tuple of (m, value) pairs,
    and key is prefix + '<stem>_<m>' with m a positive integer in plain digits."""
    head, _, m = key.rpartition("_")
    series = f.type is tuple and head == prefix + f.name.removesuffix("_terms")
    return int(m) if series and m.isascii() and m.isdigit() and m[0] != "0" else None


def _tokenize(text, sections, errors):
    """-> {section: {key: (raw_value, line_no)}}, or [(row, line_no)] for a
    row section; sections maps each name to what it holds, dict or list."""
    data = {name: holds() for name, holds in sections.items()}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _content(raw)
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            section = name if name in sections else None
            if section is None:
                errors.append(f"line {lineno}: unknown section [{name}]")
            continue
        if section is not None and sections[section] is list:
            data[section].append((line, lineno))
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if section is None:
            errors.append(f"line {lineno}: key {key!r} outside any section")
            continue
        if key in data[section]:
            errors.append(f"line {lineno}: duplicate key {key!r} in [{section}]")
            continue
        data[section][key] = (value, lineno)
    return data


def _parse_text(text, sections, parse):
    """parse(data, errors) of the text's sections, or ConfigError listing
    every problem the tokenizer and parse found and each key no reader took."""
    errors = []
    data = _tokenize(text, sections, errors)
    value = parse(data, errors)
    untaken = (
        (lineno, name, key) for name, keys in data.items() if isinstance(keys, dict) for key, (_, lineno) in keys.items()
    )
    errors += [f"line {lineno}: unknown key {key!r} in [{name}]" for lineno, name, key in sorted(untaken)]
    if errors:
        raise ConfigError(errors)
    return value


def _take(data, section, key, conv, errors, default=_REQUIRED):
    """conv(the key's value), popped from data; conv raises ValueError,
    TypeError or KeyError on a bad value."""
    if key not in data[section]:
        if default is _REQUIRED:
            errors.append(f"[{section}] {key}: required")
            return None
        return default
    raw, lineno = data[section].pop(key)
    try:
        return conv(raw)
    except (ValueError, TypeError, KeyError):
        errors.append(f"line {lineno}: [{section}] {key}: bad value {raw!r}")
        return None


def _take_fields(data, section, fields, errors, prefix=""):
    """{name: value} of the dataclass fields, each read from key prefix + name through
    its type, required unless it has a default; a series is its keys' pairs sorted by m."""
    values = {}
    for f in fields:
        if f.type is tuple:
            terms = [(m, _take(data, section, key, float, errors)) for key in sorted(data[section]) if (m := _series_m(f, key, prefix))]
            values[f.name] = None if any(c is None for _, c in terms) else tuple(sorted(terms))
        else:
            default = _REQUIRED if f.default is dataclasses.MISSING else f.default
            values[f.name] = _take(data, section, prefix + f.name, f.type, errors, default)
    return values


def _reject_rest(data, section, kind, errors):
    """Reports each key left in a one-kind section, one its kind did not
    take, and drops it."""
    for key, (_, lineno) in sorted(data[section].items()):
        errors.append(f"line {lineno}: [{section}] {key}: not valid for {kind}")
    data[section].clear()


def _build(where, errors, cls, *args, **kwargs):
    """cls(*args, **kwargs) once no argument is None (a value missing or bad),
    else None; a ValueError it raises is reported under where."""
    if any(value is None for value in (*args, *kwargs.values())):
        return None
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        errors.append(f"{where} {exc}")
        return None


def _field_lines(obj, fields):
    """The lines _take_fields reads back into obj's fields, each a float or an
    int: a checkpoint's [profile] scalars and [state], and a grid's sizes.  An
    int is written in plain digits, since _fmt(10**17) is '1e+17', which int()
    rejects."""
    values = ((f, getattr(obj, f.name)) for f in fields)
    return [f"{f.name} = {_fmt(value) if f.type is float else value}" for f, value in values]


# ---------------------------------------------------------------------------
# [profile] and [grid]: the speed data and the grid, in every text

# the fields [profile] reads and writes besides g's
_PROFILE_FIELDS = tuple(f for f in dataclasses.fields(SpeedProfile) if f.init and f.name != "g")


def _parse_profile(data, errors):
    """The SpeedProfile of [profile]; a tabulated g's rows are in the file
    g.table_path names or in [table], not in both."""
    scalars = _take_fields(data, "profile", _PROFILE_FIELDS, errors)
    kind = _take(data, "profile", "g.kind", str, errors)
    rows = data.pop("table")
    g = None
    cls = G_KINDS.get(kind)
    if cls is TabulatedG:
        path = _take(data, "profile", "g.table_path", str, errors, default=None)
        try:
            if (path is not None) == bool(rows):  # both, or neither
                raise ValueError("a tabulated g's rows are in g.table_path's file or in [table], one of the two")
            if path is not None:
                with open(path) as fh:
                    rows = [(line, lineno) for lineno, line in enumerate(fh, start=1)]
            g = _table(rows)
        except (OSError, ValueError) as exc:
            at = f"line {exc.lineno}: " if isinstance(exc, _RowError) else ""  # of the file, or of the text
            errors.append(f"[profile] g.table_path: {at}{exc}" if path is not None else f"{at}[table] {exc}")
        rows = []
    elif cls is not None:
        g = _build("[profile] g:", errors, cls, **_take_fields(data, "profile", dataclasses.fields(cls), errors, prefix="g."))
    elif kind is not None:
        errors.append(f"[profile] g.kind: unknown kind {kind!r} ({'|'.join(G_KINDS)})")
    _reject_rest(data, "profile", f"g.kind={kind}", errors)
    for _, lineno in rows[:1]:
        errors.append(f"line {lineno}: [table] rows: not valid for g.kind={kind}")
    return _build("[profile]", errors, SpeedProfile, **scalars, g=g)


class _RowError(ValueError):
    """A bad row, at its line number ``lineno``."""

    def __init__(self, message, lineno):
        super().__init__(message)
        self.lineno = lineno


def _table(rows):
    """The TabulatedG of (line, line number) 'r,value,derivative' rows;
    comments and blank lines are skipped, and a bad row raises _RowError."""
    table = []
    for raw, lineno in rows:
        if not (line := _content(raw)):
            continue
        try:
            r, value, derivative = map(float, line.split(","))
        except ValueError:
            raise _RowError(f"bad table row {line!r} (want 'r,value,derivative')", lineno) from None
        table.append((r, value, derivative))
    if len(table) < 2:
        raise ValueError("table needs at least 2 rows")
    return TabulatedG(*zip(*table))


def _profile_lines(profile):
    """[profile] as _parse_profile reads it back, a tabulated g's rows in [table]."""
    g = profile.g
    lines = ["[profile]", *_field_lines(profile, _PROFILE_FIELDS), f"g.kind = {g.KIND}"]
    if isinstance(g, TabulatedG):
        return [*lines, "[table]", *(",".join(map(_fmt, row)) for row in zip(g.points, g.values, g.derivs))]
    return lines + [f"g.{name} = {_fmt(value)}" for name, value in dataclasses.asdict(g).items()]


def _parse_grid(data, n, errors):
    """The [grid] section's grid of dimension n.  Its own n key, if given,
    must be n; with n None (a config whose [profile] failed) it decides.
    If nothing decides it, the section's other keys are dropped unread."""
    n_grid = _take(data, "grid", "n", int, errors, default=n)
    if None not in (n, n_grid) and n_grid != n:
        errors.append(f"[grid] n: {n_grid} does not match [profile] n = {n}")
    cls = GRID_KINDS.get(n if n is not None else n_grid)
    if cls is None:
        data["grid"].clear()
        return None
    fields = dataclasses.fields(cls)
    sizes = _take_fields(data, "grid", fields, errors)
    _reject_rest(data, "grid", f"n={cls.n} (use {'/'.join(f.name for f in fields)})", errors)
    return _build("[grid]", errors, cls, **sizes)


def _grid_lines(grid):
    return ["[grid]", f"n = {grid.n}", *_field_lines(grid, dataclasses.fields(grid))]


# ---------------------------------------------------------------------------
# graph files, checkpoints and record CSVs

_GRAPH_SECTIONS = {"grid": dict, "graph": list}
_STATE_FIELDS = tuple(f for f in dataclasses.fields(FlowState) if f.name in ("tau", "step_count", "last_dt"))
_CHECKPOINT_SECTIONS = {"profile": dict, "table": list, "state": dict, **_GRAPH_SECTIONS}


def _parse_graph(data, errors):
    """The graph of [grid], which must name its n, and the [graph] rows."""
    grid = _parse_grid(data, _take(data, "grid", "n", lambda raw: GRID_KINDS[int(raw)].n, errors), errors)
    rows = data["graph"]
    if grid is None:
        return None
    nodes = grid.nodes
    if len(rows) != len(nodes):
        errors.append(f"[graph]: {len(rows)} rows for the {len(nodes)} nodes of the grid")
        return None
    phi = []
    for (row, lineno), node in zip(rows, nodes):
        try:
            *coords, value = map(float, row.split(","))
        except ValueError:
            coords = None
        if coords != list(node):
            errors.append(f"line {lineno}: [graph] bad row {row!r}: want '{','.join(map(_fmt, node))},<phi>'")
            return None
        if not np.isfinite(value):
            errors.append(f"line {lineno}: [graph] phi must be finite, got {value!r}")
            return None
        phi.append(value)
    return RadialGraph(grid, np.reshape(phi, grid.shape))


def _graph_lines(graph):
    graph = expand_zonal(graph)
    nodes, values = graph.grid.nodes, graph.phi.ravel().tolist()
    return [*_grid_lines(graph.grid), "[graph]", *(",".join(map(_fmt, (*node, v))) for node, v in zip(nodes, values))]


def _nonnegative(value):
    """value, unless it is negative or not finite: a time, a step size or a step count."""
    if not 0 <= value < float("inf"):
        raise ValueError(value)
    return value


def _parse_checkpoint(data, errors):
    profile = _parse_profile(data, errors)
    state = {f.name: _take(data, "state", f.name, lambda raw, conv=f.type: _nonnegative(conv(raw)), errors) for f in _STATE_FIELDS}
    graph = _parse_graph(data, errors)
    if profile is not None and graph is not None and graph.grid.n != profile.n:
        errors.append(f"[grid] n: {graph.grid.n} does not match [profile] n = {profile.n}")
    try:
        return None if errors else dataclasses.replace(initial_state(profile, graph, validate_regime=False), **state)
    except ValueError as exc:  # the radius overflows
        errors.append(f"[graph] {exc}")


def _write(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def save_graph(graph, path):
    _write(path, _graph_lines(graph))


def load_graph(path):
    """The graph saved by ``save_graph``; ConfigError, a ValueError, on any malformed file."""
    with open(path) as fh:
        return _parse_text(fh.read(), _GRAPH_SECTIONS, _parse_graph)


def save_checkpoint(state, path):
    _write(path, [*_profile_lines(state.profile), "[state]", *_field_lines(state, _STATE_FIELDS), *_graph_lines(state.graph)])


def load_checkpoint(path):
    """The FlowState saved by ``save_checkpoint``, made by ``initial_state``
    with the saved tau, step count and last dt, which resumes bit-exactly;
    ConfigError, a ValueError, on any malformed file or overflowing radius."""
    with open(path) as fh:
        text = fh.read()
    if text.startswith("anisoflow-checkpoint 1"):  # the first line of format version 1, one line per object
        raise ConfigError(["line 1: a checkpoint in format version 1, which is no longer read"])
    return _parse_text(text, _CHECKPOINT_SECTIONS, _parse_checkpoint)


_SERIES_HEADER = ",".join(COLUMNS)


def save_series(series, path):
    columns = [series.column(name).tolist() for name in COLUMNS]
    _write(path, [_SERIES_HEADER, *(",".join(map(_fmt, row)) for row in zip(*columns))])


def load_series(path):
    """The DiagnosticsSeries saved by ``save_series``; a ValueError on a bad
    header or row, or on a record the series refuses (a NaN tau or osc),
    each but the header naming its line."""
    with open(path) as fh:
        lines = [(ln, lineno) for lineno, ln in enumerate(fh.read().splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][0] != _SERIES_HEADER:
        raise ValueError("bad diagnostics CSV header")
    series = DiagnosticsSeries()
    for ln, lineno in lines[1:]:
        try:  # a token that is not a number, or too few or too many
            row = dict(zip(COLUMNS, map(float, ln.split(",")), strict=True))
        except ValueError:
            raise ValueError(f"line {lineno}: bad diagnostics CSV row: {ln!r}") from None
        try:
            series.append(**row)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return series


# ---------------------------------------------------------------------------
# configs: the initial data kinds, RunConfig and the [initial], [control] and [output] sections


@dataclasses.dataclass(frozen=True)
class SphereInitial:
    """The round sphere of radius r0."""

    r0: float
    KIND = "sphere"

    def __post_init__(self):
        if self.r0 <= 0:
            raise ValueError(f"r0: must be positive, got {self.r0}")

    def graph(self, grid):
        return sphere_graph(grid, self.r0)


@dataclasses.dataclass(frozen=True)
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


@dataclasses.dataclass(frozen=True)
class FileInitial:
    """A graph saved by save_graph, on the config's grid."""

    path: str
    KIND = "file"

    def graph(self, grid):
        graph = load_graph(self.path)
        if graph.grid != grid:
            raise ValueError(f"initial file grid {graph.grid!r} does not match config grid {grid!r}")
        return graph


# each kind's fields are its [initial] keys; graph(grid) raises ValueError on bad data
INITIAL_KINDS = {c.KIND: c for c in (SphereInitial, FourierInitial, FileInitial)}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """What a config asks of a run besides its initial state."""

    control: StepControl
    csv_path: str = None
    checkpoint_path: str = None


# the fields each section reads (_take_fields), besides kind and override
_CONTROL_FIELDS = dataclasses.fields(StepControl)
_OUTPUT_FIELDS = tuple(f for f in dataclasses.fields(RunConfig) if f.name.endswith("_path"))

_CONFIG_SECTIONS = {"profile": dict, "table": list, "grid": dict, "initial": dict, "control": dict, "output": dict}


def _parse_initial(data, errors):
    kind = _take(data, "initial", "kind", str, errors)
    cls = INITIAL_KINDS.get(kind)
    initial = None
    if cls is not None:
        initial = _build("[initial]", errors, cls, **_take_fields(data, "initial", dataclasses.fields(cls), errors))
    elif kind is not None:
        errors.append(f"[initial] kind: unknown kind {kind!r} ({'|'.join(INITIAL_KINDS)})")
    _reject_rest(data, "initial", f"kind={kind}", errors)
    return initial


def _parse_config(data, errors):
    override = _take(data, "control", "override", {"true": True, "false": False}.__getitem__, errors, default=False)
    control = _build("[control]", errors, StepControl, **_take_fields(data, "control", _CONTROL_FIELDS, errors))

    profile = _parse_profile(data, errors)
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
    state = None
    if grid is not None and initial is not None:
        try:
            graph = initial.graph(grid)
            if profile is not None:  # the initial data's own checks, without the validator's
                state = initial_state(profile, graph, validate_regime=False)
        except (OSError, ValueError) as exc:
            errors.append(f"[initial] {exc}")

    if errors:
        return None
    return RunConfig(control, **outputs), state


def parse_config_state(text):
    """(RunConfig, the initial FlowState made by ``initial_state`` from its
    profile, grid and initial data), or ConfigError listing every problem;
    a graph file is read once."""
    return _parse_text(text, _CONFIG_SECTIONS, _parse_config)
