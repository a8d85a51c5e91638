"""The text forms of the flow's objects, one codec: configs, graph files and checkpoints.

A text is INI-like: ``[section]`` headers, ``key = value`` pairs, ``#``
comments; unknown sections and keys are errors.  A row section holds
comma-separated rows instead.  Each section is read and written from the
fields of what it builds, so every key is named once, and floats are written
with 17 significant digits, so every text round-trips bit-exactly.

* a config (``cli``): [profile], [grid], [initial], [control], [output];
* a graph file: [grid], then one 'theta[,phi],value' [graph] row per node;
* a checkpoint: [profile] as a config writes it, but with a tabulated g's
  rows inline in [table], then [state], then the graph file's sections.

A malformed text raises ConfigError, a ValueError listing every problem found.
"""

import dataclasses

import numpy as np

from .flow_engine import FlowState
from .speed_profile import G_KINDS, SpeedProfile
from .sphere_geometry import GRID_KINDS, RadialGraph

_REQUIRED = object()

ROWS = None  # a row section's entry in the sections a text is read with


class ConfigError(ValueError):
    """Carries every problem found in a text, not just the first."""

    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


def _fmt(x):
    return format(float(x), ".17g")


def _series_m(f, key):
    """m if f is a series field '<prefix>_terms', a tuple of (m, value) pairs,
    and key is '<prefix>_<m>' with m a positive integer in plain digits."""
    head, _, m = key.rpartition("_")
    series = f.type is tuple and head == f.name.removesuffix("_terms")
    return int(m) if series and m.isascii() and m.isdigit() and m[0] != "0" else None


def _keys_of(fields, *extra):
    """The test a section's keys pass: a field's name, a series field's
    term key, or one of extra."""
    names = {f.name for f in fields if f.type is not tuple} | set(extra)
    return lambda key: key in names or any(_series_m(f, key) for f in fields)


def _tokenize(text, sections, errors):
    """-> {section: {key: (raw_value, line_no)}}, or [(row, line_no)] for a
    row section; sections maps each name to its keys' test, or to ROWS."""
    data = {name: {} if known is not ROWS else [] for name, known in sections.items()}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in sections:
                errors.append(f"line {lineno}: unknown section [{name}]")
                section = None
            else:
                section = name
            continue
        if section is not None and sections[section] is ROWS:
            data[section].append((line, lineno))
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if section is None:
            errors.append(f"line {lineno}: key {key!r} outside any section")
            continue
        if not sections[section](key):
            errors.append(f"line {lineno}: unknown key {key!r} in [{section}]")
            continue
        if key in data[section]:
            errors.append(f"line {lineno}: duplicate key {key!r} in [{section}]")
            continue
        data[section][key] = (value, lineno)
    return data


def _parse_text(text, sections, parse):
    """parse(data, errors) of the text's sections, or ConfigError listing
    every problem the tokenizer and parse found."""
    errors = []
    value = parse(_tokenize(text, sections, errors), errors)
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


# ---------------------------------------------------------------------------
# [profile] and [grid]: the speed data and the grid, in every text

# the fields [profile] reads and writes besides g's
_PROFILE_FIELDS = tuple(f for f in dataclasses.fields(SpeedProfile) if f.init and f.name != "g")

# g.<field> for every field of every g kind given by parameters (a table kind has g.table_path)
_G_PARAMS = {f"g.{f.name}" for cls in G_KINDS.values() if not cls.TABLE for f in dataclasses.fields(cls)}

PROFILE_KEYS = _keys_of(_PROFILE_FIELDS, "g.kind", "g.table_path", *_G_PARAMS)
GRID_KEYS = _keys_of((), "n", *(key for cls in GRID_KINDS.values() for key in cls.KEYS))


def _parse_profile(data, errors):
    """(SpeedProfile, the table path a tabulated g was read from).  A text
    with a [table] section (a checkpoint) holds a tabulated g's rows there."""
    scalars = _take_fields(data, "profile", _PROFILE_FIELDS, errors)
    kind = _take(data, "profile", "g.kind", str, errors)
    table_path = None
    g = None
    cls = G_KINDS.get(kind)
    if cls is not None and cls.TABLE and "table" in data:
        try:
            g = cls.from_rows(row for row, _ in data.pop("table"))
        except ValueError as exc:
            errors.append(f"[table] {exc}")
    elif cls is not None and cls.TABLE:
        table_path = _take(data, "profile", "g.table_path", str, errors)
        if table_path is not None:
            try:
                with open(table_path) as fh:
                    g = cls.from_rows(fh)
            except (OSError, ValueError) as exc:
                errors.append(f"[profile] g.table_path: {exc}")
    elif cls is not None:
        params = {f.name: _take(data, "profile", f"g.{f.name}", float, errors) for f in dataclasses.fields(cls)}
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
    for _, lineno in data.pop("table", [])[:1]:
        errors.append(f"line {lineno}: [table] rows: not valid for g.kind={kind}")
    if None in scalars.values() or g is None:
        return None, table_path
    try:
        return SpeedProfile(**scalars, g=g), table_path
    except ValueError as exc:
        errors.append(f"[profile] {exc}")
        return None, table_path


def _profile_lines(profile, table_path=None):
    """[profile] as _parse_profile reads it back: a tabulated g names its
    table file or, without one, has its rows follow in [table]."""
    g = profile.g
    lines = ["[profile]", *_field_lines(profile, _PROFILE_FIELDS), f"g.kind = {g.KIND}"]
    lines += [f"g.{name} = {_fmt(value)}" for name, value in g.params.items()]
    if g.TABLE:
        lines += [f"g.table_path = {table_path}"] if table_path is not None else ["[table]", *g.rows()]
    return lines


def _parse_grid(data, n, errors):
    """The [grid] section's grid of dimension n.  Its own n key, if given,
    must be n; with n None (a config whose [profile] failed) it decides."""
    n_grid = _take(data, "grid", "n", int, errors, default=n)
    if None not in (n, n_grid) and n_grid != n:
        errors.append(f"[grid] n: {n_grid} does not match [profile] n = {n}")
    cls = GRID_KINDS.get(n if n is not None else n_grid)
    if cls is None:
        return None
    sizes = [_take(data, "grid", key, int, errors) for key in cls.KEYS]
    for key, (_, lineno) in sorted(data["grid"].items()):  # another kind's keys
        errors.append(f"line {lineno}: [grid] {key}: not valid for n={cls.n} (use {'/'.join(cls.KEYS)})")
    if None in sizes:
        return None
    try:
        return cls(*sizes)
    except ValueError as exc:
        errors.append(f"[grid] {exc}")
        return None


def _grid_lines(grid):
    return ["[grid]", f"n = {grid.n}", *(f"{key} = {size}" for key, size in zip(grid.KEYS, grid.shape))]


# ---------------------------------------------------------------------------
# graph files and checkpoints

_GRAPH_SECTIONS = {"grid": GRID_KEYS, "graph": ROWS}
_STATE_FIELDS = tuple(f for f in dataclasses.fields(FlowState) if f.name in ("tau", "step_count", "last_dt"))
_CHECKPOINT_SECTIONS = {"profile": PROFILE_KEYS, "table": ROWS, "state": _keys_of(_STATE_FIELDS), **_GRAPH_SECTIONS}


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
        phi.append(value)
    try:
        return RadialGraph(grid, np.reshape(phi, grid.shape))
    except ValueError as exc:
        errors.append(f"[graph] {exc}")
        return None


def _graph_lines(graph):
    values = graph.phi.ravel().tolist()
    return [*_grid_lines(graph.grid), "[graph]", *(",".join(map(_fmt, (*node, v))) for node, v in zip(graph.grid.nodes, values))]


def _parse_checkpoint(data, errors):
    profile, _ = _parse_profile(data, errors)
    state = _take_fields(data, "state", _STATE_FIELDS, errors)
    graph = _parse_graph(data, errors)
    if profile is not None and graph is not None and graph.grid.n != profile.n:
        errors.append(f"[grid] n: {graph.grid.n} does not match [profile] n = {profile.n}")
    return None if errors else FlowState(graph=graph, profile=profile, **state)


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
    """The FlowState saved by ``save_checkpoint``, which resumes bit-exactly;
    ConfigError, a ValueError, on any malformed file."""
    with open(path) as fh:
        text = fh.read()
    if text.startswith("anisoflow-checkpoint 1"):  # the first line of format version 1, one line per object
        raise ConfigError(["line 1: a checkpoint in format version 1, which is no longer read"])
    return _parse_text(text, _CHECKPOINT_SECTIONS, _parse_checkpoint)
