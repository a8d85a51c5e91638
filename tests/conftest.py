"""``config_text``: a config's text, written from public pieces.

The package reads configs and writes none, so a test that needs a config's
text writes it with this fixture and reads it back through
``textform.parse_config_state``.
"""

import dataclasses

import pytest

from anisoflow.speed_profile import TabulatedG


def config_text(profile, grid, initial, control, override=False, csv_path=None, checkpoint_path=None):
    """The config of these pieces: [profile] from the profile's scalars, its
    g's KIND and an analytic g's fields or a table's rows in [table], [grid]
    from the grid's KEYS and shape, [initial] and [control] from the initial
    kind's and StepControl's fields, and [output] from the paths that are not
    None.  A float is written by str(), its shortest repr, which float()
    reads back bit-exactly."""
    g = profile.g
    lines = ["[profile]", *(f"{name} = {getattr(profile, name)}" for name in ("n", "k", "alpha", "beta"))]
    lines.append(f"g.kind = {g.KIND}")
    if isinstance(g, TabulatedG):
        lines += ["[table]", *(",".join(map(str, row)) for row in zip(g.points.tolist(), g.values.tolist(), g.derivs.tolist()))]
    else:
        lines += [f"g.{name} = {value}" for name, value in dataclasses.asdict(g).items()]
    lines += ["[grid]", f"n = {grid.n}", *(f"{key} = {size}" for key, size in zip(grid.KEYS, grid.shape))]
    lines += ["[initial]", f"kind = {initial.KIND}"]
    for f in dataclasses.fields(initial):
        value = getattr(initial, f.name)
        if isinstance(value, tuple):  # a series '<prefix>_terms' of (m, c): one '<prefix>_<m> = c' per term
            lines += [f"{f.name.removesuffix('_terms')}_{m} = {c}" for m, c in value]
        else:
            lines.append(f"{f.name} = {value}")
    lines += ["[control]", *(f"{f.name} = {getattr(control, f.name)}" for f in dataclasses.fields(control))]
    lines += [f"override = {'true' if override else 'false'}", "[output]"]
    lines += [f"{name} = {path}" for name, path in (("csv_path", csv_path), ("checkpoint_path", checkpoint_path)) if path is not None]
    return "\n".join(lines) + "\n"


@pytest.fixture(name="config_text", scope="session")
def config_text_fixture():
    return config_text
