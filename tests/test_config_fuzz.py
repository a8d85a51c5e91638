"""Text fuzzing: every initial kind x g kind x grid kind, written as a config
text by the config_text fixture, reads back as its drawn pieces; every g kind
x grid kind round-trips through its checkpoint and graph file; and a
corrupted text fails as a ConfigError (a ValueError) or not at all."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisoflow.flow_engine import FlowState, StepControl
from anisoflow.speed_profile import (
    G_KINDS,
    ExpFlatG,
    MonomialG,
    SpeedProfile,
    TabulatedG,
    ZeroG,
    eval_g,
    validate_for_regime,
)
from anisoflow.sphere_geometry import GRID_KINDS, CircleGrid, RadialGraph, SphereGrid, reduce_zonal
from anisoflow.textform import (
    INITIAL_KINDS,
    ConfigError,
    FileInitial,
    FourierInitial,
    RunConfig,
    SphereInitial,
    load_checkpoint,
    load_graph,
    parse_config_state,
    save_checkpoint,
    save_graph,
)

GRIDS = (CircleGrid(16), CircleGrid(24), SphereGrid(16, 16), SphereGrid(16, 20))

FUZZ = settings(derandomize=True, database=None, max_examples=100, deadline=None)

# values that are no config value, or the wrong one, or out of range; none
# of them is a grid size large enough to cost memory
JUNK = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "1e400", "-1", "0", "7", "1.5", "true", "1_0", "0x10", "phi", "zero", "file", "no/such/file"]),
    st.text(alphabet="abcxyz_.-+/!?=[]", max_size=8),
)


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def graph_paths(tmp_path_factory):
    """{grid: the path of an initial graph on it}."""
    root = tmp_path_factory.mktemp("fuzz")
    graphs = {}
    for i, grid in enumerate(GRIDS):
        graphs[grid] = str(root / f"initial{i}.graph")
        save_graph(FourierInitial(cos_terms=((2, 0.05),)).graph(grid), graphs[grid])
    return graphs


def flat_table(lo, width):
    """A 60-row table of r^2 exp(-1/r^3) on [lo, lo + width].  From lo = 0 its
    first cubic is exactly 0, as the validator asks of a table: the first
    interval is at most 5/59 wide, where exp(-1/r^3) underflows."""
    base = SpeedProfile(n=1, k=1, alpha=1.0, beta=4.0, g=ExpFlatG(3.0))
    pts = np.linspace(lo, lo + width, 60)
    return TabulatedG(pts, *eval_g(base, pts))


def g_kinds():
    """One strategy per g kind: a kind added to G_KINDS without one fails here.
    An expflat g may be 0 near the origin or not, a table start there or past it."""
    strategies = {
        "zero": st.just(ZeroG()),
        "expflat": st.builds(ExpFlatG, finite(0.1, 4.0), st.just(0.0) | finite(0.01, 2.0)),
        "monomial": st.builds(MonomialG, st.integers(1, 8).map(float)),
        "tabulated": st.builds(flat_table, st.just(0.0) | finite(0.0, 5.0), finite(0.1, 5.0)),
    }
    assert set(strategies) == set(G_KINDS)
    return strategies


def terms():
    return st.dictionaries(st.integers(1, 12), finite(-0.01, 0.01), max_size=3).map(lambda d: tuple(sorted(d.items())))


def draw_profile(draw, grid):
    k = draw(st.integers(1, grid.n))
    alpha = draw(st.sampled_from((1.0 / k, 1.0, 2.0)) | finite(1.0, 3.0))
    beta = 1.0 + k * alpha + draw(st.just(0.0) | finite(0.0, 3.0))
    g = draw(g_kinds()[draw(st.sampled_from(sorted(G_KINDS)))])
    return SpeedProfile(n=grid.n, k=k, alpha=alpha, beta=beta, g=g)


@st.composite
def configs(draw, graph_paths):
    """A config's pieces, config_text's arguments; override is set where the
    profile fails its validator."""
    grid = draw(st.sampled_from(GRIDS))
    profile = draw_profile(draw, grid)

    kind = draw(st.sampled_from(sorted(INITIAL_KINDS)))
    if kind == "sphere":
        initial = SphereInitial(draw(finite(0.5, 2.0)))
    elif kind == "fourier":
        variable = draw(st.sampled_from(("r", "phi")))
        const = draw(finite(0.9, 1.1) if variable == "r" else finite(-0.1, 0.1))
        sin_terms = draw(terms()) if grid.n == 1 else ()  # no sin_* on S^2
        initial = FourierInitial(const, variable, draw(terms()), sin_terms)
    else:
        initial = FileInitial(graph_paths[grid])
    assert set(INITIAL_KINDS) == {"sphere", "fourier", "file"}  # one branch per kind

    control = StepControl(
        t_end=draw(finite(1e-3, 10.0)),
        dt_max=draw(finite(1e-4, 2.0)),
        sphericity_stop=draw(finite(0.0, 1e-2)),
        max_steps=draw(st.integers(1, 10**18)),
        record_every=draw(st.integers(1, 1000)),
    )
    path = st.none() | st.text(alphabet="abcxyz_./", min_size=1, max_size=12).map(str.strip).filter(bool)
    return dict(
        profile=profile,
        grid=grid,
        initial=initial,
        control=control,
        override=draw(st.booleans()) or not validate_for_regime(profile).ok,
        csv_path=draw(path),
        checkpoint_path=draw(path),
    )


def test_every_grid_kind_is_fuzzed():
    assert {grid.n for grid in GRIDS} == set(GRID_KINDS)


@FUZZ
@given(data=st.data())
def test_config_text_round_trips(graph_paths, config_text, data):
    drawn = data.draw(configs(graph_paths))
    cfg, state = parse_config_state(config_text(**drawn))
    assert state.profile == drawn["profile"]
    # a bit-exactly zonal sphere graph starts on its column
    expected = reduce_zonal(drawn["initial"].graph(drawn["grid"]))
    assert state.graph.grid == expected.grid and state.graph.phi.tobytes() == expected.phi.tobytes()
    assert cfg == RunConfig(drawn["control"], drawn["csv_path"], drawn["checkpoint_path"])


@FUZZ
@given(data=st.data())
def test_corrupted_config_text_is_a_config_error(graph_paths, config_text, data):
    lines = config_text(**data.draw(configs(graph_paths))).splitlines()
    keyed = [i for i, line in enumerate(lines) if "=" in line]
    how = data.draw(st.sampled_from(("drop", "junk", "duplicate")))
    i = data.draw(st.sampled_from(keyed if how != "drop" else range(len(lines))))
    if how == "drop":
        del lines[i]
    elif how == "junk":
        lines[i] = lines[i].split("=", 1)[0] + "= " + data.draw(JUNK)
    else:
        lines.insert(i + data.draw(st.integers(0, 1)), lines[i])
    try:
        parse_config_state("\n".join(lines) + "\n")
    except ConfigError:
        return
    assert how != "duplicate"


@st.composite
def states(draw):
    """A FlowState of any profile, on any grid, with any finite phi."""
    grid = draw(st.sampled_from(GRIDS))
    profile = draw_profile(draw, grid)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graph = RadialGraph(grid, rng.normal(0.0, draw(finite(0.0, 2.0)), grid.shape))
    tau, last_dt = draw(finite(0.0, 1e3)), draw(finite(0.0, 1.0))
    return FlowState(tau=tau, graph=graph, step_count=draw(st.integers(0, 10**18)), last_dt=last_dt, profile=profile)


@pytest.fixture(scope="module")
def texts(tmp_path_factory):
    return tmp_path_factory.mktemp("texts")


@FUZZ
@given(data=st.data())
def test_checkpoint_and_graph_texts_round_trip(texts, data):
    state = data.draw(states())
    save_checkpoint(state, texts / "state.ckpt")
    loaded = load_checkpoint(texts / "state.ckpt")
    assert loaded.profile == state.profile
    # a bit-exactly zonal sphere graph loads on its column, which writes the same text
    expected = reduce_zonal(state.graph)
    assert loaded.graph.grid == expected.grid and loaded.graph.phi.tobytes() == expected.phi.tobytes()
    assert [x.hex() for x in (loaded.tau, loaded.last_dt)] == [x.hex() for x in (state.tau, state.last_dt)]
    assert loaded.step_count == state.step_count
    save_checkpoint(loaded, texts / "again.ckpt")
    assert (texts / "again.ckpt").read_bytes() == (texts / "state.ckpt").read_bytes()

    save_graph(state.graph, texts / "state.graph")
    graph = load_graph(texts / "state.graph")
    assert graph.grid == state.graph.grid and graph.phi.tobytes() == state.graph.phi.tobytes()
    save_graph(graph, texts / "again.graph")
    assert (texts / "again.graph").read_bytes() == (texts / "state.graph").read_bytes()


@FUZZ
@given(data=st.data())
def test_corrupted_checkpoint_and_graph_texts_are_value_errors(texts, data):
    state = data.draw(states())
    form = data.draw(st.sampled_from(("checkpoint", "graph")))
    path = texts / form
    save_checkpoint(state, path) if form == "checkpoint" else save_graph(state.graph, path)
    lines = path.read_text().splitlines()
    keyed = [i for i, line in enumerate(lines) if "=" in line]
    rows = [i for i, line in enumerate(lines) if "," in line]  # graph and table rows
    how = data.draw(st.sampled_from(("drop", "junk", "duplicate", "cut")))
    i = data.draw(st.sampled_from({"drop": range(len(lines)), "junk": keyed, "duplicate": keyed + rows, "cut": rows}[how]))
    in_table = "[table]" in lines and lines.index("[table]") < i < lines.index("[state]")
    if how == "drop":
        del lines[i]
    elif how == "junk":
        lines[i] = lines[i].split("=", 1)[0] + "= " + data.draw(JUNK)
    elif how == "duplicate":
        lines.insert(i + data.draw(st.integers(0, 1)), lines[i])
    else:
        lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i]) - 1))]
    path.write_text("\n".join(lines) + "\n")
    try:
        load_checkpoint(path) if form == "checkpoint" else load_graph(path)
    except ValueError:
        return
    # what may still load: another value, a shorter row, a table one row shorter
    assert how in ("junk", "cut") or (how == "drop" and in_table)


@pytest.mark.parametrize(
    "initial",
    [
        "kind = fourier\nsin_2 = inf",  # inf * sin(0) is nan, with a warning
        "kind = fourier\nconst = nan",
        "kind = fourier\nconst = 1e308\ncos_1 = 1e308",  # the sum overflows, with a warning
        "kind = fourier\ncos_² = 1",  # a digit that int() rejects
        "kind = file\npath = no/such/file",
        "kind = sphere\nr0 = 1\ncos_2 = 0.3",  # a term the kind does not read
    ],
)
def test_bad_initial_data_is_a_config_error(initial):
    text = (
        "[profile]\nn = 1\nk = 1\nalpha = 1\nbeta = 2\ng.kind = zero\n[grid]\nN = 16\n"
        f"[initial]\n{initial}\n[control]\nt_end = 1\n"
    )
    with pytest.raises(ConfigError) as exc:
        parse_config_state(text)
    assert all("[initial]" in e for e in exc.value.errors), exc.value.errors
