"""Config parsing, the run/verify/ode-compare subcommands, and their exit codes."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import anisoflow.sphere_geometry
import anisoflow.symfunc
import anisoflow.textform
from anisoflow.cli import main
from anisoflow.flow_engine import (
    STEP_FRACTION,
    AdmissibilityError,
    DegenerateMetricError,
    StepControl,
    initial_state,
    run,
    stable_dt_bound,
)
from anisoflow.sphere_geometry import RadialGraph, SphericalGrid, is_zonal, sphere_graph
from anisoflow.speed_profile import (
    G_KINDS,
    ExpFlatG,
    MonomialG,
    SpeedProfile,
    TabulatedG,
    ZeroG,
    eval_g,
)
from anisoflow.textform import (
    ConfigError,
    FourierInitial,
    RunConfig,
    SphereInitial,
    load_checkpoint,
    load_series,
    parse_config_state,
    save_checkpoint,
    save_graph,
)


BASIC = """\
[profile]
n = 1
k = 1
alpha = 1
beta = 2
g.kind = zero

[grid]
N = 64

[initial]
kind = sphere
r0 = 1.0

[control]
t_end = 0.5
"""


def errors_of(text):
    with pytest.raises(ConfigError) as exc:
        parse_config_state(text)
    return exc.value.errors


# ---------------------------------------------------------------------------
# parsing


def test_parse_minimal_config():
    cfg, state = parse_config_state(BASIC)
    assert state.profile.gamma == 1.0
    assert state.profile.equality_regime
    assert state.graph == sphere_graph(SphericalGrid.circle(64), 1.0)
    assert cfg.control.t_end == 0.5
    assert cfg.control.dt_max == 1.0  # defaults
    assert cfg.control.record_every == 10
    assert cfg.csv_path is None and cfg.checkpoint_path is None


def test_parse_comments_and_blank_lines():
    text = BASIC.replace("r0 = 1.0", "r0 = 1.0   # unit sphere\n\n# trailing comment")
    assert parse_config_state(text)[1].graph == sphere_graph(SphericalGrid.circle(64), 1.0)


def test_a_hash_starts_a_comment_only_at_a_line_start_or_after_whitespace(tmp_path):
    # one rule for every text: a '#' glued to a value is the value's, so a
    # path keeps it and a number fails, where both were silently cut short
    text = BASIC + "[output]\ncsv_path = out#1.csv\t# tab, then a comment\n"
    assert parse_config_state(text)[0].csv_path == "out#1.csv"
    assert errors_of(BASIC.replace("t_end = 0.5", "t_end = 3.0#x")) == ["line 16: [control] t_end: bad value '3.0#x'"]
    table = tmp_path / "table.csv"
    table.write_text("# r,value,derivative\n0,0,0 # origin\n\n0.5,1,2#x\n")
    text = BASIC.replace("g.kind = zero", f"g.kind = tabulated\ng.table_path = {table}")
    # a bad row names its line: in the table file, or in the text
    assert errors_of(text) == ["[profile] g.table_path: line 4: bad table row '0.5,1,2#x' (want 'r,value,derivative')"]
    assert errors_of(BASIC.replace("g.kind = zero", "g.kind = tabulated\n[table]\n0,0,0\n0.5,1,2#x")) == [
        "line 9: [table] bad table row '0.5,1,2#x' (want 'r,value,derivative')"
    ]


def test_alpha_family_error_reaches_config():
    text = BASIC.replace("n = 1\nk = 1\nalpha = 1\nbeta = 2", "n = 2\nk = 2\nalpha = 0.7\nbeta = 4").replace(
        "N = 64", "n_lat = 16\nn_lon = 32"
    )
    errs = errors_of(text)
    assert any("1/k or alpha >= 1" in e for e in errs)


def test_inadmissible_profile_needs_override():
    text = BASIC.replace("g.kind = zero", "g.kind = monomial\ng.l = 1")
    errs = errors_of(text)
    assert any("override = true to force" in e and "scaling" in e for e in errs)
    forced = text.replace("t_end = 0.5", "t_end = 0.5\noverride = true")
    assert parse_config_state(forced)[1].profile.g == MonomialG(1)


def test_unknown_section_key_and_duplicate_report_line_numbers():
    text = BASIC + "\n[bogus]\nx = 1\n"
    errs = errors_of(text)
    assert any("unknown section [bogus]" in e for e in errs)

    text = BASIC.replace("N = 64", "N = 64\nspacing = 3")
    errs = errors_of(text)
    assert "line 10: [grid] spacing: not valid for n=1 (use N)" in errs

    text = BASIC + "\n[output]\ncsv_path = x.csv\nplot_path = x.svg\n"
    assert errors_of(text) == ["line 20: unknown key 'plot_path' in [output]"]

    text = BASIC.replace("t_end = 0.5", "t_end = 0.5\nt_end = 0.7")
    errs = errors_of(text)
    assert any("duplicate key 't_end'" in e for e in errs)


@pytest.mark.parametrize("key", ["cos_0", "cos_02", "sin_x", "r0"])
def test_a_key_the_initial_kind_does_not_take_is_an_error_at_its_line(key):
    # not series terms (m = 0, a leading zero, not digits), or another kind's field
    text = BASIC.replace("kind = sphere\nr0 = 1.0", f"kind = fourier\ncos_2 = 0.1\n{key} = 0.1")
    assert errors_of(text) == [f"line 14: [initial] {key}: not valid for kind=fourier"]


def test_a_key_the_g_kind_does_not_take_is_an_error_at_its_line():
    text = BASIC.replace("beta = 2\ng.kind = zero", "beta = 3\ng.kind = expflat\ng.p = 1\ng.l = 2")
    assert errors_of(text) == ["line 8: [profile] g.l: not valid for g.kind=expflat"]


def test_a_checkpoint_state_key_that_matches_no_field_is_an_error_at_its_line(tmp_path):
    state = initial_state(SpeedProfile(1, 1, 1.0, 2.0, ZeroG()), sphere_graph(SphericalGrid.circle(16), 1.0))
    path = tmp_path / "state.chk"
    save_checkpoint(state, path)
    lines = path.read_text().splitlines()
    at = lines.index("[state]") + 1
    lines.insert(at, "steps = 3")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as exc:
        load_checkpoint(path)
    assert exc.value.errors == [f"line {at + 1}: unknown key 'steps' in [state]"]


def test_multiple_errors_collected():
    text = BASIC.replace("alpha = 1", "alpha = banana").replace("r0 = 1.0", "r0 = -2").replace(
        "t_end = 0.5", "t_end = -1"
    )
    errs = errors_of(text)
    assert len(errs) >= 3
    assert any("bad value 'banana'" in e for e in errs)
    assert any("r0" in e and "positive" in e for e in errs)
    assert any("t_end" in e for e in errs)


def test_bool_keys_are_strict():
    text = BASIC.replace("t_end = 0.5", "t_end = 0.5\noverride = yes")
    errs = errors_of(text)
    assert any("override" in e and "bad value" in e for e in errs)


def test_grid_keys_must_match_dimension():
    errs = errors_of(BASIC.replace("N = 64", "N = 64\nn_lat = 16"))
    assert any("not valid for n=1" in e for e in errs)
    errs = errors_of(BASIC.replace("N = 64", "n = 2\nN = 64"))
    assert any("does not match [profile] n" in e for e in errs)


def test_leftover_g_parameters_rejected():
    errs = errors_of(BASIC.replace("g.kind = zero", "g.kind = zero\ng.p = 1"))
    assert any("not valid for g.kind=zero" in e for e in errs)


@pytest.mark.parametrize(
    "old, new, errors",
    [
        ("g.kind = zero", "g.kind = cubic", ["[profile] g.kind: unknown kind 'cubic' (zero|expflat|monomial|tabulated)"]),
        ("g.kind = zero", "g.kind = bump", ["[profile] g.kind: unknown kind 'bump' (zero|expflat|monomial|tabulated)"]),
        ("kind = sphere", "kind = cone", ["[initial] kind: unknown kind 'cone' (sphere|fourier|file)", "line 13: [initial] r0: not valid for kind=cone"]),
        ("kind = sphere\nr0 = 1.0", "kind = fourier\nvariable = x", ["[initial] variable: must be 'r' or 'phi', got 'x'"]),
    ],
    ids=["g-kind", "g-kind-bump", "initial-kind", "variable"],
)
def test_an_unknown_kind_or_variable_is_named(old, new, errors):
    assert errors_of(BASIC.replace(old, new)) == errors


@pytest.mark.parametrize(
    "speed, message",
    [
        ("alpha = 1\nbeta = nan\ng.kind = zero", "[profile] alpha and beta must be finite"),
        ("alpha = 1\nbeta = inf\ng.kind = zero", "[profile] alpha and beta must be finite"),
        ("alpha = inf\nbeta = inf\ng.kind = zero", "[profile] alpha and beta must be finite"),
        ("alpha = 1\nbeta = 3\ng.kind = expflat\ng.p = inf", "[profile] g: p must be finite"),
        ("alpha = 1\nbeta = 2\ng.kind = expflat\ng.epsilon = inf\ng.p = 1", "[profile] g: epsilon must be finite and >= 0"),
    ],
)
def test_non_finite_speed_parameters_are_config_errors(speed, message):
    errs = errors_of(BASIC.replace("alpha = 1\nbeta = 2\ng.kind = zero", speed))
    assert any(message in e for e in errs), errs


def test_monomial_exponent_must_be_integer():
    monomial = BASIC.replace("beta = 2", "beta = 3").replace("g.kind = zero", "g.kind = monomial\ng.l = 4.5")
    errs = errors_of(monomial)
    assert any("[profile] g: monomial exponent must be an integer" in e for e in errs)
    assert parse_config_state(monomial.replace("g.l = 4.5", "g.l = 4.0"))[1].profile.g == MonomialG(4)


def test_control_keys_are_step_control_fields():
    assert parse_config_state(BASIC)[0].control == StepControl(t_end=0.5)  # every other field at its default
    errs = errors_of(BASIC.replace("t_end = 0.5", "t_end = 0.5\ndt_max = banana\nmax_steps = 1e5"))
    assert any("[control] dt_max: bad value 'banana'" in e for e in errs)
    assert any("[control] max_steps: bad value '1e5'" in e for e in errs)


def test_missing_required_keys():
    errs = errors_of(BASIC.replace("t_end = 0.5\n", ""))
    assert any("[control] t_end: required" in e for e in errs)
    errs = errors_of(BASIC.replace("r0 = 1.0\n", ""))
    assert any("[initial] r0: required" in e for e in errs)


# ---------------------------------------------------------------------------
# initial data


def fourier_config(extra):
    return BASIC.replace("kind = sphere\nr0 = 1.0", "kind = fourier\n" + extra)


def test_fourier_initial_builds_expected_radius():
    graph = parse_config_state(fourier_config("const = 1.0\ncos_2 = 0.3"))[1].graph
    theta = graph.grid.theta
    np.testing.assert_allclose(graph.r(), 1.0 + 0.3 * np.cos(2 * theta), rtol=1e-15)


def test_fourier_initial_variable_phi():
    graph = parse_config_state(fourier_config("variable = phi\nconst = 0.0\nsin_3 = 0.2"))[1].graph
    np.testing.assert_allclose(graph.phi, 0.2 * np.sin(3 * graph.grid.theta), rtol=1e-15)


def test_fourier_initial_must_stay_positive():
    errs = errors_of(fourier_config("const = 1.0\ncos_2 = 1.5"))
    assert any("must be positive" in e for e in errs)


def test_fourier_initial_radius_must_not_overflow(tmp_path, capsys):
    text = fourier_config("variable = phi\nconst = 800")
    errs = errors_of(text)
    assert any(e.startswith("[initial]") and "overflows" in e for e in errs)
    text += f"\n[output]\ncsv_path = {tmp_path / 'out.csv'}\n"
    assert main(["run", write_config(tmp_path, text)]) == 1
    assert "[initial] initial radius exp(phi) overflows" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def n2_config(initial):
    return (
        BASIC.replace("n = 1\nk = 1\nalpha = 1\nbeta = 2", "n = 2\nk = 1\nalpha = 1\nbeta = 2")
        .replace("N = 64", "n_lat = 16\nn_lon = 32")
        .replace("kind = sphere\nr0 = 1.0", initial)
    )


def test_n2_fourier_restrictions():
    errs = errors_of(n2_config("kind = fourier\nconst = 1.0\nsin_2 = 0.1"))
    assert any("not smooth across the poles" in e for e in errs)
    # cos(m theta) = T_m(cos theta) is smooth on S^2 for odd m too
    # a zonal initial state lives on its grid's zonal column
    graph = parse_config_state(n2_config("kind = fourier\nconst = 1.0\ncos_1 = 0.1\ncos_3 = 0.05"))[1].graph
    assert graph.grid == SphericalGrid.sphere(16, 32).zonal_column
    th = graph.grid.theta
    np.testing.assert_allclose(graph.phi[:, 0], np.log(1.0 + 0.1 * np.cos(th) + 0.05 * np.cos(3.0 * th)), rtol=0.0, atol=1e-15)
    full = FourierInitial(const=1.0, cos_terms=((2, 0.1),)).graph(SphericalGrid.sphere(16, 32))
    assert full.grid.shape == (16, 32) and is_zonal(full)  # zonal broadcast


def test_file_initial_roundtrip(tmp_path):
    grid = SphericalGrid.circle(64)
    save_graph(sphere_graph(grid, 1.25), tmp_path / "init.csv")
    text = BASIC.replace("kind = sphere\nr0 = 1.0", f"kind = file\npath = {tmp_path / 'init.csv'}")
    np.testing.assert_allclose(parse_config_state(text)[1].graph.r(), 1.25)


def test_file_initial_run_reads_the_file_once(tmp_path, monkeypatch, capsys):
    # parse_config_state's checked graph is the graph the run starts from
    save_graph(sphere_graph(SphericalGrid.circle(64), 1.25), tmp_path / "init.csv")
    reads = []
    load = anisoflow.textform.load_graph
    monkeypatch.setattr(anisoflow.textform, "load_graph", lambda path: reads.append(path) or load(path))
    text = BASIC.replace("kind = sphere\nr0 = 1.0", f"kind = file\npath = {tmp_path / 'init.csv'}")
    text += f"\n[output]\ncsv_path = {tmp_path / 'out.csv'}\n"
    assert main(["run", write_config(tmp_path, text)]) == 0
    assert reads == [str(tmp_path / "init.csv")]
    assert load_series(tmp_path / "out.csv").column("r_max")[0] == pytest.approx(1.25)


def test_file_initial_bad_header_is_config_error(tmp_path, capsys):
    (tmp_path / "init.csv").write_text("n=1\n")
    text = BASIC.replace("kind = sphere\nr0 = 1.0", f"kind = file\npath = {tmp_path / 'init.csv'}")
    text += f"\n[output]\ncsv_path = {tmp_path / 'out.csv'}\n"
    assert main(["run", write_config(tmp_path, text)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "[grid] n: required" in err


def test_file_initial_grid_mismatch(tmp_path):
    save_graph(sphere_graph(SphericalGrid.circle(32), 1.0), tmp_path / "init.csv")
    text = BASIC.replace("kind = sphere\nr0 = 1.0", f"kind = file\npath = {tmp_path / 'init.csv'}")
    errs = errors_of(text)
    assert any("does not match config grid" in e for e in errs)


# ---------------------------------------------------------------------------
# config texts written by the config_text fixture read back as their pieces


def test_format_roundtrip_basic(config_text):
    cfg, state = parse_config_state(BASIC)
    for control in (cfg.control, dataclasses.replace(cfg.control, max_steps=10**17)):
        text = config_text(state.profile, SphericalGrid.circle(64), SphereInitial(r0=1.0), control)
        again, again_state = parse_config_state(text)
        assert again == RunConfig(control)
        assert again_state.profile == state.profile and again_state.graph == state.graph


def test_format_roundtrip_rich_config(tmp_path, config_text):
    text = (
        BASIC.replace("g.kind = zero", "g.kind = expflat\ng.epsilon = 0.5\ng.p = 2")
        .replace("kind = sphere\nr0 = 1.0", "kind = fourier\nconst = 1.1\ncos_2 = 0.25\nsin_3 = -0.1")
        .replace(
            "t_end = 0.5",
            "t_end = 2.5\ndt_max = 0.1\nsphericity_stop = 1e-4\nmax_steps = 12345\nrecord_every = 3",
        )
        + f"\n[output]\ncsv_path = {tmp_path / 'out.csv'}\ncheckpoint_path = {tmp_path / 'out.chk'}\n"
    )
    profile = SpeedProfile(n=1, k=1, alpha=1.0, beta=2.0, g=ExpFlatG(p=2.0, epsilon=0.5))
    grid = SphericalGrid.circle(64)
    initial = FourierInitial(const=1.1, cos_terms=((2, 0.25),), sin_terms=((3, -0.1),))
    control = StepControl(t_end=2.5, dt_max=0.1, sphericity_stop=1e-4, max_steps=12345, record_every=3)
    cfg = RunConfig(control, str(tmp_path / "out.csv"), str(tmp_path / "out.chk"))
    written = config_text(profile, grid, initial, control, csv_path=cfg.csv_path, checkpoint_path=cfg.checkpoint_path)
    for source in (text, written):
        again, state = parse_config_state(source)
        assert again == cfg
        assert state.profile == profile and state.graph == initial.graph(grid)


def test_format_roundtrip_tabulated(tmp_path, config_text):
    from anisoflow.speed_profile import ExpFlatG, SpeedProfile

    base = SpeedProfile(n=1, k=1, alpha=1.0, beta=4.0, g=ExpFlatG(1.0))
    pts = np.linspace(0.0, 4.0, 60)
    vals, ders = eval_g(base, pts)
    table = tmp_path / "table.csv"
    with open(table, "w") as fh:
        for row in zip(pts, vals, ders):
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
    # a 60-point table is too coarse for the differential-inequality check
    # near the flat origin (interpolation error ~1e-5), hence the override
    text = (
        BASIC.replace("beta = 2", "beta = 4")
        .replace("g.kind = zero", f"g.kind = tabulated\ng.table_path = {table}")
        .replace("t_end = 0.5", "t_end = 0.5\noverride = true")
    )
    cfg, state = parse_config_state(text)
    assert isinstance(state.profile.g, TabulatedG)
    # the file is read once; the same rows given in [table] read back the same g
    text = config_text(state.profile, SphericalGrid.circle(64), SphereInitial(r0=1.0), cfg.control, override=True)
    table.unlink()
    assert parse_config_state(text)[1].profile == state.profile


def test_format_roundtrip_tabulated_built_in_code(config_text):
    pts = np.linspace(0.0, 4.0, 9)
    g = TabulatedG(pts, pts**5, 5.0 * pts**4)
    profile = SpeedProfile(n=1, k=1, alpha=1.0, beta=4.0, g=g)
    text = config_text(profile, SphericalGrid.circle(32), SphereInitial(r0=1.0), StepControl(t_end=0.5), override=True)
    assert parse_config_state(text)[1].profile == profile


def test_table_is_a_file_or_rows_not_both(tmp_path):
    table = tmp_path / "table.csv"
    table.write_text("0,0,0\n1,1,5\n2,32,80\n")
    text = BASIC.replace("g.kind = zero", f"g.kind = tabulated\ng.table_path = {table}\n[table]\n0,0,0\n1,1,5")
    message = "a tabulated g's rows are in g.table_path's file or in [table], one of the two"
    assert errors_of(text) == ["[profile] g.table_path: " + message]
    assert errors_of(BASIC.replace("g.kind = zero", "g.kind = tabulated")) == ["[table] " + message]
    text = BASIC.replace("g.kind = zero", "g.kind = zero\n[table]\n0,0,0")
    assert errors_of(text) == ["line 8: [table] rows: not valid for g.kind=zero"]


def flat_table():
    base = SpeedProfile(n=1, k=1, alpha=1.0, beta=4.0, g=ExpFlatG(1.0))
    pts = np.linspace(0.0, 4.0, 60)
    return TabulatedG(pts, *eval_g(base, pts))


# one sample per kind: a kind added to G_KINDS without a sample fails below
G_SAMPLES = {
    "zero": ZeroG(),
    "expflat": ExpFlatG(p=2.0),
    "monomial": MonomialG(l=5.0),
    "tabulated": flat_table(),
}
# the samples and a bump, expflat with epsilon > 0, which writes a g.epsilon
# line that is not 0
G_CASES = {**G_SAMPLES, "bump": ExpFlatG(p=2.0, epsilon=0.5)}


@pytest.mark.parametrize("case", sorted(G_CASES))
def test_codecs_roundtrip_every_g_kind(tmp_path, case, config_text):
    assert set(G_SAMPLES) == set(G_KINDS)
    g = G_CASES[case]
    for grid in (SphericalGrid.circle(16), SphericalGrid.sphere(16, 32)):
        profile = SpeedProfile(n=grid.n, k=1, alpha=1.0, beta=4.0, g=g)
        state = initial_state(profile, sphere_graph(grid, 1.0), validate_regime=False)
        save_checkpoint(state, tmp_path / "state.chk")
        loaded = load_checkpoint(tmp_path / "state.chk")
        assert loaded.profile == profile and loaded.graph == state.graph
        # the text fixed point: a loaded checkpoint is saved to the same bytes
        save_checkpoint(loaded, tmp_path / "again.chk")
        assert (tmp_path / "again.chk").read_bytes() == (tmp_path / "state.chk").read_bytes()

        text = config_text(profile, grid, SphereInitial(r0=1.0), StepControl(t_end=0.5), override=True)
        parsed = parse_config_state(text)[1]
        assert parsed.profile == profile and parsed.graph == state.graph


def test_an_expflat_checkpoint_without_g_epsilon_loads_with_epsilon_0(tmp_path):
    # the [profile] written before expflat took epsilon has no g.epsilon line;
    # the field's default, 0, reads it as the same profile, and saving it
    # again writes the line
    graph = sphere_graph(SphericalGrid.circle(16), 1.0)
    save_graph(graph, tmp_path / "graph.txt")
    head = "[profile]\nn = 1\nk = 1\nalpha = 1\nbeta = 4\ng.kind = expflat\ng.p = 2\n[state]\ntau = 0\nstep_count = 0\nlast_dt = 0\n"
    (tmp_path / "old.chk").write_text(head + (tmp_path / "graph.txt").read_text())
    loaded = load_checkpoint(tmp_path / "old.chk")
    assert loaded.profile == SpeedProfile(n=1, k=1, alpha=1.0, beta=4.0, g=ExpFlatG(p=2.0))
    assert loaded.graph == graph
    save_checkpoint(loaded, tmp_path / "new.chk")
    written = (tmp_path / "old.chk").read_text().replace("g.p = 2\n", "g.p = 2\ng.epsilon = 0\n")
    assert (tmp_path / "new.chk").read_text() == written


def test_bad_table_rejected(tmp_path):
    table = tmp_path / "table.csv"
    table.write_text("0,0\n")
    text = BASIC.replace("g.kind = zero", f"g.kind = tabulated\ng.table_path = {table}")
    errs = errors_of(text)
    assert any("want 'r,value,derivative'" in e for e in errs)
    table.write_text("0,0,0\n")
    errs = errors_of(text)
    assert any("at least 2 rows" in e for e in errs)


# ---------------------------------------------------------------------------
# subcommands


def write_config(tmp_path, text):
    path = tmp_path / "flow.cfg"
    path.write_text(text)
    return str(path)


def test_run_end_to_end(tmp_path, capsys):
    csv = tmp_path / "diag.csv"
    chk = tmp_path / "state.chk"
    text = (
        BASIC.replace("kind = sphere\nr0 = 1.0", "kind = fourier\nconst = 1.0\ncos_2 = 0.1")
        .replace("t_end = 0.5", "t_end = 1.0\nrecord_every = 5")
        + f"\n[output]\ncsv_path = {csv}\ncheckpoint_path = {chk}\n"
    )
    code = main(["run", write_config(tmp_path, text)])
    out = capsys.readouterr().out
    assert code == 0
    assert "reason=t_end" in out and "osc_decay_rate=" in out
    series = load_series(csv)
    assert series.last("tau") == pytest.approx(1.0, abs=1e-12)
    assert series.column("osc")[-1] < series.column("osc")[0]
    state = load_checkpoint(chk)
    assert state.tau == pytest.approx(1.0, abs=1e-12)


def test_run_scans_a_zonal_config_for_zonality_once(tmp_path, monkeypatch, capsys):
    # the config's initial state is made once, by initial_state, and run as given
    calls = []
    scan = anisoflow.sphere_geometry.is_zonal
    monkeypatch.setattr(anisoflow.sphere_geometry, "is_zonal", lambda graph: calls.append(graph) or scan(graph))
    text = (
        BASIC.replace("n = 1\nk = 1\nalpha = 1\nbeta = 2", "n = 2\nk = 2\nalpha = 1\nbeta = 3")
        .replace("N = 64", "n_lat = 16\nn_lon = 32")
        .replace("kind = sphere\nr0 = 1.0", "kind = fourier\nconst = 1.0\ncos_2 = 0.05")
        .replace("t_end = 0.5", "t_end = 0.01")
        + f"\n[output]\ncsv_path = {tmp_path / 'diag.csv'}\n"
    )
    assert main(["run", write_config(tmp_path, text)]) == 0
    assert "reason=t_end" in capsys.readouterr().out
    assert len(calls) == 1


def test_run_requires_csv_path(tmp_path, capsys):
    code = main(["run", write_config(tmp_path, BASIC)])
    assert code == 1
    assert "csv_path is required" in capsys.readouterr().err


def test_run_rejects_unwritable_output_before_integrating(tmp_path, capsys):
    text = BASIC + "\n[output]\ncsv_path = /no-such-dir/x.csv\n"
    code = main(["run", write_config(tmp_path, text)])
    assert code == 1
    assert "not writable" in capsys.readouterr().err


def test_run_reports_cone_violation(tmp_path, capsys):
    # pinched dumbbell under a 2-convex flow: the gate trips on the first step
    text = (
        BASIC.replace("n = 1\nk = 1\nalpha = 1\nbeta = 2", "n = 2\nk = 2\nalpha = 1\nbeta = 4")
        .replace("N = 64", "n_lat = 16\nn_lon = 32")
        .replace("kind = sphere\nr0 = 1.0", "kind = fourier\nconst = 1.0\ncos_2 = 0.7")
        + f"\n[output]\ncsv_path = {tmp_path / 'x.csv'}\n"
    )
    code = main(["run", write_config(tmp_path, text)])
    err = capsys.readouterr().err
    assert code == 2
    assert "cone margin" in err and err.count("node") == 1


def test_run_from_outside_the_cone_exits_2_without_a_warning(tmp_path, capsys):
    # alpha = 1/2 on a curve with a concave waist: the tau = 0 record forms
    # sigma_1^alpha before the cone gate trips
    text = (
        BASIC.replace("alpha = 1\nbeta = 2", "alpha = 0.5\nbeta = 1.5")
        .replace("kind = sphere\nr0 = 1.0", "kind = fourier\ncos_2 = 0.3")
        + f"\n[output]\ncsv_path = {tmp_path / 'x.csv'}\n"
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", write_config(tmp_path, text)])
    assert code == 2 and not caught
    assert "run failed: cone margin" in capsys.readouterr().err
    series = load_series(tmp_path / "x.csv")
    assert np.isfinite([series.column(name) for name in ("phi_min_cap", "phi_max_cap")]).all()


def test_a_run_that_leaves_the_cone_keeps_its_records_and_state(tmp_path, capsys):
    # alpha = 2 on a three-lobed curve: the gate trips on the first step
    text = (
        BASIC.replace("alpha = 1\nbeta = 2", "alpha = 2\nbeta = 3")
        .replace("kind = sphere\nr0 = 1.0", "kind = fourier\ncos_3 = 0.5")
        + f"\n[output]\ncsv_path = {tmp_path / 'x.csv'}\ncheckpoint_path = {tmp_path / 'x.chk'}\n"
    )
    assert main(["run", write_config(tmp_path, text)]) == 2
    assert capsys.readouterr().err.startswith("run failed: cone margin -1.594e+01")
    assert len(load_series(tmp_path / "x.csv")) == 1
    assert load_checkpoint(tmp_path / "x.chk").tau == 0.0


def test_a_run_past_the_float_range_of_lam_exits_2_with_its_records(tmp_path, capsys):
    # an admissible flat g: lam = exp(tau) leaves the float range at tau = 709.78
    text = (
        BASIC.replace("beta = 2\ng.kind = zero", "beta = 3\ng.kind = expflat\ng.p = 1")
        .replace("N = 64", "N = 16")
        .replace("kind = sphere\nr0 = 1.0", "kind = fourier\ncos_2 = 0.1")
        .replace("t_end = 0.5", "t_end = 800")
        + f"\n[output]\ncsv_path = {tmp_path / 'x.csv'}\n"
    )
    assert main(["run", write_config(tmp_path, text)]) == 2
    assert capsys.readouterr().err.startswith("run failed: normalization factor lam = exp(gamma*tau) overflows at tau=709.78")
    assert load_series(tmp_path / "x.csv").last("tau") > 700.0


def test_run_reports_tabulated_g_leaving_its_table(tmp_path, capsys):
    # strict regime: lam = exp(tau) grows while r stays near 1, so r/lam
    # leaves the table [0.5, 3] before tau = ln 2 (at tau = 0.5165)
    table = tmp_path / "table.csv"
    table.write_text("".join(f"{r},{r**5},{5 * r**4}\n" for r in np.linspace(0.5, 3.0, 11)))
    text = (
        BASIC.replace("beta = 2", "beta = 3")
        .replace("g.kind = zero", f"g.kind = tabulated\ng.table_path = {table}")
        .replace("t_end = 0.5", "t_end = 2.0\noverride = true")
        + f"\n[output]\ncsv_path = {tmp_path / 'x.csv'}\ncheckpoint_path = {tmp_path / 'x.chk'}\n"
    )
    code = main(["run", write_config(tmp_path, text)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("run failed: tabulated g queried outside [0.5, 3.0]")
    tau = float(err.split("at tau=")[1].rstrip(")\n"))
    assert 0.5 < tau < math.log(2.0)
    # the failed run keeps the records it made before the failure
    taus = load_series(tmp_path / "x.csv").column("tau")
    assert len(taus) > 1 and taus[0] == 0.0
    assert taus[-1] < tau
    # and the state the failing step started from, at the reported tau
    last = load_checkpoint(tmp_path / "x.chk")
    assert f"{last.tau:.6g}" == f"{tau:.6g}" and last.step_count > 0


@pytest.mark.parametrize(
    "profile, grid_keys, grid",
    [
        ("n = 1\nk = 1\nalpha = 1\nbeta = 3\ng.kind = monomial\ng.l = 5", "N = 64", SphericalGrid.circle(64)),
        ("n = 2\nk = 1\nalpha = 1\nbeta = 2\ng.kind = zero", "n_lat = 16\nn_lon = 32", SphericalGrid.sphere(16, 32)),
        ("n = 1\nk = 1\nalpha = 1\nbeta = 2\ng.kind = zero", "N = 64", SphericalGrid.circle(64)),
    ],
    ids=["n1-monomial", "n2", "n1-zero"],
)
def test_run_reports_a_radius_underflowing_to_zero(tmp_path, capsys, profile, grid_keys, grid):
    # exp(-800) == 0.0 at one node: the metric check rejects it before any division
    phi = np.zeros(grid.shape)
    phi[(3,) * phi.ndim] = -800.0
    save_graph(RadialGraph(grid, phi), tmp_path / "init.csv")
    text = (
        BASIC.replace("n = 1\nk = 1\nalpha = 1\nbeta = 2\ng.kind = zero", profile)
        .replace("N = 64", grid_keys)
        .replace("kind = sphere\nr0 = 1.0", f"kind = file\npath = {tmp_path / 'init.csv'}")
        + f"\n[output]\ncsv_path = {tmp_path / 'x.csv'}\n"
    )
    code = main(["run", write_config(tmp_path, text)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("run failed: metric lost positivity") and err.endswith("(at tau=0)\n")
    # the library's error, which carries the records so far (none) and the state
    cfg, state = parse_config_state(text)
    with pytest.raises(DegenerateMetricError, match="^metric lost positivity") as exc:
        run(state, cfg.control)
    assert exc.value.tau == 0.0 and len(exc.value.series) == 0 and exc.value.state is state


def test_run_records_a_finite_speed_where_r_to_the_beta_overflows(tmp_path, capsys):
    # phi = 400: r^2 overflows, Phi = r^2 * (1/r) = e^400 does not, and every
    # sphere is a fixed point here (beta = 1 + k*alpha); pyproject turns an
    # overflow warning into an error
    text = (
        BASIC.replace("kind = sphere\nr0 = 1.0", "kind = fourier\nvariable = phi\nconst = 400")
        + f"\n[output]\ncsv_path = {tmp_path / 'x.csv'}\n"
    )
    assert main(["run", write_config(tmp_path, text)]) == 0
    assert "reason=t_end" in capsys.readouterr().out
    series = load_series(tmp_path / "x.csv")
    for column in ("phi_min_cap", "phi_max_cap"):
        np.testing.assert_allclose(series.column(column), math.exp(400.0), rtol=1e-12)


def test_run_reports_a_flat_speed_past_the_float_range(tmp_path, capsys):
    # the same sphere with g = r^2 exp(-1/r): lam^beta g(r/lam) = e^800 at tau = 0
    text = (
        BASIC.replace("g.kind = zero", "g.kind = expflat\ng.p = 1")
        .replace("kind = sphere\nr0 = 1.0", "kind = fourier\nvariable = phi\nconst = 400")
        .replace("t_end = 0.5", "t_end = 0.5\noverride = true")
        + f"\n[output]\ncsv_path = {tmp_path / 'x.csv'}\n"
    )
    assert main(["run", write_config(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run failed: rescaled g overflows: lam=1.0, r=") and err.endswith("(at tau=0)\n")


def test_run_reports_a_monomial_speed_past_the_float_range(tmp_path, capsys):
    # g = r^4 with beta = 3 on a sphere at phi = 178: lam^beta g(r/lam) = e^712 at tau = 0
    text = (
        BASIC.replace("beta = 2\ng.kind = zero", "beta = 3\ng.kind = monomial\ng.l = 4")
        .replace("kind = sphere\nr0 = 1.0", "kind = fourier\nvariable = phi\nconst = 178")
        .replace("t_end = 0.5", "t_end = 0.5\noverride = true")
        + f"\n[output]\ncsv_path = {tmp_path / 'x.csv'}\n"
    )
    assert main(["run", write_config(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err == f"run failed: rescaled g overflows: lam=1.0, r={math.exp(178.0)!r} (at tau=0)\n"


def test_run_accepts_a_monomial_whose_power_overflows_past_r_3(tmp_path, capsys):
    # g = r^638 with beta = 3 is admissible: the validator reads the kind's
    # conditions off its formula and evaluates no r^638 past the float range
    text = BASIC.replace("beta = 2\ng.kind = zero", "beta = 3\ng.kind = monomial\ng.l = 638") + (
        f"\n[output]\ncsv_path = {tmp_path / 'x.csv'}\n"
    )
    assert main(["run", write_config(tmp_path, text)]) == 0
    assert "reason=t_end" in capsys.readouterr().out


def test_run_bad_config_exit_code(tmp_path, capsys):
    code = main(["run", write_config(tmp_path, BASIC.replace("r0 = 1.0", "r0 = -2"))])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    # a nan stop would otherwise switch the stop off silently
    code = main(["run", write_config(tmp_path, BASIC.replace("t_end = 0.5", "t_end = 0.5\nsphericity_stop = nan"))])
    assert code == 1
    assert "config error: [control] sphericity_stop must be >= 0" in capsys.readouterr().err
    # the engine owns its step fraction: a config asks for a smaller step through dt_max
    code = main(["run", write_config(tmp_path, BASIC + "cfl = 0.8\n")])
    assert code == 1
    assert "unknown key 'cfl' in [control]" in capsys.readouterr().err


def test_verify_all(capsys):
    code = main(["verify", "all"])
    out = capsys.readouterr().out
    assert code == 0
    for name in ("symfunc", "oracle", "profiles", "sphere-ode"):
        assert f"{name}: PASS" in out


def test_verify_single_suite(capsys):
    code = main(["verify", "symfunc"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("symfunc: PASS")


def test_verify_unknown_target(capsys):
    code = main(["verify", "no-such-suite"])
    assert code == 1
    assert "unknown suite" in capsys.readouterr().err


def test_verify_detects_broken_identity(monkeypatch, capsys):
    # sabotage the partial derivatives: the identity suite must catch it
    real = anisoflow.symfunc.sigma_k_partials

    def wrong(kappa, k):
        return -real(kappa, k)

    monkeypatch.setattr(anisoflow.symfunc, "sigma_k_partials", wrong)
    code = main(["verify", "symfunc"])
    out = capsys.readouterr().out
    assert code == 3
    assert "symfunc: FAIL" in out


def test_verify_config_path_reports_conditions(tmp_path, capsys):
    path = write_config(tmp_path, BASIC)
    code = main(["verify", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "profile regime: equality" in out
    assert "scaling: PASS" in out

    bad = BASIC.replace("g.kind = zero", "g.kind = monomial\ng.l = 1").replace(
        "t_end = 0.5", "t_end = 0.5\noverride = true"
    )
    code = main(["verify", write_config(tmp_path, bad)])
    out = capsys.readouterr().out
    assert code == 3
    assert "scaling: FAIL" in out


def test_a_table_narrower_than_the_validator_samples_fails_typed(tmp_path, capsys):
    # the table [0.5, 2] does not start at 0, which fails origin_interval;
    # nothing queries g outside the table
    table = tmp_path / "table.csv"
    table.write_text("".join(f"{r},{r**5},{5 * r**4}\n" for r in np.linspace(0.5, 2.0, 7)))
    text = BASIC.replace("beta = 2", "beta = 3").replace("g.kind = zero", f"g.kind = tabulated\ng.table_path = {table}")
    message = (
        "[profile] fails its regime validator (condition 'origin_interval', "
        "worst violation 5.000e-01); set [control] override = true to force"
    )
    assert errors_of(text) == [message]
    assert main(["run", write_config(tmp_path, text)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert main(["verify", write_config(tmp_path, text)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"

    forced = text.replace("t_end = 0.5", "t_end = 0.5\noverride = true")
    state = parse_config_state(forced)[1]
    with pytest.raises(AdmissibilityError, match="'origin_interval'"):
        initial_state(state.profile, state.graph)
    assert main(["verify", write_config(tmp_path, forced)]) == 3
    out = capsys.readouterr().out
    assert "origin_interval: FAIL worst=5.000e-01 at r=0.5" in out
    assert "scaling: PASS" in out


@pytest.mark.parametrize("lo, worst", [(0.0, "4.000e-06"), (0.005, "5.000e-03")], ids=["r6", "shifted"])
def test_a_table_whose_origin_interval_fails_is_a_config_error(tmp_path, capsys, lo, worst):
    # (r - lo)^6 on [lo, 3], 301 rows, beta = 4: nonnegative and scaling pass,
    # but the first cubic (lo = 0) is not zero, or the table misses the origin
    table = tmp_path / "table.csv"
    pts = np.linspace(lo, 3.0, 301)
    np.savetxt(table, np.column_stack((pts, (pts - lo) ** 6, 6.0 * (pts - lo) ** 5)), fmt="%.17g", delimiter=",")
    text = BASIC.replace("beta = 2", "beta = 4").replace("g.kind = zero", f"g.kind = tabulated\ng.table_path = {table}")
    assert errors_of(text) == [
        f"[profile] fails its regime validator (condition 'origin_interval', worst violation {worst}); "
        "set [control] override = true to force"
    ]
    assert main(["verify", write_config(tmp_path, text + "override = true\n")]) == 3
    out = capsys.readouterr().out
    assert f"origin_interval: FAIL worst={worst} at r={lo:g}" in out
    assert out.count("FAIL") == 1


def test_ode_compare_strict_regime(tmp_path, capsys):
    text = BASIC.replace("beta = 2", "beta = 3").replace("r0 = 1.0", "r0 = 2.0").replace(
        "t_end = 0.5", f"t_end = {math.log(2.0)!r}"
    )
    code = main(["ode-compare", write_config(tmp_path, text)])
    out = capsys.readouterr().out
    assert code == 0
    assert "closed_form_radius_at_t_end=1.33333333" in out
    # second order in time: about 4x less per halving of dt from the first
    # step's STEP_FRACTION of the stability limit (measured 4.67e-6, 1.17e-6
    # and 2.93e-7 at the default, then dt_max at 1/2 and 1/4 of that step)
    first_dt = STEP_FRACTION * stable_dt_bound(parse_config_state(text)[1])
    deviations = [float(out.split("max_relative_deviation=")[1].split()[0])]
    for dt_max in (first_dt / 2.0, first_dt / 4.0):
        assert main(["ode-compare", write_config(tmp_path, text + f"dt_max = {dt_max!r}\n")]) == 0
        deviations.append(float(capsys.readouterr().out.split("max_relative_deviation=")[1].split()[0]))
    assert deviations[0] <= 1e-5
    assert deviations[0] >= 3.5 * deviations[1] and deviations[1] >= 3.5 * deviations[2], deviations
    # sphere data starts round: a sphericity stop would end the run at once, so it is ignored
    assert main(["ode-compare", write_config(tmp_path, text + "sphericity_stop = 1e-3\n")]) == 0
    assert capsys.readouterr().out == out


def test_ode_compare_honours_override(tmp_path, capsys):
    text = BASIC.replace("g.kind = zero", "g.kind = monomial\ng.l = 1").replace(
        "t_end = 0.5", "t_end = 0.5\noverride = true"
    )
    code = main(["ode-compare", write_config(tmp_path, text)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "max_relative_deviation=" in captured.out


def test_ode_compare_reports_a_failed_run(tmp_path, capsys):
    # the round sphere grows out of its tabulated g's table: the run fails
    text = (
        BASIC.replace("beta = 2\ng.kind = zero", "beta = 3\ng.kind = tabulated\n[table]\n0.5,0,0\n1,0.1,0.3\n3,5,9")
        .replace("N = 64", "N = 32")
        .replace("t_end = 0.5", "t_end = 1\noverride = true")
    )
    assert main(["ode-compare", write_config(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ode-compare failed: tabulated g queried outside [0.5, 3.0] (at tau=0.658468)\n"


def test_ode_compare_requires_sphere(tmp_path, capsys):
    text = fourier_config("const = 1.0\ncos_2 = 0.1")
    code = main(["ode-compare", write_config(tmp_path, text)])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "config error: ode-compare: the sphere ODE starts from round data at tau = 0, got radii in [0.9"
    )


def test_ode_compare_runs_round_fourier_data(tmp_path, capsys):
    # a fourier config with only const set is the round sphere of that radius
    sphere = BASIC.replace("beta = 2", "beta = 3").replace("r0 = 1.0", "r0 = 2.0")
    assert main(["ode-compare", write_config(tmp_path, sphere)]) == 0
    expected = capsys.readouterr().out
    assert main(["ode-compare", write_config(tmp_path, fourier_config("const = 2.0").replace("beta = 2", "beta = 3"))]) == 0
    assert capsys.readouterr().out == expected

