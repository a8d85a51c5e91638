"""Grids, covariant derivatives, curvature, and graph files."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from anisoflow.sphere_geometry import (
    D2_RADIUS,
    GRID_KINDS,
    CircleGrid,
    RadialGraph,
    SingularMetricError,
    SphericalGrid,
    SphereGrid,
    ZonalColumn,
    _d1,
    _d2,
    covariant_derivatives,
    embedding_oracle,
    expand_zonal,
    reduce_zonal,
    sphere_graph,
    weingarten,
)
from anisoflow.textform import load_graph, save_graph


def circle_graph(N, fn):
    grid = SphericalGrid.circle(N)
    return RadialGraph(grid, fn(grid.theta))


def sphere2_graph(n_lat, n_lon, fn):
    grid = SphericalGrid.sphere(n_lat, n_lon)
    t = grid.theta[:, None]
    p = grid.phi_lon[None, :]
    return RadialGraph(grid, np.broadcast_to(fn(t, p), grid.shape).copy())


# ---------------------------------------------------------------------------
# grids and graphs


def test_grid_constructors_and_spacing():
    c = SphericalGrid.circle(64)
    assert c.shape == (64,)
    assert c.h_theta == 2.0 * math.pi / 64
    assert repr(c) == "CircleGrid(N=64)"
    assert_allclose(c.theta[1] - c.theta[0], c.h_theta)

    s = SphericalGrid.sphere(32, 64)
    assert s.shape == (32, 64)
    assert s.h_theta == math.pi / 32
    assert s.h_phi == 2.0 * math.pi / 64
    assert repr(s) == "SphereGrid(n_lat=32, n_lon=64)"
    # cell-centered latitudes: no node on a pole, symmetric about the equator
    assert s.theta[0] == 0.5 * s.h_theta
    assert_allclose(s.theta + s.theta[::-1], math.pi)


def test_grid_validation():
    with pytest.raises(ValueError):
        SphericalGrid.circle(8)
    with pytest.raises(ValueError):
        SphericalGrid.sphere(8, 32)
    with pytest.raises(ValueError, match="even"):
        SphericalGrid.sphere(32, 33)
    # a non-integral size raises instead of truncating; numpy integers pass
    with pytest.raises(ValueError, match="integers"):
        SphericalGrid.circle(16.9)
    with pytest.raises(ValueError, match="integers"):
        SphericalGrid.sphere(32, 64.0)
    assert SphericalGrid.circle(np.int64(16)) == SphericalGrid.circle(16)
    assert SphericalGrid.sphere(np.int32(32), np.int64(64)).shape == (32, 64)
    # every kind stores its sizes as ints, the zonal column too
    with pytest.raises(ValueError, match="integers"):
        ZonalColumn(32, 64.0)
    assert type(ZonalColumn(np.int64(32), 64).n_lat) is int
    # and checks its sphere grid's minimums where it is made
    with pytest.raises(ValueError, match=r"^need at least 16 nodes per direction, got 4x33$"):
        ZonalColumn(4, 33)
    with pytest.raises(ValueError, match=r"^longitude count must be even for the pole rule, got 33$"):
        ZonalColumn(32, 33)
    with pytest.raises(TypeError, match="circle or SphericalGrid.sphere"):
        SphericalGrid(n=1, n_lat=64, n_lon=0)  # the kind is a class: no kindless grid


def test_a_grid_kind_fixes_its_dimension():
    # n is the kind's, not a constructor argument: a circle that called itself
    # 2-dimensional would pass initial_state's dimension check with a k = 2
    # profile and fail later in an IndexError
    with pytest.raises(TypeError):
        CircleGrid(n=2, N=64)
    with pytest.raises(TypeError):
        ZonalColumn(n=2, n_lat=32, n_lon=64)
    sphere = SphericalGrid.sphere(32, 64)
    for grid, n in ((SphericalGrid.circle(64), 1), (sphere, 2), (sphere.zonal_column, 2)):
        assert type(grid).n == grid.n == n
    assert {n: kind.n for n, kind in GRID_KINDS.items()} == {1: 1, 2: 2}
    # the column records the sphere grid it stands for; its arrays are one column
    assert sphere.zonal_column == ZonalColumn(32, 64) and sphere.zonal_column.shape == (32, 1)
    assert sphere.zonal_column.sphere == sphere


def test_built_grids_equal_and_hash_as_their_kinds():
    assert SphericalGrid.circle(64) == CircleGrid(64)
    assert hash(SphericalGrid.circle(64)) == hash(CircleGrid(64))
    assert SphericalGrid.sphere(32, 64) == SphereGrid(32, 64)
    assert hash(SphericalGrid.sphere(32, 64)) == hash(SphereGrid(32, 64))
    assert SphericalGrid.circle(64) != SphericalGrid.circle(32)
    assert ZonalColumn(32, 64) != SphericalGrid.circle(32)
    assert ZonalColumn(32, 64) != SphericalGrid.sphere(32, 64)
    assert ZonalColumn(32, 64) != ZonalColumn(32, 128)
    # a kind's constructor checks the sizes as the builders do
    with pytest.raises(ValueError):
        CircleGrid(8)
    with pytest.raises(ValueError, match="even"):
        SphereGrid(32, 33)


def test_radial_graph_validation():
    grid = SphericalGrid.circle(16)
    with pytest.raises(ValueError):
        RadialGraph(grid, np.zeros(17))
    with pytest.raises(ValueError):
        RadialGraph(grid, np.full(16, np.nan))
    with pytest.raises(ValueError):
        sphere_graph(grid, -1.0)
    g = sphere_graph(grid, 2.0)
    assert_allclose(g.r(), 2.0)


# ---------------------------------------------------------------------------
# covariant derivatives


def test_constant_graph_derivatives_vanish_to_rounding():
    # the stencil weights cancel on constant data up to one rounding residue
    for graph in (
        sphere_graph(SphericalGrid.circle(32), 1.7),
        sphere_graph(SphericalGrid.sphere(16, 32), 1.7),
    ):
        # n gradient components, then the Hessian's
        n, derivs = graph.grid.n, covariant_derivatives(graph)
        for grad in derivs[:n]:
            assert_allclose(grad, 0.0, atol=1e-14)
        for hess in derivs[n:]:
            assert_allclose(hess, 0.0, atol=1e-13)


def test_circle_derivatives_fourth_order():
    errs = []
    for N in (32, 64):
        grid = SphericalGrid.circle(N)
        graph = RadialGraph(grid, np.cos(grid.theta))
        d1, d2 = covariant_derivatives(graph)
        e1 = np.max(np.abs(d1 + np.sin(grid.theta)))
        e2 = np.max(np.abs(d2 + np.cos(grid.theta)))
        errs.append(max(e1, e2))
    assert errs[1] < errs[0] / 12.0  # ~16x for a 4th-order stencil
    assert errs[1] < 1e-5


def test_zonal_hessian_matches_closed_form():
    # phi = cos(theta):
    #   H_tt = -cos t,  H_tp = 0,  H_pp = -sin^2 t cos t
    errs = []
    for n_lat in (24, 48):
        graph = sphere2_graph(n_lat, 32, lambda t, p: np.cos(t) + 0.0 * p)
        t = graph.grid.theta[:, None]
        _, _, H_tt, H_tp, H_pp = covariant_derivatives(graph)
        e = max(
            np.max(np.abs(H_tt + np.cos(t))),
            np.max(np.abs(H_tp)),
            np.max(np.abs(H_pp + np.sin(t) ** 2 * np.cos(t))),
        )
        errs.append(e)
    assert errs[1] < errs[0] / 12.0
    assert errs[1] < 1e-5


def test_degree_one_harmonic_hessian():
    # Y = sin t cos p (restriction of x): Hess Y = -Y * round metric
    graph = sphere2_graph(48, 96, lambda t, p: np.sin(t) * np.cos(p))
    t = graph.grid.theta[:, None]
    p = graph.grid.phi_lon[None, :]
    Y = np.sin(t) * np.cos(p)
    _, _, H_tt, H_tp, H_pp = covariant_derivatives(graph)
    assert_allclose(H_tt, -Y, atol=2e-5)
    assert_allclose(H_tp, 0.0, atol=2e-5)
    assert_allclose(H_pp, -Y * np.sin(t) ** 2, atol=2e-5)


def test_degree_two_harmonic_hessian_mixed_term():
    # Y = sin t cos t sin p (restriction of z*y):
    #   H_tt = -4 sin t cos t sin p
    #   H_tp = -sin^2 t cos p        (nonzero mixed component)
    #   H_pp = -2 sin^3 t cos t sin p
    # trace check: H_tt + H_pp / sin^2 t = -6 Y (degree-2 eigenvalue)
    graph = sphere2_graph(48, 96, lambda t, p: np.sin(t) * np.cos(t) * np.sin(p))
    t = graph.grid.theta[:, None]
    p = graph.grid.phi_lon[None, :]
    st, ct, sp, cp = np.sin(t), np.cos(t), np.sin(p), np.cos(p)
    _, _, H_tt, H_tp, H_pp = covariant_derivatives(graph)
    assert_allclose(H_tt, -4.0 * st * ct * sp, atol=5e-5)
    assert_allclose(H_tp, -(st**2) * cp, atol=5e-5)
    assert_allclose(H_pp, -2.0 * st**3 * ct * sp, atol=5e-5)
    lap = H_tt + H_pp / st**2
    assert_allclose(lap, -6.0 * st * ct * sp, atol=5e-4)


# ---------------------------------------------------------------------------
# curvature: round spheres and ellipses


@pytest.mark.parametrize("R", [0.5, 1.0, 1.7])
def test_round_circle_curvature(R):
    field = weingarten(sphere_graph(SphericalGrid.circle(64), R))
    assert_allclose(field.kappa[:, 0], 1.0 / R, rtol=1e-14)
    assert_allclose(field.u, R, rtol=1e-14)
    assert_allclose(field.rho, 1.0)
    # constant phi: only stencil rounding residue survives in the gradient
    assert field.grad_phi_norm().max() < 1e-13


def test_tiny_gradient_survives_rho_rounding():
    # amplitude so small that rho = sqrt(1 + |grad phi|^2) rounds to exactly
    # 1.0 at every node; the reported gradient must still be the true slope,
    # not a reconstruction from rho (which would flush to zero)
    grid = SphericalGrid.circle(256)
    amp = 5e-9
    field = weingarten(RadialGraph(grid, amp * np.cos(grid.theta)))
    assert np.all(field.rho == 1.0)
    assert_allclose(field.grad_phi_norm().max(), amp, rtol=1e-6)


@pytest.mark.parametrize("R", [0.5, 1.0, 1.7])
def test_round_sphere_curvature(R):
    field = weingarten(sphere_graph(SphericalGrid.sphere(32, 64), R))
    assert_allclose(field.kappa, 1.0 / R, rtol=1e-11)
    assert_allclose(field.sigma[..., 0], 2.0 / R, rtol=1e-11)
    assert_allclose(field.sigma[..., 1], 1.0 / R**2, rtol=1e-11)
    assert_allclose(field.u, R, rtol=1e-14)


def test_round_sphere_embedding_oracle(R=1.3):
    for graph in (
        sphere_graph(SphericalGrid.circle(64), R),
        sphere_graph(SphericalGrid.sphere(32, 64), R),
    ):
        # the oracle differentiates the (non-constant) embedding components, so
        # it carries ordinary O(h^4) truncation error even on a round sphere
        field = embedding_oracle(graph)
        assert_allclose(field.kappa, 1.0 / R, rtol=2e-5)
        assert_allclose(field.u, R, rtol=1e-12)
        assert_allclose(field.r, R, rtol=1e-14)


def ellipse_phi(theta, a, b):
    # polar form of x^2/a^2 + y^2/b^2 = 1
    return -0.5 * np.log(np.cos(theta) ** 2 / a**2 + np.sin(theta) ** 2 / b**2)


def ellipse_kappa(theta, r, a, b):
    s = (a * np.sin(theta) / b) ** 2 + (b * np.cos(theta) / a) ** 2
    return a * b / (r**3 * s**1.5)


@pytest.mark.parametrize("route", [weingarten, embedding_oracle])
def test_ellipse_curvature(route):
    a, b = 2.0, 1.0
    errs = []
    for N in (128, 512):
        grid = SphericalGrid.circle(N)
        graph = RadialGraph(grid, ellipse_phi(grid.theta, a, b))
        field = route(graph)
        exact = ellipse_kappa(grid.theta, field.r, a, b)
        errs.append(np.max(np.abs(field.kappa[:, 0] - exact)))
    assert errs[1] < 5e-3
    assert errs[1] < errs[0] / 40.0  # 4th order: 4^4 = 256x per quadrupling


def test_two_curvature_routes_agree_on_wiggly_graphs():
    graph1 = circle_graph(256, lambda t: 0.1 * np.cos(3 * t) + 0.05 * np.sin(5 * t))
    w, o = weingarten(graph1), embedding_oracle(graph1)
    assert_allclose(w.kappa, o.kappa, atol=5e-5)
    assert_allclose(w.u, o.u, atol=5e-6)

    graph2 = sphere2_graph(
        48, 96, lambda t, p: 0.1 * np.cos(t) ** 2 + 0.05 * np.sin(t) * np.cos(t) * np.sin(p)
    )
    w, o = weingarten(graph2), embedding_oracle(graph2)
    assert_allclose(w.kappa, o.kappa, atol=2e-3)
    assert_allclose(w.sigma, o.sigma, atol=4e-3)


def _d1_roll(f, h, axis=-1):
    def at(shift):
        return np.roll(f, -shift, axis=axis)

    return (at(1) - at(-1)) * (8.0 / (12.0 * h)) - (at(2) - at(-2)) * (1.0 / (12.0 * h))


def _d2_roll(f, h, axis=-1):
    def dev(shift):
        return np.roll(f, -shift, axis=axis) - f

    return (dev(-1) + dev(1)) * (16.0 / (12.0 * h * h)) - (dev(-2) + dev(2)) * (1.0 / (12.0 * h * h))


def _pad_lat_roll(F, n_lon):
    """Reference pole padding: the ghost rows written one by one with np.roll."""
    half = n_lon // 2
    P = np.empty((F.shape[0] + 4, n_lon), dtype=float)
    P[2:-2] = F
    P[1] = np.roll(F[0], half)
    P[0] = np.roll(F[1], half)
    P[-2] = np.roll(F[-1], half)
    P[-1] = np.roll(F[-2], half)
    return P


def roll_covariant_derivatives(graph):
    """Reference: covariant_derivatives with np.roll stencils in the periodic directions
    and np.roll pole padding."""
    grid, phi = graph.grid, graph.phi
    if grid.n == 1:
        return _d1_roll(phi, grid.h_theta), _d2_roll(phi, grid.h_theta)
    ht, hp = grid.h_theta, grid.h_phi
    P = _pad_lat_roll(phi, grid.n_lon)
    F_t, F_tt = _d1(P, ht), _d2(P, ht)
    F_p, F_pp = _d1_roll(phi, hp, axis=1), _d2_roll(phi, hp, axis=1)
    F_tp = _d1(_pad_lat_roll(F_p, grid.n_lon), ht)
    sin_t, cos_t = np.sin(grid.theta)[:, None], np.cos(grid.theta)[:, None]
    H_tp = F_tp - (cos_t / sin_t) * F_p
    H_pp = F_pp + sin_t * cos_t * F_t
    return F_t, F_p, F_tt, H_tp, H_pp


@pytest.mark.parametrize(
    "grid",
    [SphericalGrid.circle(256), SphericalGrid.sphere(32, 64), SphericalGrid.sphere(17, 18)],
    ids=["n1", "n2", "n2-odd-lat"],
)
def test_pad_stencils_match_roll_reference_bitwise(grid):
    rng = np.random.default_rng(11)
    graph = RadialGraph(grid, 0.1 * rng.standard_normal(grid.shape))
    for got, ref in zip(covariant_derivatives(graph), roll_covariant_derivatives(graph)):
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)


# the stencils and the S^2 curvature in the expression forms they had before
# they wrote into their own temporaries: every value must keep its bits


def _d1_expr(P, h):
    return (P[3:-1] - P[1:-3]) * (8.0 / (12.0 * h)) - (P[4:] - P[:-4]) * (1.0 / (12.0 * h))


def _d2_expr(P, h):
    C = P[2:-2]
    return ((P[1:-3] - C) + (P[3:-1] - C)) * (16.0 / (12.0 * h * h)) - (
        (P[:-4] - C) + (P[4:] - C)
    ) * (1.0 / (12.0 * h * h))


@pytest.mark.parametrize("shape", [(256 + 4,), (32 + 4, 64), (32 + 4, 1), (36 * 68 + 4,)],
                         ids=["circle", "sphere", "zonal-column", "longitude-line"])
def test_stencils_equal_their_expression_forms_bitwise(shape):
    rng = np.random.default_rng(5)
    for h in (2.0 * math.pi / 256, math.pi / 32, 0.3 * rng.uniform()):
        P = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 3, shape)
        kept = P.tobytes()
        assert _d1(P, h).tobytes() == _d1_expr(P, h).tobytes()
        assert _d2(P, h).tobytes() == _d2_expr(P, h).tobytes()
        assert P.tobytes() == kept


def _eager_sphere_curvature(graph):
    """(rho, grad_sq, sigma, kappa) of a full S^2 grid with every product a
    fresh array and the off-diagonal of adj(E) B' built up front."""
    grid = graph.grid
    r = graph.r()
    F_t, F_p, H_tt, H_tp, H_pp = covariant_derivatives(graph)
    s2 = grid.sin2_theta
    tt, pp, tp = F_t * F_t, F_p * F_p, F_t * F_p
    grad2 = tt + pp * grid.inv_sin2_theta
    e11, e22 = 1.0 + tt, s2 + pp
    b11, b12, b22 = e11 - H_tt, tp - H_tp, e22 - H_pp
    n11 = e22 * b11 - tp * b12
    n22 = e11 * b22 - tp * b12
    n12, n21 = e22 * b12 - tp * b22, e11 * b12 - tp * b11
    rho2 = 1.0 + grad2
    rho = np.sqrt(rho2)
    w = r * rho
    den = grid.sin2_theta * rho2 * w
    sigma = np.stack([(n11 + n22) / den, (b11 * b22 - b12 * b12) / (den * w)], axis=-1)
    mean = 0.5 * (n11 + n22) / den
    root = np.sqrt(np.maximum((0.5 * (n11 - n22)) ** 2 + n12 * n21, 0.0)) / den
    return rho, grad2, sigma, np.stack([mean + root, mean - root], axis=-1)


def test_sphere_curvature_equals_its_eager_form_bitwise():
    grid = SphericalGrid.sphere(32, 64)
    rng = np.random.default_rng(8)
    for amp in (1e-3, 0.05, 0.3):
        graph = RadialGraph(grid, amp * rng.standard_normal(grid.shape))
        kept = graph.phi.tobytes()
        field = weingarten(graph)
        assert "kappa" not in vars(field)  # the off-diagonal is built on first read
        for name, ref in zip(("rho", "grad_sq", "sigma", "kappa"), _eager_sphere_curvature(graph)):
            assert getattr(field, name).tobytes() == ref.tobytes(), name
        assert graph.phi.tobytes() == kept


def test_grid_tables_are_cached_read_only_and_outside_equality():
    a, b = SphericalGrid.sphere(32, 64), SphericalGrid.sphere(32, 64)
    tables = (a.sin2_theta, a.inv_sin2_theta, a.cot_theta, a.sin_cos_theta, a.lat_pad_index, a.lon_pad_index)
    assert a.sin2_theta is tables[0] and a.lon_pad_index is tables[-1]
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 0
    sin_t, cos_t = np.sin(a.theta)[:, None], np.cos(a.theta)[:, None]
    # the latitude tables have the grid's shape: a field is multiplied by
    # them without a broadcast
    for table, column in (
        (a.sin2_theta, sin_t * sin_t),
        (a.inv_sin2_theta, 1.0 / (sin_t * sin_t)),
        (a.cot_theta, cos_t / sin_t),
        (a.sin_cos_theta, sin_t * cos_t),
    ):
        assert table.shape == a.shape and table.flags.c_contiguous
        assert table.tobytes() == np.repeat(column, 64, axis=1).tobytes()
    column = a.zonal_column
    for name in ("sin2_theta", "inv_sin2_theta", "cot_theta", "sin_cos_theta"):
        assert getattr(column, name).tobytes() == getattr(a, name)[:, :1].copy().tobytes(), name
    assert a == b and hash(a) == hash(b)
    assert "sin2_theta" not in vars(b)
    assert a != SphericalGrid.sphere(32, 66)


def test_circle_pad_index_is_the_periodic_padding_cached_and_read_only():
    grid = SphericalGrid.circle(32)
    index = grid.pad_index
    assert grid.pad_index is index and not index.flags.writeable
    F = np.arange(32.0)
    assert np.array_equal(F.take(index), np.concatenate((F[-2:], F, F[:2])))
    assert grid == SphericalGrid.circle(32) and "pad_index" not in vars(SphericalGrid.circle(32))


def test_inv_spacing_sq_is_the_formula_cached_and_read_only():
    grid = SphericalGrid.sphere(32, 64)
    table = grid.inv_spacing_sq
    ref = 1.0 / grid.h_theta**2 + 1.0 / (grid.h_phi**2 * np.sin(grid.theta)[:, None] ** 2)
    assert table.shape == (32, 64) and np.array_equal(table, np.repeat(ref, 64, axis=1))
    assert grid.inv_spacing_sq is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 0


def test_d2_radius_is_the_stencils_nyquist_eigenvalue_and_scales_each_kinds_spacings():
    # _d2 maps the Nyquist mode (-1)^j, where its symbol peaks, to -D2_RADIUS / h^2 times itself
    circle = SphericalGrid.circle(64)
    mode = (-1.0) ** np.arange(64)
    assert_allclose(_d2(mode.take(circle.pad_index), circle.h_theta), (-D2_RADIUS / circle.h_theta**2) * mode, rtol=1e-12, atol=0)
    # with D = 1, principal_radius is D2_RADIUS times the largest inverse squared
    # spacings summed over the directions a kind's stencils run
    sphere = SphericalGrid.sphere(32, 64)
    pole_row = (1.0 / sphere.h_theta**2 + 1.0 / (sphere.h_phi**2 * np.sin(sphere.theta) ** 2))[0]
    for grid, inv_h2 in ((circle, 1.0 / circle.h_theta**2), (sphere.zonal_column, 1.0 / sphere.h_theta**2), (sphere, pole_row)):
        assert grid.principal_radius(np.ones(grid.shape)) == pytest.approx(D2_RADIUS * inv_h2, rel=1e-14), grid


def test_expand_zonal_inverts_reduce_zonal_bit_for_bit():
    zonal = sphere2_graph(16, 32, lambda t, p: np.log(1.0 + 0.2 * np.cos(2.0 * t)) + 0.0 * p)
    column = reduce_zonal(zonal)
    assert column.grid == zonal.grid.zonal_column
    full = expand_zonal(column)
    assert full.grid == zonal.grid and full.phi.tobytes() == zonal.phi.tobytes()
    curve = circle_graph(32, lambda t: 0.1 * np.cos(3.0 * t))
    nonzonal = sphere2_graph(16, 32, lambda t, p: 0.1 * np.sin(t) ** 2 * np.cos(p))
    for graph in (curve, nonzonal, zonal):
        assert expand_zonal(graph) is graph


def test_sphere_partials_are_c_ordered():
    # the longitude partials are cut from the rows of a longer line; each
    # partial must still come out as a C-ordered array
    grid = SphericalGrid.sphere(32, 64)
    F = np.random.default_rng(3).standard_normal(grid.shape)
    for partial in grid.partials(F):
        assert partial.flags.c_contiguous


def test_zonal_strip_curvature_equals_full_grid_bitwise():
    grid = SphericalGrid.sphere(32, 64)
    assert "zonal_column" not in vars(grid)  # built on first use
    column = grid.zonal_column
    assert grid.zonal_column is column
    assert column.shape == (32, 1) and column.h_theta == grid.h_theta
    assert column != grid and repr(column) == "ZonalColumn(n_lat=32, n_lon=64)"
    graph = sphere2_graph(32, 64, lambda t, p: np.log(1.0375 + 0.1125 * np.cos(2.0 * t)) + 0.0 * p)
    full = weingarten(graph)
    narrow = weingarten(RadialGraph(column, graph.phi[:, :1].copy()))
    for name in ("r", "rho", "grad_sq", "u", "sigma", "kappa"):
        assert np.array_equal(getattr(narrow, name), getattr(full, name)[:, :1]), name
    with pytest.raises(AttributeError):
        SphericalGrid.circle(32).zonal_column


def test_constant_row_longitude_partials_are_exactly_positive_zero():
    grid = SphericalGrid.sphere(32, 64)
    col = np.log(1.0 + 0.3 * np.cos(2.0 * grid.theta))
    F_t, F_p, F_tt, F_tp, F_pp = grid.partials(np.broadcast_to(col[:, None], grid.shape).copy())
    for partial in (F_p, F_tp, F_pp):
        assert (partial == 0.0).all() and not np.signbit(partial).any()
    assert np.abs(F_t).max() > 0.1 and np.abs(F_tt).max() > 0.1


def test_zonal_strip_equals_full_grid_bitwise_on_a_nonconvex_surface():
    # r = 1 + 0.3 cos 2 theta: mean-convex, pinched at the equator (sigma_2 < 0)
    graph = sphere2_graph(32, 64, lambda t, p: np.log(1.0 + 0.3 * np.cos(2.0 * t)) + 0.0 * p)
    full = weingarten(graph)
    narrow = weingarten(RadialGraph(graph.grid.zonal_column, graph.phi[:, :1].copy()))
    assert full.sigma[..., 1].min() < -1.3 and full.sigma[..., 0].min() > 0.4
    for name in ("r", "rho", "grad_sq", "u", "sigma", "kappa"):
        assert np.array_equal(getattr(narrow, name), getattr(full, name)[:, :1]), name


def _cholesky_curvature(graph):
    """(sigma, kappa) by the Cholesky route: the metric G = r^2 E and second
    form B = (r/rho)(E - Hess phi) from ``covariant_derivatives``, the
    symmetric S = L^-1 B L^-T with G = L L^T, and numpy's symmetric eigen
    solver on S."""
    p_t, p_p, H_tt, H_tp, H_pp = covariant_derivatives(graph)
    sin_t = np.sin(graph.grid.theta)[:, None]
    r = np.exp(graph.phi)
    rho = np.sqrt(1.0 + p_t * p_t + (p_p / sin_t) ** 2)
    E11, E12, E22 = 1.0 + p_t * p_t, p_t * p_p, sin_t * sin_t + p_p * p_p
    G11, G12, G22 = r * r * E11, r * r * E12, r * r * E22
    c = r / rho
    B11, B12, B22 = c * (E11 - H_tt), c * (E12 - H_tp), c * (E22 - H_pp)
    L11 = np.sqrt(G11)
    L21 = G12 / L11
    L22 = np.sqrt(G22 - L21 * L21)
    Y11, Y12 = B11 / L11, B12 / L11
    Y21, Y22 = (B12 - L21 * Y11) / L22, (B22 - L21 * Y12) / L22
    S11, S21 = Y11 / L11, Y21 / L11
    S12 = 0.5 * ((Y12 - L21 * S11) / L22 + S21)
    S22 = (Y22 - L21 * S21) / L22
    sigma = np.stack([S11 + S22, S11 * S22 - S12 * S12], axis=-1)
    S = np.stack([np.stack([S11, S12], axis=-1), np.stack([S12, S22], axis=-1)], axis=-2)
    return sigma, np.linalg.eigvalsh(S)[..., ::-1]


def test_curvature_matches_cholesky_oracle_on_random_smooth_graphs():
    # the curvature algebra alone: both routes read the same stencils
    grid = SphericalGrid.sphere(32, 64)
    t, p = grid.theta[:, None], grid.phi_lon[None, :]
    xyz = (np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t) + 0.0 * p)
    rng = np.random.default_rng(2024)
    for _ in range(50):
        # a random cubic in the embedding coordinates: smooth across the poles
        phi = sum(
            rng.normal(0.0, 0.1) * xyz[0] ** a * xyz[1] ** b * xyz[2] ** c
            for a in range(4) for b in range(4 - a) for c in range(4 - a - b)
        )
        graph = RadialGraph(grid, phi)
        field = weingarten(graph)
        sigma, kappa = _cholesky_curvature(graph)
        for j in range(2):
            scale = np.abs(sigma[..., j]).max()
            assert np.abs(field.sigma[..., j] - sigma[..., j]).max() <= 1e-13 * scale
        assert np.abs(field.kappa - kappa).max() <= 1e-11 * np.abs(kappa).max()


def test_hessian_of_radius_identity():
    # On a curve r(theta): r'' - Gamma r' = g11/r - (u/r)*kappa*g11 - r'^2/r
    # with Gamma = d/dtheta log(r*rho) and g11 = r^2 * rho^2.
    a, b = 1.6, 1.0
    errs = []
    for N in (256, 1024):
        grid = SphericalGrid.circle(N)
        graph = RadialGraph(grid, ellipse_phi(grid.theta, a, b))
        field = weingarten(graph)
        r = field.r
        rd, rdd = grid.partials(r)
        gamma, _ = grid.partials(np.log(r * field.rho))
        g11 = r**2 * field.rho**2
        lhs = rdd - gamma * rd
        rhs = g11 / r - (field.u / r) * field.kappa[:, 0] * g11 - rd**2 / r
        errs.append(np.max(np.abs(lhs - rhs)))
    assert errs[1] < 1e-6
    assert errs[1] < errs[0] / 40.0


def test_support_function_bounded_by_radius():
    rng = np.random.default_rng(7)
    graph = circle_graph(128, lambda t: 0.2 * np.cos(2 * t) + 0.1 * np.sin(3 * t))
    f = weingarten(graph)
    assert np.all(f.u <= f.r * (1.0 + 1e-15))
    assert np.all(f.u[f.grad_phi_norm() > 1e-3] < f.r[f.grad_phi_norm() > 1e-3])
    # equality on the sphere
    f = weingarten(sphere_graph(SphericalGrid.sphere(16, 32), 1.1))
    assert_allclose(f.u, f.r, rtol=1e-15)

    graph = sphere2_graph(
        32, 64, lambda t, p: 0.1 * np.sin(t) * np.cos(p) + 0.05 * np.cos(t)
    )
    f = weingarten(graph)
    assert np.all(f.u <= f.r * (1.0 + 1e-15))
    del rng


def test_longitude_shift_equivariance_is_exact():
    # rotating the data by whole grid cells commutes with every stencil bit-for-bit
    graph = sphere2_graph(
        32, 64, lambda t, p: 0.1 * np.sin(t) * np.cos(p) + 0.07 * np.sin(t) ** 2 * np.cos(2 * p)
    )
    shifted = RadialGraph(graph.grid, np.roll(graph.phi, 5, axis=1))
    f0 = weingarten(graph)
    f1 = weingarten(shifted)
    assert np.array_equal(np.roll(f0.kappa, 5, axis=1), f1.kappa)
    assert np.array_equal(np.roll(f0.sigma, 5, axis=1), f1.sigma)
    assert np.array_equal(np.roll(f0.u, 5, axis=1), f1.u)


def test_circle_shift_equivariance_is_exact():
    graph = circle_graph(64, lambda t: 0.2 * np.cos(2 * t))
    shifted = RadialGraph(graph.grid, np.roll(graph.phi, 9))
    f0, f1 = weingarten(graph), weingarten(shifted)
    assert np.array_equal(np.roll(f0.kappa, 9, axis=0), f1.kappa)


def test_lazy_support_function_is_r_over_rho_on_every_grid_kind():
    circle = circle_graph(64, lambda t: np.log(1.0 + 0.2 * np.cos(2.0 * t)))
    sphere = sphere2_graph(16, 32, lambda t, p: 0.1 * np.sin(t) ** 2 * np.cos(2.0 * p))
    zonal = sphere2_graph(16, 32, lambda t, p: np.log(1.0 + 0.2 * np.cos(2.0 * t)) + 0.0 * p)
    column = RadialGraph(zonal.grid.zonal_column, zonal.phi[:, :1].copy())
    for graph in (circle, sphere, column):
        field = weingarten(graph)
        assert "u" not in vars(field)  # built on first read
        assert field.u.tobytes() == (field.r / field.rho).tobytes()
        assert field.u is field.u


def test_embedding_oracle_keeps_its_own_support_function():
    graph = sphere2_graph(16, 32, lambda t, p: 0.1 * np.sin(t) ** 2 * np.cos(2.0 * p))
    oracle = embedding_oracle(graph)
    assert "u" in vars(oracle)
    assert_allclose(oracle.u, oracle.r / oracle.rho, rtol=1e-14)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_singular_metric_detected():
    # exp(-800) == 0.0: the metric check raises before anything divides by r,
    # on the general path (one node, or a zonal row) and on the zonal column
    grid = SphericalGrid.sphere(16, 32)
    node, row = np.zeros(grid.shape), np.zeros(grid.shape)
    node[3, 5] = row[3] = -800.0
    for graph in (
        RadialGraph(grid, node),
        RadialGraph(grid, row),
        RadialGraph(grid.zonal_column, row[:, :1].copy()),
    ):
        with pytest.raises(SingularMetricError, match="metric lost positivity"):
            weingarten(graph)


def test_metric_check_rejects_a_nan_radius():
    # NaN fails "min > 0" as it failed "all > 0": an RK stage that went NaN
    # is a singular metric, on the full grid and on the zonal column
    grid = SphericalGrid.sphere(16, 32)
    phi = np.zeros(grid.shape)
    phi[3] = np.nan
    for graph in (RadialGraph._unchecked(grid, phi), RadialGraph._unchecked(grid.zonal_column, phi[:, :1].copy())):
        with pytest.raises(SingularMetricError, match="metric lost positivity"):
            weingarten(graph)


# ---------------------------------------------------------------------------
# serialization


def test_serialization_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    g1 = RadialGraph(SphericalGrid.circle(32), rng.normal(0, 0.3, 32))
    g2 = RadialGraph(SphericalGrid.sphere(16, 32), rng.normal(0, 0.3, (16, 32)))
    for g, head in ((g1, "N = 32"), (g2, "n_lat = 16\nn_lon = 32")):
        save_graph(g, tmp_path / "graph.txt")
        text = (tmp_path / "graph.txt").read_text()
        assert text.startswith(f"[grid]\nn = {g.grid.n}\n{head}\n[graph]\n")
        assert load_graph(tmp_path / "graph.txt") == g
        save_graph(load_graph(tmp_path / "graph.txt"), tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_text() == text


def test_serialization_file_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    g = RadialGraph(SphericalGrid.sphere(16, 32), rng.normal(0, 0.2, (16, 32)))
    path = tmp_path / "graph.csv"
    save_graph(g, path)
    assert load_graph(path) == g


def test_serialization_rejects_malformed_text(tmp_path):
    path = tmp_path / "graph.txt"
    save_graph(RadialGraph(SphericalGrid.circle(16), np.zeros(16)), path)
    lines = path.read_text().splitlines()

    def fails(text, match):
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_graph(path)

    fails("", r"\[grid\] n: required")
    for grid in ("n = 3\nN = 16", "n = 1", "n = 2\nn_lat = 16"):
        fails(f"[grid]\n{grid}\n[graph]\n0,0\n", r"\[grid\] (n: bad value '3'|N: required|n_lon: required)")
    fails("n=1 N=16\n" + "\n".join(lines[4:]), "outside any section")  # the former header line
    fails("\n".join(lines[:-1]) + "\n", "15 rows for the 16 nodes")
    # node not on the grid; wrong arity; a coordinate that is not a number
    for row in ("0.5," + lines[6].split(",")[1], lines[6] + ",0.0", "x," + lines[6].split(",")[1]):
        fails("\n".join(lines[:6] + [row] + lines[7:]) + "\n", "line 7: \\[graph\\] bad row")
    for value in ("nan", "-inf"):
        row = lines[6].split(",")[0] + "," + value
        fails("\n".join(lines[:6] + [row] + lines[7:]) + "\n", f"^line 7: \\[graph\\] phi must be finite, got {value}$")
