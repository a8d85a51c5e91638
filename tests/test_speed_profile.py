"""Speed weights f(r) = r^beta + g(r), their rescalings, and admissibility checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.interpolate import CubicHermiteSpline

from anisoflow import textform
from anisoflow.speed_profile import (
    EXP_FLUSH,
    G_KINDS,
    ExpFlatG,
    MonomialG,
    NonPositiveRadiusError,
    ScaleOverflowError,
    SpeedProfile,
    TabulatedG,
    ZeroG,
    eval_g,
    eval_scaled,
    validate_for_regime,
)


def profile_k1(beta, g=None, alpha=1.0, n=1):
    return SpeedProfile(n=n, k=1, alpha=alpha, beta=beta, g=g if g is not None else ZeroG())


# ---------------------------------------------------------------------------
# construction


def test_gamma_is_binomial_power():
    assert SpeedProfile(n=2, k=2, alpha=1.0, beta=4.0).gamma == 1.0
    assert SpeedProfile(n=2, k=1, alpha=2.0, beta=4.0).gamma == 4.0
    assert SpeedProfile(n=2, k=1, alpha=1.0, beta=2.0).gamma == 2.0
    assert SpeedProfile(n=1, k=1, alpha=3.0, beta=4.0).gamma == 1.0
    assert SpeedProfile(n=2, k=2, alpha=0.5, beta=2.0).gamma == 1.0


def test_equality_regime_flag():
    assert profile_k1(2.0).equality_regime
    assert not profile_k1(3.0).equality_regime
    assert SpeedProfile(n=2, k=2, alpha=0.5, beta=2.0).equality_regime


def test_alpha_family_rejected():
    with pytest.raises(ValueError, match="1/k or alpha >= 1"):
        SpeedProfile(n=2, k=2, alpha=0.7, beta=4.0)
    # the two admissible alpha choices for k=2 both construct
    SpeedProfile(n=2, k=2, alpha=0.5, beta=2.0)
    SpeedProfile(n=2, k=2, alpha=1.5, beta=4.0)


def test_beta_lower_bound():
    with pytest.raises(ValueError, match="beta"):
        profile_k1(1.5)  # needs beta >= 2 for k=1, alpha=1
    with pytest.raises(ValueError):
        SpeedProfile(n=2, k=2, alpha=1.0, beta=2.5)


@pytest.mark.parametrize(
    "alpha, beta", [(1.0, math.nan), (1.0, math.inf), (math.inf, math.inf), (math.nan, 4.0), (math.inf, 4.0)]
)
def test_non_finite_alpha_or_beta_rejected(alpha, beta):
    with pytest.raises(ValueError):
        profile_k1(beta, alpha=alpha)
    with pytest.raises(ValueError):
        SpeedProfile(n=2, k=2, alpha=alpha, beta=beta)


def test_bad_dimensions_rejected():
    with pytest.raises(ValueError):
        SpeedProfile(n=3, k=1, alpha=1.0, beta=2.0)
    with pytest.raises(ValueError):
        SpeedProfile(n=1, k=2, alpha=1.0, beta=3.0)


def test_g_parameter_validation():
    assert ExpFlatG(p=1.0, epsilon=0.0) == ExpFlatG(1.0)
    with pytest.raises(ValueError):
        ExpFlatG(p=-1.0)
    for bad in (-0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match=rf"^epsilon must be finite and >= 0, got {bad}$"):
            ExpFlatG(p=1.0, epsilon=bad)
    with pytest.raises(ValueError):
        MonomialG(l=0.5)
    with pytest.raises(ValueError, match="integer"):
        MonomialG(l=4.5)
    with pytest.raises(ValueError):
        TabulatedG([1.0, 0.5], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        TabulatedG([1.0], [0.0], [0.0])
    with pytest.raises(ValueError, match="r >= 0"):
        TabulatedG([-1.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 6.0])
    for values, derivs in (([0.0, 1.0, 2.0], [0.0, 1.0]), ([0.0, 1.0], [[0.0, 1.0]])):
        with pytest.raises(ValueError, match="^points, values and derivs must have equal shapes$"):
            TabulatedG([0.0, 1.0], values, derivs)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            ExpFlatG(p=bad)
        with pytest.raises(ValueError):
            ExpFlatG(p=bad, epsilon=0.5)
        with pytest.raises(ValueError):
            MonomialG(l=bad)
        with pytest.raises(ValueError, match="finite"):
            TabulatedG([0.0, 1.0], [0.0, bad], [0.0, 0.0])
    with pytest.raises(TypeError, match="^unrecognized g specification: 'zero'$"):
        SpeedProfile(n=1, k=1, alpha=1.0, beta=2.0, g="zero")


# one sample per kind: a kind added to G_KINDS without a sample fails below
G_SAMPLES = {
    "zero": ZeroG(),
    "expflat": ExpFlatG(p=2.0),
    "monomial": MonomialG(l=5.0),
    "tabulated": TabulatedG(np.linspace(0.0, 4.0, 9), np.linspace(0.0, 4.0, 9) ** 5, 5.0 * np.linspace(0.0, 4.0, 9) ** 4),
}
# the samples and a bump, expflat with epsilon > 0: 0 on [0, epsilon], and
# the one case whose scaled subtracts epsilon
G_CASES = {**G_SAMPLES, "bump": ExpFlatG(p=2.0, epsilon=0.5)}


@pytest.mark.parametrize("case", sorted(G_CASES))
def test_every_kind_answers_for_itself(case):
    g = G_CASES[case]
    assert set(G_SAMPLES) == set(G_KINDS) and type(g) is G_KINDS[g.KIND]
    for name in ("scaled", "derivative", "conditions"):
        assert hasattr(g, name), name
    for beta in (2.0, 6.0):  # the equality regime, then the strict one
        names = [c.name for c in g.conditions(profile_k1(beta, g))]
        assert names[:2] == ["nonnegative", "scaling"] and len(names) == 3, names


@pytest.mark.parametrize("case", sorted(G_CASES))
def test_eval_g_is_scaled_at_lam_one_bitwise(case):
    prof = profile_k1(6.0, G_CASES[case])
    r = np.concatenate((np.geomspace(1e-3, 4.0, 400), np.linspace(0.01, 4.0, 57)))
    g, _ = eval_g(prof, r)
    assert np.array_equal(g, eval_scaled(prof, 1.0, r))
    assert np.array_equal(np.signbit(g), np.signbit(eval_scaled(prof, 1.0, r)))
    for x in (0.37, 1.0, 4.0):
        assert eval_g(prof, x)[0] == eval_scaled(prof, 1.0, x)


def test_table_rows_roundtrip_bitwise():
    # a table's text is the codec's: [profile] writes its rows at 17 digits,
    # which read back, among comments and blank lines, as the same g
    table = G_SAMPLES["tabulated"]
    lines = textform._profile_lines(profile_k1(6.0, table))
    rows = lines[lines.index("[table]") + 1 :]
    assert rows[1] == "0.5,0.03125,0.3125"
    lines = ["# r,value,derivative", "", *rows, "  # the end"]
    assert textform._table(zip(lines, range(1, len(lines) + 1))) == table


# ---------------------------------------------------------------------------
# pointwise g evaluation


def test_eval_g_spot_values():
    assert eval_g(profile_k1(2.0), 1.3) == (0.0, 0.0)
    g, gp = eval_g(profile_k1(5.0, MonomialG(4.0)), 2.0)
    assert (g, gp) == (16.0, 32.0)
    # epsilon > 0: identically zero on [0, epsilon]
    g, gp = eval_g(profile_k1(2.0, ExpFlatG(p=1.0, epsilon=0.5)), 0.4)
    assert (g, gp) == (0.0, 0.0)


def test_eval_g_negative_radius_rejected():
    with pytest.raises(ValueError):
        eval_g(profile_k1(2.0), -0.1)


@pytest.mark.parametrize("kind", sorted(G_CASES))
@pytest.mark.parametrize("r", [math.nan, [1.0, math.nan]])
def test_eval_g_rejects_a_nan_radius_for_every_kind(kind, r):
    # NaN fails every comparison, so a guard written as "any r < 0" lets it through
    with pytest.raises(ValueError, match=r"only defined for r >= 0"):
        eval_g(_nan_radius_profiles()[kind], r)


@pytest.mark.parametrize(
    "g",
    [ExpFlatG(p=1.0, epsilon=0.5), ExpFlatG(p=2.0, epsilon=0.3), ExpFlatG(1.0), ExpFlatG(2.0)],
    ids=["bump-p1.0", "bump-p2.0", "expflat-p1.0", "expflat-p2.0"],
)
def test_eval_g_derivative_consistency(g):
    prof = profile_k1(2.0 if g.epsilon else 4.0, g)
    rs = np.linspace(0.6, 2.5, 40)
    h = 1e-6
    _, gp = eval_g(prof, rs)
    fd = (eval_g(prof, rs + h)[0] - eval_g(prof, rs - h)[0]) / (2 * h)
    assert_allclose(gp, fd, rtol=2e-9, atol=1e-9)


def reference_flat_scaled(profile, lam, r, eps):
    """(lam^beta g(r/lam), live) of expflat with every dead-node
    mask applied unconditionally, and the same overflow check and message."""
    g = profile.g
    one_ka = 1.0 + profile.ka
    s = r / lam
    base = s - eps
    live = base > 0
    with np.errstate(divide="ignore", over="ignore"):
        barrier = np.where(live, base, 1.0) ** (-g.p)
    live &= barrier <= EXP_FLUSH
    w = (profile.beta - one_ka) * math.log(lam) - np.where(live, barrier, 0.0)
    if (live & (w > 700.0)).any():
        bad = int(np.argmax(np.where(live, w, -np.inf)))
        raise ScaleOverflowError(f"rescaled g overflows: lam={lam!r}, r={float(np.ravel(r)[bad])!r}")
    return np.where(live, r**one_ka * np.exp(np.where(live, w, 0.0)), 0.0), live


def reference_flat_gp(profile, r, eps):
    """g' of expflat by the formula _scaled_flat_family used when it
    also returned g' (here at lam = 1): g * slope, live where the barrier
    is below the flush threshold."""
    gs, live = reference_flat_scaled(profile, 1.0, r, eps)
    base = r - eps
    slope = np.where(
        live,
        (1.0 + profile.ka) / np.where(live, r, 1.0)
        + profile.g.p * np.where(live, base, 1.0) ** (-profile.g.p - 1.0),
        0.0,
    )
    return gs * slope


@pytest.mark.parametrize(
    "prof",
    [
        profile_k1(2.0, ExpFlatG(p=1.0, epsilon=0.5)),
        profile_k1(2.0, ExpFlatG(p=2.0, epsilon=0.3)),
        profile_k1(4.0, ExpFlatG(1.0)),
        SpeedProfile(n=2, k=2, alpha=1.0, beta=4.0, g=ExpFlatG(2.0)),
    ],
    ids=["bump-p1", "bump-p2", "expflat-p1", "expflat-n2k2-p2"],
)
def test_flat_derivative_matches_reference_bitwise(prof):
    eps = prof.g.epsilon
    samples = [
        np.array([0.0]),
        np.array([1e-300]),
        np.linspace(0.0, max(eps, 1e-3), 257),  # r <= epsilon (the flat zone for bump)
        np.linspace(1.0 / EXP_FLUSH, 1.0 / 700.0, 257),  # live nodes whose g underflows to 0
        np.geomspace(1e-3, 5.0, 2001),
    ]
    for r in samples:
        _, gp = eval_g(prof, r)
        assert np.array_equal(gp, reference_flat_gp(prof, r, eps))


FLAT_SCALED_PROFILES = {
    "expflat-n2k2-p1": SpeedProfile(n=2, k=2, alpha=1.0, beta=5.0, g=ExpFlatG(1.0)),
    "expflat-n1-p2": profile_k1(4.0, ExpFlatG(2.0)),
    "bump-n2k2-p1": SpeedProfile(n=2, k=2, alpha=1.0, beta=5.0, g=ExpFlatG(p=1.0, epsilon=0.5)),
    "bump-n1-p2": profile_k1(3.0, ExpFlatG(p=2.0, epsilon=0.3)),
    "bump-n1-p1.5": profile_k1(3.0, ExpFlatG(p=1.5, epsilon=0.3)),  # (r/lam - epsilon)^-p is NaN below epsilon
}


@pytest.mark.parametrize("prof", FLAT_SCALED_PROFILES.values(), ids=FLAT_SCALED_PROFILES.keys())
@pytest.mark.filterwarnings("error")
def test_scaled_flat_family_matches_masked_reference_bitwise(prof):
    eps = prof.g.epsilon
    rng = np.random.default_rng(3)
    live = rng.uniform(0.8, 1.3, (32, 64))
    dead = live.copy()
    dead[::5, ::7] = 1e-3  # r/lam <= epsilon (bump), barrier above EXP_FLUSH (expflat)
    cases = [
        (1.0, live),
        (1.37, live),
        (1.0, 1.2),  # scalar r
        (1.37, dead),
        (1.0, np.array([1e-300, 1.0 / EXP_FLUSH, 1.0 / 700.0, max(eps, 1e-3), eps + 1e-3, 2.0])),
        (1e80, live),  # every node flushed
    ]
    # every node live but the smallest within rounding of the flush threshold
    edge = eps + EXP_FLUSH ** (-1.0 / prof.g.p)
    for lam in (1.0, 1e3):
        cases.append((lam, lam * edge * np.array([1.0 - 1e-15, 1.0, 1.0 + 1e-15, 1.5])))
    for lam, r in cases:
        ref, _ = reference_flat_scaled(prof, lam, np.asarray(r, dtype=float), eps)
        got = eval_scaled(prof, lam, r)
        assert np.shape(got) == np.shape(ref)
        assert np.asarray(got).tobytes() == ref.tobytes()


@pytest.mark.parametrize("prof", FLAT_SCALED_PROFILES.values(), ids=FLAT_SCALED_PROFILES.keys())
@pytest.mark.filterwarnings("error")
def test_scaled_flat_family_all_live_equals_its_expression_form_bitwise(prof):
    # every node live: the value is the expression below, which the path now
    # forms in its own temporaries (and without subtracting epsilon when it is 0.0)
    g = prof.g
    eps = g.epsilon
    one_ka = 1.0 + prof.ka
    rng = np.random.default_rng(4)
    for lam in (1.0, 1.37, 40.0):
        for r in (lam * rng.uniform(eps + 0.2, 3.0, (32, 64)), lam * (eps + 0.7)):
            kept = np.asarray(r).tobytes()
            ref = r**one_ka * np.exp((prof.beta - one_ka) * math.log(lam) - (r / lam - eps) ** (-g.p))
            got = eval_scaled(prof, lam, r)
            assert type(got) is type(ref if np.ndim(r) else float(ref))
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()
            assert np.asarray(r).tobytes() == kept


@pytest.mark.parametrize("prof", FLAT_SCALED_PROFILES.values(), ids=FLAT_SCALED_PROFILES.keys())
@pytest.mark.filterwarnings("error")
def test_scaled_flat_family_overflow_names_the_reference_radius(prof):
    # w = (beta - 1 - k*alpha) log(lam) - barrier passes 700 where r/lam is
    # largest: every node live, then some flushed
    lam = 1e306
    for r in (
        lam * np.array([1.5, 3.0, 2.0]),
        lam * np.array([1e-6, 1.5, 3.0, 2.0, 1e-6]),
    ):
        with pytest.raises(ScaleOverflowError) as ref:
            reference_flat_scaled(prof, lam, r, prof.g.epsilon)
        with pytest.raises(ScaleOverflowError) as got:
            eval_scaled(prof, lam, r)
        assert str(got.value) == str(ref.value)
        assert f"r={float(r[np.argmax(r)])!r}" in str(got.value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("g", [ExpFlatG(1.0), ExpFlatG(p=1.0, epsilon=0.5)], ids=["expflat", "bump"])
def test_scaled_flat_family_past_the_float_range_raises_without_a_warning(g):
    # n = k = alpha = 1, beta = 2: lam^beta g(r/lam) = r^2 exp(-1/(r - eps))
    # at lam = 1 is e^800 at r = e^400, so the value itself overflows
    prof = profile_k1(2.0, g)
    r = np.full(4, math.exp(400.0))
    r[1] = 0.2  # a dead node of the bump, which the check skips
    with pytest.raises(ScaleOverflowError) as exc:
        eval_scaled(prof, 1.0, r)
    assert str(exc.value) == f"rescaled g overflows: lam=1.0, r={float(r[0])!r}"


@pytest.mark.filterwarnings("error")
def test_scaled_monomial_past_the_float_range_raises_without_a_warning():
    # g = r^4, beta = 3: lam^beta g(r/lam) = r^4 / lam, the plain product bit
    # for bit while 4 log max(r, 1) - log lam <= 700, a typed error past e^700
    prof = profile_k1(3.0, MonomialG(4.0))
    r = np.array([0.5, 2.0, math.exp(175.0)])
    assert np.array_equal(eval_scaled(prof, 1.0, r), 1.0 ** (3.0 - 4.0) * r**4.0)
    r[1] = math.exp(178.0)
    with pytest.raises(ScaleOverflowError) as exc:
        eval_scaled(prof, 1.0, r)
    assert str(exc.value) == f"rescaled g overflows: lam=1.0, r={float(r[1])!r}"
    # g = r, beta = 3: lam^2 overflows alone, lam^2 r = e^600 does not
    prof = profile_k1(3.0, MonomialG(1.0))
    assert_allclose(eval_scaled(prof, math.exp(400.0), np.array([math.exp(-200.0)])), math.exp(600.0), rtol=1e-12)


@pytest.mark.filterwarnings("error")
def test_scaled_flat_family_is_finite_where_only_r_to_the_power_overflows():
    # r = e^400 and r/lam = 1/700: r^2 = e^800 overflows, but
    # lam^2 g(r/lam) = r^2 exp(-lam/r) = e^(800 - 700) does not
    prof = profile_k1(2.0, ExpFlatG(1.0))
    r = math.exp(400.0)
    assert_allclose(eval_scaled(prof, 700.0 * r, np.array([r])), math.exp(100.0), rtol=1e-12)


def test_expflat_closed_form():
    prof = profile_k1(4.0, ExpFlatG(1.0))  # 1 + k*alpha = 2
    rs = np.array([0.5, 1.0, 2.0])
    g, _ = eval_g(prof, rs)
    assert_allclose(g, rs**2 * np.exp(-1.0 / rs), rtol=1e-14)


def test_expflat_flushes_near_origin():
    prof = profile_k1(4.0, ExpFlatG(1.0))
    g, gp = eval_g(prof, np.array([0.0, 1e-4]))
    assert np.all(g == 0.0) and np.all(gp == 0.0)


def test_tabulated_roundtrip_and_range():
    base = profile_k1(4.0, ExpFlatG(1.0))
    pts = np.linspace(0.05, 3.0, 400)
    vals, ders = eval_g(base, pts)
    tab = profile_k1(4.0, TabulatedG(pts, vals, ders))
    q = np.linspace(0.1, 2.9, 57)
    gt, _ = eval_g(tab, q)
    ge, _ = eval_g(base, q)
    assert_allclose(gt, ge, rtol=1e-6, atol=1e-9)
    with pytest.raises(ValueError, match="outside"):
        eval_g(tab, 3.5)
    with pytest.raises(ValueError, match="outside"):
        eval_g(tab, 0.01)


def _cubic(r):
    return 2.0 - r + 0.5 * r**2 + 0.25 * r**3, -1.0 + r + 0.75 * r**2


def test_tabulated_reproduces_a_cubic():
    # a cubic Hermite spline is exact for a cubic, on uneven nodes too
    pts = np.array([0.0, 0.1, 0.35, 0.4, 1.0, 1.7, 2.0])
    prof = profile_k1(4.0, TabulatedG(pts, *_cubic(pts)))
    q = np.random.default_rng(3).uniform(0.0, 2.0, 500)
    g, gp = eval_g(prof, q)
    want, want_p = _cubic(q)
    assert_allclose(g, want, rtol=1e-14, atol=1e-14)
    assert_allclose(gp, want_p, rtol=1e-14, atol=1e-14)


def test_tabulated_at_its_nodes():
    pts = np.array([0.05, 0.2, 0.9, 1.0, 2.5, 3.0])
    vals, ders = _cubic(pts)
    g, gp = eval_g(profile_k1(4.0, TabulatedG(pts, vals, ders)), pts)
    # a node starts its interval (s = 0), save the last, which ends the last interval
    assert np.array_equal(g[:-1], vals[:-1]) and np.array_equal(gp[:-1], ders[:-1])
    assert_allclose(g[-1], vals[-1], rtol=1e-14)
    assert_allclose(gp[-1], ders[-1], rtol=1e-14)


def test_tabulated_two_rows():
    table = TabulatedG([1.0, 3.0], [0.5, 2.0], [1.0, -0.5])
    g, gp = eval_g(profile_k1(4.0, table), np.array([1.0, 2.0, 3.0]))
    # Hermite midpoint: (y0 + y1)/2 + h (d0 - d1)/8 and 3 (y1 - y0)/(2h) - (d0 + d1)/4
    assert_allclose(g, [0.5, 1.25 + 2.0 * 1.5 / 8.0, 2.0], rtol=1e-15)
    assert_allclose(gp, [1.0, 1.5 * 1.5 / 2.0 - 0.5 / 4.0, -0.5], rtol=1e-15)
    with pytest.raises(ValueError, match="outside"):
        table.value(3.0 + 1e-12)


def test_tabulated_scalar_query_returns_floats():
    pts = np.linspace(0.0, 2.0, 9)
    prof = profile_k1(4.0, TabulatedG(pts, *_cubic(pts)))
    for r in (0.0, 0.7, 2.0):
        g, gp = eval_g(prof, r)
        assert type(g) is float and type(gp) is float
        assert (g, gp) == tuple(float(v[0]) for v in eval_g(prof, np.array([r])))  # an array query's bits


# ---------------------------------------------------------------------------
# rescaled evaluation


def test_scaled_zero_g_is_pure_power():
    prof = profile_k1(3.0)
    assert eval_scaled(prof, 25.0, 2.0) == 0.0


def test_scaled_monomial_spot_value():
    prof = profile_k1(3.0, MonomialG(4.0))
    s = eval_scaled(prof, 10.0, 2.0)
    assert_allclose(s, 1.6, rtol=1e-15)  # 10^(3-4) * 2^4


def test_scaled_bump_below_support_is_exact_power():
    prof = profile_k1(2.0, ExpFlatG(p=1.0, epsilon=0.5))
    assert eval_scaled(prof, 4.0, 1.9) == 0.0  # r/lam = 0.475 < epsilon


def test_scaled_matches_direct_for_moderate_lam():
    # lam^beta * g(r/lam) computed by the scaled path vs naive arithmetic
    cases = [
        (profile_k1(3.0, MonomialG(4.0)), 50.0),
        (profile_k1(4.0, ExpFlatG(1.0)), 30.0),
        (profile_k1(2.0, ExpFlatG(p=1.0, epsilon=0.2)), 3.0),
    ]
    rs = np.linspace(0.8, 2.5, 31)
    for prof, lam in cases:
        s = eval_scaled(prof, lam, rs)
        direct_g, _ = eval_g(prof, rs / lam)
        assert_allclose(s, lam**prof.beta * direct_g, rtol=1e-12, atol=1e-280)


def test_scaled_lam_one_reduces_to_eval_g():
    prof = profile_k1(4.0, ExpFlatG(2.0))
    rs = np.linspace(0.3, 2.0, 19)
    g, _ = eval_g(prof, rs)
    assert_allclose(eval_scaled(prof, 1.0, rs), g, rtol=0, atol=0)


def test_scaled_f_dominates_pure_power():
    # g >= 0 for every built-in kind, so f = r^beta + g >= r^beta at any rescaling
    profs = [
        profile_k1(3.0, MonomialG(4.0)),
        profile_k1(4.0, ExpFlatG(1.0)),
        profile_k1(2.0, ExpFlatG(p=1.0, epsilon=0.5)),
        profile_k1(2.0),
    ]
    rs = np.geomspace(0.05, 5.0, 200)
    for prof in profs:
        for lam in (1.0, 10.0, 1e5, 1e40):
            assert np.all(eval_scaled(prof, lam, rs) >= 0.0)


def test_scaled_huge_lam_flushes_flat_families():
    # at lam = 1e80 the argument r/lam is deep in the flat zone: exactly zero
    for g in (ExpFlatG(1.0), ExpFlatG(p=1.0, epsilon=0.5)):
        prof = profile_k1(2.0 if g.epsilon else 4.0, g)
        assert np.all(eval_scaled(prof, 1e80, np.array([0.5, 1.0, 2.0])) == 0.0)


def test_scaled_overflow_raises():
    # beta - (1 + k*alpha) = 2 here, so w ~ 2 log(lam) - 1 > 700 at lam = 1e160
    prof = SpeedProfile(n=2, k=2, alpha=1.0, beta=5.0, g=ExpFlatG(1.0))
    lam = 1e160
    with pytest.raises(ScaleOverflowError):
        eval_scaled(prof, lam, lam)  # r/lam = 1: not flushed, genuinely huge


@pytest.mark.parametrize("g", [ExpFlatG(1.0), ExpFlatG(p=1.0, epsilon=0.5)], ids=["expflat", "bump"])
def test_scaled_flat_overflow_raises_past_700_only(g):
    # w = log_scale - barrier with barrier >= 0: an overflow needs log_scale > 700
    prof = SpeedProfile(n=2, k=2, alpha=1.0, beta=5.0, g=g)  # log_scale = 2 log(lam)
    r = np.array([1.0, 1.5, 3.0])
    for lam in (1e160, 1e300):
        with pytest.raises(ScaleOverflowError) as err:
            eval_scaled(prof, lam, lam * r)
        assert repr(3.0 * lam) in str(err.value)  # the largest r/lam's radius
    assert np.isfinite(eval_scaled(prof, math.exp(349.9), r)).all()  # log_scale just below 700


def test_scaled_tabulated_overflow_names_its_radius():
    pts = np.linspace(0.0, 3.0, 50)
    prof = profile_k1(3.0, TabulatedG(pts, np.zeros(50), np.zeros(50)))
    # no cap on lam: lam^beta = inf, and lam^beta * 0 is still 0, without a warning
    assert np.array_equal(eval_scaled(prof, 1e200, np.array([1.0, 2.0])), [0.0, 0.0])
    # g = r^6 on a 301-row table (beta = 4): lam^beta = 1e360 is past the float range
    pts = np.linspace(0.0, 3.0, 301)
    prof = profile_k1(4.0, TabulatedG(pts, pts**6, 6.0 * pts**5))
    with pytest.raises(ScaleOverflowError) as exc:
        eval_scaled(prof, 1e90, np.array([1.0]))
    assert str(exc.value) == "rescaled tabulated g overflows: lam=1e+90, r=1.0"


def test_scaled_tabulated_matches_reference_bitwise():
    # reference: evaluate both splines and drop the derivative, then rescale
    base = profile_k1(4.0, ExpFlatG(1.0))
    pts = np.linspace(0.05, 3.0, 400)
    vals, ders = eval_g(base, pts)
    prof = profile_k1(4.0, TabulatedG(pts, vals, ders))
    spline = CubicHermiteSpline(pts, vals, ders)
    dspline = spline.derivative()
    r = np.random.default_rng(5).uniform(0.5, 2.9, (32, 64))
    for lam in (1.0, 1.7, 9.5):
        val, _ = spline(r / lam), dspline(r / lam)
        ref = np.where(val == 0.0, 0.0, lam**prof.beta * val)
        assert np.array_equal(eval_scaled(prof, lam, r), ref)
    assert np.array_equal(eval_g(prof, r)[1], dspline(r))


def test_scaled_rejects_bad_inputs():
    prof = profile_k1(3.0)
    with pytest.raises(ValueError):
        eval_scaled(prof, 0.9, 1.0)
    with pytest.raises(ValueError):
        eval_scaled(prof, 2.0, 0.0)


@pytest.mark.parametrize("kind", sorted(G_CASES))
def test_scaled_accepts_an_empty_radius_array(kind):
    got = eval_scaled(_nan_radius_profiles()[kind], 1.5, np.empty((0, 3)))
    assert isinstance(got, np.ndarray) and got.shape == (0, 3)


def _nan_radius_profiles():
    pts = np.linspace(0.05, 3.0, 50)
    return {
        "zero": profile_k1(3.0),
        "monomial": profile_k1(3.0, MonomialG(4)),
        "bump": profile_k1(3.0, ExpFlatG(p=1.0, epsilon=0.5)),
        "expflat": profile_k1(3.0, ExpFlatG(1.0)),
        "tabulated": profile_k1(3.0, TabulatedG(pts, pts**4, 4.0 * pts**3)),
    }


@pytest.mark.parametrize("kind", sorted(G_CASES))
@pytest.mark.parametrize(
    "r",
    [math.nan, [math.nan, 1.0], [[1.0, 2.0], [1.5, math.nan]], 0.0, -0.0, [1.0, 0.0], [[1.0, 2.0], [-0.0, 1.5]]],
)
def test_scaled_rejects_nan_radius_for_every_kind(kind, r):
    # NaN fails every comparison, so a guard written as "any r <= 0" lets it
    # through; zeros of either sign fail "min > 0" too
    with pytest.raises(NonPositiveRadiusError):
        eval_scaled(_nan_radius_profiles()[kind], 1.5, r)


# ---------------------------------------------------------------------------
# admissibility validators


def test_validator_passes_equality_regime_kinds():
    for g in (ZeroG(), ExpFlatG(p=1.0, epsilon=0.5), ExpFlatG(p=2.0, epsilon=0.5)):
        rep = validate_for_regime(profile_k1(2.0, g))
        assert rep.ok, (g, rep.condition, rep.worst_violation)


def test_validator_passes_strict_regime_kinds():
    strict = [
        (SpeedProfile(n=2, k=2, alpha=1.0, beta=4.0, g=ExpFlatG(1.0)), "expflat-1"),
        (SpeedProfile(n=2, k=2, alpha=1.0, beta=4.0, g=ExpFlatG(2.0)), "expflat-2"),
        (profile_k1(3.0, MonomialG(4.0)), "monomial-4"),
        # flat to all orders, though g/r^4 still falls from 1e-3 to 0.1
        (profile_k1(3.0, ExpFlatG(0.1)), "expflat-0.1"),
        (profile_k1(3.0, ExpFlatG(0.3)), "expflat-0.3"),
        (profile_k1(3.0, ExpFlatG(p=0.1, epsilon=0.001)), "bump-0.001-0.1"),
        # r^638 overflows at r = 3, but the conditions are read off its formula
        (profile_k1(3.0, MonomialG(638)), "monomial-638"),
    ]
    for prof, label in strict:
        rep = validate_for_regime(prof)
        assert rep.ok, (label, rep.condition, rep.worst_violation)


def test_validator_rejects_linear_g_in_equality_regime():
    # g = r fails the differential inequality (1+k*alpha) g / r <= g'
    rep = validate_for_regime(profile_k1(2.0, MonomialG(1.0)))
    assert not rep.ok
    assert rep.condition == "scaling"


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
def test_validator_rejects_expflat_in_equality_regime_for_every_p(p):
    # g = r^2 exp(-1/r^p) > 0 for every r > 0: it vanishes on no interval at
    # the origin, although for p >= 2 every sample within a decade of 0.01
    # underflows to 0
    rep = validate_for_regime(profile_k1(2.0, ExpFlatG(p)))
    assert not rep.ok
    assert rep.failed() == ("zero_near_origin",)
    assert rep.worst_violation > 0.0 and rep.location > 0.0


@pytest.mark.parametrize("l", [2, 5, 11, 12, 20])
def test_validator_rejects_a_monomial_in_equality_regime_for_every_l(l):
    # g = r^l > 0 for every r > 0, however small it is near 0; the failure
    # shows g at r = 1
    rep = validate_for_regime(profile_k1(2.0, MonomialG(l)))
    assert rep.failed() == ("zero_near_origin",) and rep.condition == "zero_near_origin"
    assert rep.location == 1.0 and rep.worst_violation == 1.0


@pytest.mark.parametrize("beta", [2.5, 3.0, 4.0, 6.5])
def test_validator_asks_a_monomial_for_l_above_floor_beta(beta):
    # r^l vanishes through order l - 1 at 0: flat enough iff l >= floor(beta) + 1;
    # a failure shows g/r^(floor(beta)+1) = 1 at r = 1, and r^1 fails scaling
    # first, by 2 - 1 at r = 1
    m = math.floor(beta) + 1
    for l in range(1, 21):
        rep = validate_for_regime(profile_k1(beta, MonomialG(l)))
        assert rep.ok is (l >= m), (l, rep)
        if not rep.ok:
            assert rep.condition == ("scaling" if l == 1 else "flatness") and "flatness" in rep.failed(), (l, rep)
            assert rep.location == 1.0 and rep.worst_violation == 1.0


def test_validator_rejects_insufficient_flatness():
    # g = r^3 with beta = 3 needs vanishing through order 3; r^3 only gives 2
    rep = validate_for_regime(profile_k1(3.0, MonomialG(3.0)))
    assert not rep.ok
    assert rep.condition == "flatness"
    assert rep.failed() == ("flatness",)


@pytest.mark.parametrize("case", sorted(G_CASES))
def test_every_condition_reports_a_python_bool(case):
    for beta in (2.0, 6.0):  # the equality regime, then the strict one
        rep = validate_for_regime(profile_k1(beta, G_CASES[case]))
        assert all(c.ok is True or c.ok is False for c in rep.conditions), rep.conditions
        assert rep.ok is True or rep.ok is False


def test_validator_dispatch():
    assert validate_for_regime(profile_k1(2.0)).ok
    assert validate_for_regime(profile_k1(3.0, MonomialG(4.0))).ok


def test_validator_tabulated_expflat_passes():
    base = profile_k1(4.0, ExpFlatG(1.0))
    pts = np.geomspace(1e-3, 3.0, 500)
    pts = np.concatenate([[0.0], pts])
    vals, ders = eval_g(base, pts)
    prof = profile_k1(4.0, TabulatedG(pts, vals, ders))
    rep = validate_for_regime(prof)
    assert rep.ok, (rep.condition, rep.worst_violation)
    # the same g on [0, 10], judged past r = 3 too
    pts = np.concatenate([[0.0], np.geomspace(1e-3, 10.0, 800)])
    rep = validate_for_regime(profile_k1(3.0, TabulatedG(pts, *eval_g(base, pts))))
    assert rep.ok, (rep.condition, rep.worst_violation)


def _power_table(lo):
    """(r - lo)^6 on [lo, 3], 301 rows, with exact derivatives."""
    pts = np.linspace(lo, 3.0, 301)
    return TabulatedG(pts, (pts - lo) ** 6, 6.0 * (pts - lo) ** 5)


@pytest.mark.parametrize(
    "lo, beta, worst",
    [(0.0, 4.0, 4e-6), (0.0, 3.5, 4e-6), (0.0, 2.5, 3e-8), (0.005, 4.0, 0.005)],
    ids=["beta4", "beta3.5", "beta2.5", "shifted"],
)
def test_validator_judges_a_tables_origin_interval_exactly(lo, beta, worst):
    # these tables of (r - lo)^6 pass nonnegative and scaling; but a long run
    # reads only the first cubic, on [lo, lo + 0.01], which for
    # g = r^6 is -3e-8 r^2 + 4e-6 r^3 (lam^beta g(r/lam) ~ -lam^(beta-2)), or
    # reads g below a table that does not start at 0
    rep = validate_for_regime(profile_k1(beta, _power_table(lo)))
    assert rep.failed() == ("origin_interval",) and rep.condition == "origin_interval"
    assert rep.location == lo
    assert_allclose(rep.worst_violation, worst, rtol=1e-9)
    # the equality regime asks the whole first cubic to vanish
    assert "origin_interval" in validate_for_regime(profile_k1(2.0, _power_table(lo))).failed()


def _cubic_table(lo, hi):
    pts = np.linspace(lo, hi, 9)
    return TabulatedG(pts, *_cubic(pts))


@pytest.mark.parametrize("beta", [2.0, 3.0])
def test_validator_samples_only_inside_a_narrow_table(beta):
    # no query leaves the table: a table that does not start at 0 fails
    # origin_interval at its first node
    rep = validate_for_regime(profile_k1(beta, _cubic_table(0.5, 2.0)))
    assert not rep.ok
    assert "origin_interval" in rep.failed()
    assert all(0.5 <= c.location <= 2.0 for c in rep.conditions)


def _r4_table():
    """r^4 exp(-1/r) with exact derivatives on [0] + linspace(0.001, 3, 300)."""
    pts = np.concatenate([[0.0], np.linspace(0.001, 3.0, 300)])
    base = profile_k1(3.0, ExpFlatG(1.0))  # r^2 exp(-1/r)
    g, gp = eval_g(base, pts)
    return pts, g * pts**2, gp * pts**2 + 2.0 * pts * g


def test_validator_checks_a_tables_nonnegativity_between_samples():
    # the last interval's end derivatives are -5g/h and +5g/h: its cubic dips
    # below 0 between the nodes 2.99 and 3 (and g' < 0 at 2.99 fails scaling)
    pts, g, gp = _r4_table()
    assert validate_for_regime(profile_k1(3.0, TabulatedG(pts, g, gp))).ok
    h = pts[-1] - pts[-2]
    gp[-2:] = -5.0 * g[-2] / h, 5.0 * g[-1] / h
    dipped = profile_k1(3.0, TabulatedG(pts, g, gp))
    rep = validate_for_regime(dipped)
    assert rep.failed() == ("nonnegative", "scaling") and rep.condition == "nonnegative"
    assert_allclose(rep.worst_violation, 14.405, rtol=1e-4)
    assert pts[-2] < rep.location < pts[-1]
    # the interpolant itself is that low there
    assert_allclose(eval_g(dipped, rep.location)[0], -rep.worst_violation, rtol=1e-12)


def _expflat_table():
    """r^2 exp(-1/r) with exact derivatives on [0] + geomspace(0.001, 10, 800)."""
    pts = np.concatenate([[0.0], np.geomspace(1e-3, 10.0, 800)])
    return (pts, *eval_g(profile_k1(3.0, ExpFlatG(1.0)), pts))


@pytest.mark.parametrize(
    "table, at, dg, worst",
    [(_r4_table, 2.98997, -0.5, 2.8898e3), (_expflat_table, 8.0331, 0.0, 14.186)],
    ids=["r4-below-3", "expflat-past-3"],
)
def test_validator_checks_a_tables_scaling_between_samples(table, at, dg, worst):
    # one node's derivative set to dg g/h, g >= 0 kept: (1 + k alpha) g/r <= g'
    # fails there, below r = 3 (r4) or past it (expflat)
    pts, g, gp = table()
    j = int(np.argmin(abs(pts - at)))
    gp[j] = dg * g[j] / (pts[j + 1] - pts[j])
    prof = profile_k1(3.0, TabulatedG(pts, g, gp))
    rep = validate_for_regime(prof)
    assert rep.failed() == ("scaling",) and rep.condition == "scaling"
    assert rep.location == pts[j]
    assert_allclose(rep.worst_violation, worst, rtol=1e-4)
    g1, gp1 = eval_g(prof, rep.location)
    assert_allclose(2.0 * g1 / rep.location - gp1, rep.worst_violation, rtol=1e-9)


@pytest.mark.parametrize("beta", [2.0, 3.0])
def test_validator_fails_a_table_that_holds_no_sample(beta):
    # [5, 10] is judged on every cubic, and misses the origin
    rep = validate_for_regime(profile_k1(beta, _cubic_table(5.0, 10.0)))
    assert not rep.ok
    assert rep.failed() == ("origin_interval",) and rep.condition == "origin_interval"
    assert rep.location == 5.0 and rep.worst_violation == 5.0


# ---------------------------------------------------------------------------
# the validator's scaling verdict against the definition, on dense samples


def _scaling_violations(prof, r):
    """(1 + k alpha) g/r - g' beyond the rounding allowance, at radii r > 0."""
    g, gp = eval_g(prof, r)
    return (1.0 + prof.ka) * g / r - gp > 1e-12 * (1.0 + abs(gp))


@pytest.mark.parametrize(
    "n, k, alpha", [(1, 1, 0.5), (1, 1, 1.0), (1, 1, 3.0), (2, 1, 1.5), (2, 2, 0.5), (2, 2, 1.0), (2, 2, 1.5)]
)
def test_analytic_scaling_verdicts_match_a_dense_check(n, k, alpha):
    kinds = [
        ZeroG(),
        *(MonomialG(l) for l in range(1, 9)),
        *(ExpFlatG(p) for p in (0.3, 1.0, 2.0)),
        *(ExpFlatG(p=p, epsilon=eps) for eps in (0.01, 0.5) for p in (0.3, 2.0)),
    ]
    r = np.geomspace(1e-3, 1e2, 2000)
    for beta in (1.0 + k * alpha, 2.5 + k * alpha):
        for g in kinds:
            prof = SpeedProfile(n=n, k=k, alpha=alpha, beta=beta, g=g)
            scaling = validate_for_regime(prof).conditions[1]
            assert scaling.name == "scaling"
            assert scaling.ok is not _scaling_violations(prof, r).any(), (g, beta, scaling)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_a_tables_scaling_verdict_is_exact(data):
    # a power r^l on random nodes, perhaps lifted off 0, with one node's
    # derivative perhaps scaled: a pass holds on 64 points of every interval,
    # and a failure is one at the location it reports
    n, k, alpha = data.draw(st.sampled_from([(1, 1, 1.0), (1, 1, 0.5), (2, 2, 0.5), (2, 1, 2.0)]))
    m = 1.0 + k * alpha
    steps = data.draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12))
    pts = data.draw(st.sampled_from([0.0, 0.05])) + np.concatenate([[0.0], np.cumsum(steps)])
    l = data.draw(st.sampled_from([1.0, m, m + 1.0, m + 2.5]))
    vals = pts**l + data.draw(st.sampled_from([0.0, 0.01]))
    ders = l * pts ** (l - 1.0)
    ders[data.draw(st.integers(0, pts.size - 1))] *= data.draw(st.sampled_from([1.0, 0.999, 0.5, -0.5]))
    prof = SpeedProfile(n=n, k=k, alpha=alpha, beta=m + 1.0, g=TabulatedG(pts, vals, ders))
    scaling = validate_for_regime(prof).conditions[1]
    tol = 1e-12 * (1.0 + np.abs(ders).max())
    if scaling.ok:
        r = np.minimum(pts[:-1, None] + np.linspace(0.0, 1.0, 64) * np.diff(pts)[:, None], pts[-1]).ravel()
        r = r[r > 0.0]
        g, gp = eval_g(prof, r)
        assert (m * g / r - gp <= tol).all(), scaling
    else:
        at = scaling.location
        g, gp = eval_g(prof, at)
        assert at * gp - m * g + tol * at < 0.0, scaling  # the inequality times r
