"""Elementary symmetric polynomials of curvature vectors and the cone test."""

import itertools
import math

import numpy as np
import pytest

from anisoflow.sphere_geometry import _eigen_2x2
from anisoflow.symfunc import (
    cone_margin,
    in_gamma_k_plus,
    sigma_k,
    sigma_k_partials,
)


def brute_sigma(kappa, k):
    """Independent oracle: sum over k-subsets of products."""
    return sum(math.prod(c) for c in itertools.combinations(kappa, k))


def brute_partials(kappa, k):
    out = []
    for i in range(len(kappa)):
        rest = list(kappa[:i]) + list(kappa[i + 1 :])
        out.append(brute_sigma(rest, k - 1) if k > 1 else 1.0)
    return np.array(out)


def test_sigma_spot_values():
    assert sigma_k(np.array([1.0, 1.0]), 2) == 1.0
    assert sigma_k(np.array([2.0, 3.0]), 1) == 5.0
    assert sigma_k(np.array([1.0, 2.0, 3.0]), 2) == 11.0


def test_sigma_partials_spot_values():
    np.testing.assert_array_equal(sigma_k_partials(np.array([1.0, 1.0, 1.0]), 2), [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(sigma_k_partials(np.array([2.0, 3.0]), 2), [3.0, 2.0])
    np.testing.assert_array_equal(sigma_k_partials(np.array([-4.0, 7.0]), 1), [1.0, 1.0])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sigma_matches_brute_force(n):
    rng = np.random.default_rng(5 + n)
    kap = rng.normal(0.0, 2.0, size=(300, n))
    for k in range(1, n + 1):
        expect = np.array([brute_sigma(row, k) for row in kap])
        np.testing.assert_allclose(sigma_k(kap, k), expect, rtol=1e-12, atol=1e-12)
        expect_p = np.array([brute_partials(row, k) for row in kap])
        np.testing.assert_allclose(sigma_k_partials(kap, k), expect_p, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_partials_are_derivatives(n):
    # central finite difference of sigma_k in each slot
    rng = np.random.default_rng(17 + n)
    h = 1e-6
    for k in range(1, n + 1):
        for _ in range(50):
            kap = rng.normal(0.5, 1.0, size=n)
            grad = sigma_k_partials(kap, k)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                fd = (sigma_k(kap + e, k) - sigma_k(kap - e, k)) / (2 * h)
                assert abs(fd - grad[i]) < 1e-6 * max(1.0, abs(grad[i]))


def test_sigma_k_out_of_range():
    with pytest.raises(ValueError):
        sigma_k(np.array([1.0, 2.0]), 3)
    with pytest.raises(ValueError):
        sigma_k(np.array([1.0]), 0)
    with pytest.raises(ValueError):
        sigma_k_partials(np.array([1.0, 2.0, 3.0]), 4)


def test_cone_membership():
    inside, margin = in_gamma_k_plus(np.array([1.0, 1.0, 1.0]), 3)
    assert inside and margin == 1.0
    inside, margin = in_gamma_k_plus(np.array([1.0, 1.0, -0.1]), 2)
    assert inside
    np.testing.assert_allclose(margin, 0.8)
    inside, margin = in_gamma_k_plus(np.array([1.0, -1.0]), 1)
    assert not inside and margin == 0.0


def test_cone_margin_is_min_of_sigmas():
    rng = np.random.default_rng(99)
    kap = rng.normal(1.0, 1.0, size=(200, 3))
    for k in (1, 2, 3):
        margin = cone_margin(kap, k)
        expect = np.min(
            np.stack([sigma_k(kap, j) for j in range(1, k + 1)], axis=-1), axis=-1
        )
        np.testing.assert_array_equal(margin, expect)


def test_euler_identity_tight():
    # sum_i dsigma_k/dkappa_i * kappa_i == k * sigma_k, 1e-12 relative
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        kap = rng.normal(0.0, 2.0, size=(500, n))
        for k in range(1, n + 1):
            lhs = np.sum(sigma_k_partials(kap, k) * kap, axis=-1)
            rhs = k * sigma_k(kap, k)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_eigenvalues_sorted_descending():
    # the 2x2 eigen formula the S^2 curvature route uses, on symmetric W and
    # on E^-1 W with E positive definite (a real spectrum, as for E^-1 B')
    rng = np.random.default_rng(31)
    for _ in range(100):
        A, C = rng.normal(size=(2, 2, 2))
        W = 0.5 * (A + A.T)
        E = C @ C.T + 0.1 * np.eye(2)
        for M in (W, np.linalg.solve(E, W)):
            eigs = _eigen_2x2(M[0, 0], M[0, 1], M[1, 0], M[1, 1], 1.0)
            assert np.all(np.diff(eigs) <= 1e-12)
            np.testing.assert_allclose(np.sum(eigs), np.trace(M), rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(eigs, np.sort(np.linalg.eigvals(M).real)[::-1], rtol=1e-9, atol=1e-9)
