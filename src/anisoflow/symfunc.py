"""Elementary symmetric polynomials of principal curvatures and the k-positive cone.

Everything here is closed-form for surface dimension n <= 3 (n = 3 exists so the
algebraic identities can be cross-checked one dimension above what the geometry
modules use).  Functions broadcast over leading axes, so a curvature vector is an
array of shape (..., n) and a single point is just the (n,) case.
"""

import numpy as np

#: strict cone membership is tested as margin > CONE_EPS
CONE_EPS = 1e-10


def _check_nk(n, k):
    if n not in (1, 2, 3):
        raise ValueError(f"only n <= 3 is supported, got n={n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k} with n={n}")


def sigma_k(kappa, k):
    """k-th elementary symmetric polynomial of the entries of ``kappa``.

    Parameters
    ----------
    kappa : array_like, shape (..., n) with n in {1, 2, 3}
    k : int, 1 <= k <= n

    Returns
    -------
    ndarray of shape (...)
    """
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.shape[-1]
    _check_nk(n, k)
    if k == 1:
        return kappa.sum(axis=-1)
    if n == 2:
        return kappa[..., 0] * kappa[..., 1]
    k1, k2, k3 = kappa[..., 0], kappa[..., 1], kappa[..., 2]
    if k == 2:
        return k1 * k2 + k1 * k3 + k2 * k3
    return k1 * k2 * k3


def sigma_k_partials(kappa, k):
    """Gradient of sigma_k: component i is sigma_{k-1} of kappa with entry i removed.

    Shape matches ``kappa``.  sigma_0 of the empty tuple is 1, so k=1 gives ones.
    """
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.shape[-1]
    _check_nk(n, k)
    if k == 1:
        return np.ones_like(kappa)
    if n == 2:
        return kappa[..., ::-1].copy()
    k1, k2, k3 = kappa[..., 0], kappa[..., 1], kappa[..., 2]
    if k == 2:
        s1 = k1 + k2 + k3
        return np.stack([s1 - k1, s1 - k2, s1 - k3], axis=-1)
    return np.stack([k2 * k3, k1 * k3, k1 * k2], axis=-1)


def cone_margin(kappa, k):
    """min over j = 1..k of sigma_j(kappa); positive exactly on the Gamma_k^+ cone."""
    kappa = np.asarray(kappa, dtype=float)
    _check_nk(kappa.shape[-1], k)
    margin = sigma_k(kappa, 1)
    for j in range(2, k + 1):
        margin = np.minimum(margin, sigma_k(kappa, j))
    return margin


def in_gamma_k_plus(kappa, k):
    """Test membership in the cone Gamma_k^+ = {sigma_1 > 0, ..., sigma_k > 0}.

    Returns
    -------
    inside : bool ndarray, shape (...)
        margin > CONE_EPS (strict positivity with a numerical guard band)
    margin : ndarray, shape (...)
        min over j <= k of sigma_j(kappa)
    """
    margin = cone_margin(kappa, k)
    return margin > CONE_EPS, margin
