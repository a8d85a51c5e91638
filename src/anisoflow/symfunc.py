"""Elementary symmetric polynomials of principal curvatures and the k-positive cone.

One recurrence serves every surface dimension n and every 1 <= k <= n:
e_j(kappa_1..kappa_m) = e_j(kappa_1..kappa_{m-1}) + kappa_m e_{j-1}(kappa_1..kappa_{m-1}),
with e_0 = 1.  Functions broadcast over leading axes, so a curvature vector is
an array of shape (..., n) and a single point is just the (n,) case.
"""

import functools

import numpy as np

#: strict cone membership is tested as margin > CONE_EPS
CONE_EPS = 1e-10


def _checked(kappa, k):
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k} with n={n}")
    return kappa


def _sigmas(kappa, k):
    """[sigma_0, ..., sigma_k] of the entries along kappa's last axis, k <= n.  Each
    new e_m is kappa_m e_{m-1}; j runs down, so e[j - 1] still holds the last e_{j-1}."""
    e = [np.ones(kappa.shape[:-1])]
    for m in range(kappa.shape[-1]):
        x = kappa[..., m]
        if m < k:
            e.append(x * e[m])
        for j in range(min(m, k), 0, -1):
            e[j] = e[j] + x * e[j - 1]
    return e


def sigma_k(kappa, k):
    """k-th elementary symmetric polynomial of the entries of ``kappa``.

    Parameters
    ----------
    kappa : array_like, shape (..., n)
    k : int, 1 <= k <= n

    Returns
    -------
    ndarray of shape (...)
    """
    return _sigmas(_checked(kappa, k), k)[k]


def sigma_k_partials(kappa, k):
    """Gradient of sigma_k: component i is sigma_{k-1} of kappa with entry i removed.

    Shape matches ``kappa``.  sigma_0 of the empty tuple is 1, so k=1 gives ones.
    """
    kappa = _checked(kappa, k)
    return np.stack([_sigmas(np.delete(kappa, i, axis=-1), k - 1)[k - 1] for i in range(kappa.shape[-1])], axis=-1)


def cone_margin(kappa, k):
    """min over j = 1..k of sigma_j(kappa); positive exactly on the Gamma_k^+ cone."""
    return functools.reduce(np.minimum, _sigmas(_checked(kappa, k), k)[1:])


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
