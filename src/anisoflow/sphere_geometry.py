"""Radial graphs over S^1 and S^2: grids, derivatives, curvature.

A star-shaped hypersurface is stored as phi = log r on a structured grid:

* n = 1: N equispaced nodes theta_j = 2*pi*j/N on the circle (periodic);
* n = 2: an equirectangular N_lat x N_lon grid with cell-centered latitudes
  theta_i = (i + 1/2) * pi / N_lat, so no node sits on a pole.  Longitude is
  periodic; latitude stencils close over the poles with the antipodal rule
  value(-theta, phi) = value(theta, phi + pi), which is why N_lon must be even.

All derivatives are 4th-order central differences.  ``weingarten`` builds the
shape operator from the graph formulas (induced metric r^2*(g_S + dphi dphi),
second form (r/rho)*(g_S + dphi dphi - Hess phi)), symmetrized through the
metric's Cholesky factor so the operator is an honest symmetric matrix per
node.  ``embedding_oracle`` recomputes curvature from the embedded position
vector and classical fundamental-form algebra; it shares only the stencils with
``weingarten`` and exists to cross-check its geometry.
"""

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


class SingularMetricError(ArithmeticError):
    """First fundamental form lost positive definiteness."""


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True, eq=True)
class SphericalGrid:
    """Structured grid on S^n.  Build with ``circle`` or ``sphere``."""

    n: int
    n_lat: int
    n_lon: int

    @classmethod
    def circle(cls, N):
        if N < 16:
            raise ValueError(f"need at least 16 nodes, got {N}")
        return cls(n=1, n_lat=int(N), n_lon=0)

    @classmethod
    def sphere(cls, n_lat, n_lon):
        if n_lat < 16 or n_lon < 16:
            raise ValueError(f"need at least 16 nodes per direction, got {n_lat}x{n_lon}")
        if n_lon % 2:
            raise ValueError(f"longitude count must be even for the pole rule, got {n_lon}")
        return cls(n=2, n_lat=int(n_lat), n_lon=int(n_lon))

    @property
    def shape(self):
        return (self.n_lat,) if self.n == 1 else (self.n_lat, self.n_lon)

    @property
    def h_theta(self):
        return TWO_PI / self.n_lat if self.n == 1 else math.pi / self.n_lat

    @property
    def h_phi(self):
        if self.n == 1:
            raise AttributeError("circle grids have no longitude spacing")
        return TWO_PI / self.n_lon

    @property
    def h(self):
        """Smallest coordinate spacing (radians)."""
        return self.h_theta if self.n == 1 else min(self.h_theta, self.h_phi)

    @property
    def theta(self):
        if self.n == 1:
            return np.arange(self.n_lat) * (TWO_PI / self.n_lat)
        return (np.arange(self.n_lat) + 0.5) * (math.pi / self.n_lat)

    @property
    def phi_lon(self):
        if self.n == 1:
            raise AttributeError("circle grids have no longitude coordinate")
        return np.arange(self.n_lon) * (TWO_PI / self.n_lon)

    def describe(self):
        if self.n == 1:
            return f"n=1 N={self.n_lat}"
        return f"n=2 N_lat={self.n_lat} N_lon={self.n_lon}"


@dataclass(frozen=True, eq=False)
class RadialGraph:
    """phi = log r sampled on a grid; the surface is X = exp(phi) * (unit vector)."""

    grid: SphericalGrid
    phi: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        if phi.shape != self.grid.shape:
            raise ValueError(f"phi shape {phi.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(phi)):
            raise ValueError("phi must be finite")
        object.__setattr__(self, "phi", phi)

    def r(self):
        return np.exp(self.phi)

    def copy(self):
        return RadialGraph(self.grid, self.phi.copy())

    def __eq__(self, other):
        return (
            isinstance(other, RadialGraph)
            and self.grid == other.grid
            and np.array_equal(self.phi, other.phi)
        )


def sphere_graph(grid, r0):
    """The round sphere of radius r0 as a graph."""
    if not r0 > 0:
        raise ValueError(f"radius must be positive, got {r0}")
    return RadialGraph(grid, np.full(grid.shape, math.log(r0)))


# ---------------------------------------------------------------------------
# finite differences


def _pad_periodic(F):
    """Two wrapped ghost entries past each end of axis 0."""
    return np.concatenate((F[-2:], F, F[:2]))


def _pad_lat(F, n_lon):
    """Two ghost rows past each pole via value(-theta, phi) = value(theta, phi+pi)."""
    half = n_lon // 2
    P = np.empty((F.shape[0] + 4, n_lon), dtype=float)
    P[2:-2] = F
    P[1] = np.roll(F[0], half)
    P[0] = np.roll(F[1], half)
    P[-2] = np.roll(F[-1], half)
    P[-1] = np.roll(F[-2], half)
    return P


def _d1(P, h):
    """First derivative along axis 0 of P, padded by two ghost entries at each end."""
    return (P[:-4] - 8.0 * P[1:-3] + 8.0 * P[3:-1] - P[4:]) / (12.0 * h)


def _d2(P, h):
    """Second derivative along axis 0 of P, padded by two ghost entries at each end."""
    return (-P[:-4] + 16.0 * P[1:-3] - 30.0 * P[2:-2] + 16.0 * P[3:-1] - P[4:]) / (
        12.0 * h * h
    )


def _partials_sphere(grid, F):
    """4th-order partials (F_t, F_p, F_tt, F_tp, F_pp) on the n=2 grid."""
    ht, hp = grid.h_theta, grid.h_phi
    P = _pad_lat(F, grid.n_lon)
    F_t = _d1(P, ht)
    F_tt = _d2(P, ht)
    Q = _pad_periodic(F.T)
    F_p = _d1(Q, hp).T
    F_pp = _d2(Q, hp).T
    F_tp = _d1(_pad_lat(F_p, grid.n_lon), ht)
    return F_t, F_p, F_tt, F_tp, F_pp


def covariant_derivatives(graph):
    """Round-metric gradient and covariant Hessian of phi.

    Returns
    -------
    grad : (N,) for n=1, (N_lat, N_lon, 2) for n=2 (covariant components)
    hess : (N,) for n=1, (N_lat, N_lon, 2, 2) for n=2
    """
    grid, phi = graph.grid, graph.phi
    if grid.n == 1:
        P = _pad_periodic(phi)
        return _d1(P, grid.h_theta), _d2(P, grid.h_theta)
    t = grid.theta
    sin_t, cos_t = np.sin(t)[:, None], np.cos(t)[:, None]
    cot_t = cos_t / sin_t
    F_t, F_p, F_tt, F_tp, F_pp = _partials_sphere(grid, phi)
    grad = np.stack([F_t, F_p], axis=-1)
    H_tt = F_tt
    H_tp = F_tp - cot_t * F_p
    H_pp = F_pp + sin_t * cos_t * F_t
    hess = np.empty(grid.shape + (2, 2))
    hess[..., 0, 0] = H_tt
    hess[..., 0, 1] = H_tp
    hess[..., 1, 0] = H_tp
    hess[..., 1, 1] = H_pp
    return grad, hess


# ---------------------------------------------------------------------------
# curvature


@dataclass(frozen=True)
class WeingartenField:
    """Per-node curvature data of a radial graph.

    kappa holds the principal curvatures (descending); sigma the elementary
    symmetric polynomials sigma_1..sigma_n of kappa.  rho = sqrt(1+|grad phi|^2)
    and u = r/rho is the support function.
    """

    grid: SphericalGrid
    r: np.ndarray
    rho: np.ndarray
    grad_sq: np.ndarray
    u: np.ndarray
    kappa: np.ndarray
    sigma: np.ndarray

    def grad_phi_norm(self):
        # |grad phi| is kept as a stored square rather than recovered from
        # rho: sqrt(rho^2 - 1) loses everything below ~1e-8 once rho rounds
        # to 1, and the diagnostics need small gradients at full precision.
        return np.sqrt(self.grad_sq)

    def grad_r_norm(self):
        return self.r * self.grad_phi_norm()


def _chol_shape_operator(G11, G12, G22, B11, B12, B22):
    """Symmetric S = L^-1 B L^-T with G = L L^T; eigenvalues of S solve det(B - x G) = 0."""
    if np.any(G11 <= 0.0):
        raise SingularMetricError("metric lost positivity (G11 <= 0)")
    L11 = np.sqrt(G11)
    L21 = G12 / L11
    M22 = G22 - L21 * L21
    if np.any(M22 <= 0.0):
        raise SingularMetricError("metric lost positivity (Schur complement <= 0)")
    L22 = np.sqrt(M22)
    Y11 = B11 / L11
    Y12 = B12 / L11
    Y21 = (B12 - L21 * Y11) / L22
    Y22 = (B22 - L21 * Y12) / L22
    S11 = Y11 / L11
    S12 = (Y12 - L21 * (Y11 / L11)) / L22
    S21 = Y21 / L11
    S22 = (Y22 - L21 * (Y21 / L11)) / L22
    S12 = 0.5 * (S12 + S21)
    return S11, S12, S22


def _kappa_sigma(S11, S12, S22):
    """(kappa, sigma) of the symmetric 2x2 [[S11, S12], [S12, S22]], kappa descending."""
    mean = 0.5 * (S11 + S22)
    disc = np.sqrt((0.5 * (S11 - S22)) ** 2 + S12 * S12)
    kappa = np.stack([mean + disc, mean - disc], axis=-1)
    sigma = np.stack([S11 + S22, S11 * S22 - S12 * S12], axis=-1)
    return kappa, sigma


def weingarten(graph):
    """Curvature data from the radial-graph formulas."""
    grid = graph.grid
    if grid.n == 1:
        phi_d, phi_dd = covariant_derivatives(graph)
        r = graph.r()
        rho2 = 1.0 + phi_d * phi_d
        rho = np.sqrt(rho2)
        kappa = (1.0 + phi_d * phi_d - phi_dd) / (r * rho * rho2)
        return WeingartenField(
            grid=grid,
            r=r,
            rho=rho,
            grad_sq=phi_d * phi_d,
            u=r / rho,
            kappa=kappa[:, None].copy(),
            sigma=kappa[:, None].copy(),
        )

    t = grid.theta
    sin_t = np.sin(t)[:, None]
    grad, hess = covariant_derivatives(graph)
    p_t, p_p = grad[..., 0], grad[..., 1]
    r = graph.r()
    grad2 = p_t * p_t + (p_p / sin_t) ** 2
    rho = np.sqrt(1.0 + grad2)
    r2 = r * r
    G11 = r2 * (1.0 + p_t * p_t)
    G12 = r2 * (p_t * p_p)
    G22 = r2 * (sin_t * sin_t + p_p * p_p)
    c = r / rho
    B11 = c * (1.0 + p_t * p_t - hess[..., 0, 0])
    B12 = c * (p_t * p_p - hess[..., 0, 1])
    B22 = c * (sin_t * sin_t + p_p * p_p - hess[..., 1, 1])
    kappa, sigma = _kappa_sigma(*_chol_shape_operator(G11, G12, G22, B11, B12, B22))
    return WeingartenField(
        grid=grid,
        r=r,
        rho=rho,
        grad_sq=grad2,
        u=r / rho,
        kappa=kappa,
        sigma=sigma,
    )


def embedding_oracle(graph):
    """Curvature recomputed from the embedded position vector (cross-check route).

    Differentiates X = r(theta) * (unit vector) componentwise and applies the
    classical fundamental-form formulas.  It shares only the output container
    and the finite-difference stencils with ``weingarten``.
    """
    grid = graph.grid
    r = np.exp(graph.phi)
    if grid.n == 1:
        t = grid.theta
        x = r * np.cos(t)
        y = r * np.sin(t)
        h = grid.h_theta
        Px, Py = _pad_periodic(x), _pad_periodic(y)
        xd, yd = _d1(Px, h), _d1(Py, h)
        xdd, ydd = _d2(Px, h), _d2(Py, h)
        speed2 = xd * xd + yd * yd
        if np.any(speed2 <= 0.0):
            raise SingularMetricError("curve parameterization degenerated")
        speed = np.sqrt(speed2)
        kappa = (xd * ydd - yd * xdd) / (speed2 * speed)
        u = (x * yd - y * xd) / speed
        rr = np.hypot(x, y)
        rdot = (x * xd + y * yd) / rr
        return WeingartenField(
            grid=grid,
            r=rr,
            rho=rr / u,
            grad_sq=(rdot / rr) ** 2,
            u=u,
            kappa=kappa[:, None].copy(),
            sigma=kappa[:, None].copy(),
        )

    t = grid.theta[:, None]
    p = grid.phi_lon[None, :]
    sin_t, cos_t = np.sin(t), np.cos(t)
    X = (r * sin_t * np.cos(p), r * sin_t * np.sin(p), r * cos_t)
    Xt, Xp, Xtt, Xtp, Xpp = zip(*(_partials_sphere(grid, comp) for comp in X))

    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    E, F, G2 = dot(Xt, Xt), dot(Xt, Xp), dot(Xp, Xp)
    det = E * G2 - F * F
    if np.any(det <= 0.0):
        raise SingularMetricError("first fundamental form degenerated")
    nx = Xt[1] * Xp[2] - Xt[2] * Xp[1]
    ny = Xt[2] * Xp[0] - Xt[0] * Xp[2]
    nz = Xt[0] * Xp[1] - Xt[1] * Xp[0]
    nn = np.sqrt(nx * nx + ny * ny + nz * nz)
    nu = (nx / nn, ny / nn, nz / nn)
    L = -dot(Xtt, nu)
    M = -dot(Xtp, nu)
    N2 = -dot(Xpp, nu)

    # principal curvatures via mean/Gauss curvature (classical route)
    H = 0.5 * (E * N2 - 2.0 * F * M + G2 * L) / det
    K = (L * N2 - M * M) / det
    disc = np.sqrt(np.maximum(H * H - K, 0.0))
    kappa = np.stack([H + disc, H - disc], axis=-1)
    sigma = np.stack([2.0 * H, K], axis=-1)

    u = dot(X, nu)
    rr = np.sqrt(dot(X, X))
    rt = dot(X, Xt) / rr
    rp = dot(X, Xp) / rr
    grad_sq = (rt * rt + (rp / sin_t) ** 2) / (rr * rr)
    return WeingartenField(
        grid=grid,
        r=rr,
        rho=rr / u,
        grad_sq=grad_sq,
        u=u,
        kappa=kappa,
        sigma=sigma,
    )


# ---------------------------------------------------------------------------
# serialization: "theta[,phi],value" rows, 17 significant digits, bit-exact


def _fmt(x):
    return format(float(x), ".17g")


def graph_to_text(graph):
    grid = graph.grid
    lines = [grid.describe()]
    if grid.n == 1:
        for th, v in zip(grid.theta, graph.phi):
            lines.append(f"{_fmt(th)},{_fmt(v)}")
    else:
        lon = grid.phi_lon
        for i, th in enumerate(grid.theta):
            for j, ph in enumerate(lon):
                lines.append(f"{_fmt(th)},{_fmt(ph)},{_fmt(graph.phi[i, j])}")
    return "\n".join(lines) + "\n"


def graph_from_text(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph serialization")
    grid = _parse_header(lines[0])
    body = lines[1:]
    phi = np.empty(grid.shape)
    if grid.n == 1:
        if len(body) != grid.n_lat:
            raise ValueError(f"expected {grid.n_lat} rows, got {len(body)}")
        theta = grid.theta
        for j, ln in enumerate(body):
            parts = ln.split(",")
            if len(parts) != 2:
                raise ValueError(f"bad row {ln!r}")
            if float(parts[0]) != theta[j]:
                raise ValueError(f"row {j}: theta {parts[0]} does not match the grid")
            phi[j] = float(parts[1])
    else:
        if len(body) != grid.n_lat * grid.n_lon:
            raise ValueError(f"expected {grid.n_lat * grid.n_lon} rows, got {len(body)}")
        theta, lon = grid.theta, grid.phi_lon
        idx = 0
        for i in range(grid.n_lat):
            for j in range(grid.n_lon):
                parts = body[idx].split(",")
                if len(parts) != 3:
                    raise ValueError(f"bad row {body[idx]!r}")
                if float(parts[0]) != theta[i] or float(parts[1]) != lon[j]:
                    raise ValueError(f"row {idx}: node does not match the grid")
                phi[i, j] = float(parts[2])
                idx += 1
    return RadialGraph(grid, phi)


def _parse_header(line):
    fields = dict(tok.split("=", 1) for tok in line.split())
    try:
        if fields.get("n") == "1":
            return SphericalGrid.circle(int(fields["N"]))
        if fields.get("n") == "2":
            return SphericalGrid.sphere(int(fields["N_lat"]), int(fields["N_lon"]))
    except KeyError as err:
        raise ValueError(f"bad graph header: {line!r} lacks {err.args[0]}=") from None
    raise ValueError(f"bad graph header: {line!r}")


def save_graph(graph, path):
    with open(path, "w") as fh:
        fh.write(graph_to_text(graph))


def load_graph(path):
    with open(path) as fh:
        return graph_from_text(fh.read())
