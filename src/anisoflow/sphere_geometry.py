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
from functools import cached_property, partial

import numpy as np

TWO_PI = 2.0 * math.pi


class SingularMetricError(ArithmeticError):
    """First fundamental form lost positive definiteness."""


def _read_only(a):
    a.flags.writeable = False
    return a


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

    # Per-grid tables: built on first use, cached on the instance (outside the
    # fields, so equality and hashing ignore them), and read-only.

    @cached_property
    def sin_theta(self):
        """sin(theta) as an (N_lat, 1) column."""
        return _read_only(np.sin(self.theta)[:, None])

    @cached_property
    def cos_theta(self):
        """cos(theta) as an (N_lat, 1) column."""
        return _read_only(np.cos(self.theta)[:, None])

    @cached_property
    def inv_spacing_sq(self):
        """1/h_theta^2 + 1/(h_phi^2 sin^2(theta)) as an (N_lat, 1) column: each
        row's inverse squared spacings summed over both directions, which the
        non-zonal dt bound multiplies by the diffusivity."""
        return _read_only(1.0 / self.h_theta**2 + 1.0 / (self.h_phi**2 * self.sin_theta**2))

    @cached_property
    def lat_pad_index(self):
        """Flat indices into an (N_lat, N_lon) field giving its (N_lat + 4, N_lon)
        pole padding: two ghost rows past each pole by the antipodal rule
        value(-theta, phi) = value(theta, phi + pi)."""
        index = np.arange(self.n_lat * self.n_lon).reshape(self.n_lat, self.n_lon)
        across = np.roll(index, self.n_lon // 2, axis=1)  # (theta, phi + pi)
        return _read_only(np.concatenate((across[1::-1], index, across[:-3:-1])))

    @cached_property
    def zonal_strip(self):
        """The (N_lat, 2) grid a longitude-independent n=2 field is evaluated on.

        Two columns are the fewest the longitude padding takes, and the pole
        rule's shift by n_lon // 2 = 1 lands on the twin column.  The strip
        keeps this grid's h_phi: on a zonal field the longitude stencils'
        numerators (a - 8a + 8a - a) round to tiny nonzero values, which
        match the full grid's bit for bit only over the same spacing.
        """
        if self.n != 2:
            raise AttributeError("circle grids have no zonal strip")
        return _ZonalStrip(n=2, n_lat=self.n_lat, n_lon=2, full_n_lon=self.n_lon)

    def describe(self):
        if self.n == 1:
            return f"n=1 N={self.n_lat}"
        return f"n=2 N_lat={self.n_lat} N_lon={self.n_lon}"


@dataclass(frozen=True, eq=True)
class _ZonalStrip(SphericalGrid):
    """Two longitude columns of an n=2 grid with full_n_lon columns, at its spacing."""

    full_n_lon: int

    @property
    def h_phi(self):
        return TWO_PI / self.full_n_lon


@dataclass(frozen=True, eq=False)
class RadialGraph:
    """phi = log r sampled on a grid; the surface is X = exp(phi) * (unit vector)."""

    grid: SphericalGrid
    phi: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        if phi.shape != self.grid.shape:
            raise ValueError(f"phi shape {phi.shape} does not match grid {self.grid.shape}")
        if not np.isfinite(phi).all():
            raise ValueError("phi must be finite")
        object.__setattr__(self, "phi", phi)

    @classmethod
    def _unchecked(cls, grid, phi):
        """A graph on a float array of grid.shape, without the finiteness scan.

        For RK stage inputs phi0 + c*dt*k, sums of finite arrays that only an
        overflow makes non-finite; ``rhs`` then fails on them (NonFiniteRHSError
        on its output, or first an error from the curvature or speed terms).
        """
        graph = object.__new__(cls)
        object.__setattr__(graph, "grid", grid)
        object.__setattr__(graph, "phi", phi)
        return graph

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


def _pad_lat(F, grid):
    """Two ghost rows past each pole via value(-theta, phi) = value(theta, phi+pi)."""
    return F.take(grid.lat_pad_index)


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
    P = _pad_lat(F, grid)
    F_t = _d1(P, ht)
    F_tt = _d2(P, ht)
    Q = _pad_periodic(F.T)
    F_p = _d1(Q, hp).T
    F_pp = _d2(Q, hp).T
    F_tp = _d1(_pad_lat(F_p, grid), ht)
    return F_t, F_p, F_tt, F_tp, F_pp


def _sphere_derivatives(grid, phi):
    """(phi_t, phi_p, H_tt, H_tp, H_pp): gradient and covariant Hessian on the n=2 grid."""
    sin_t, cos_t = grid.sin_theta, grid.cos_theta
    F_t, F_p, F_tt, F_tp, F_pp = _partials_sphere(grid, phi)
    return F_t, F_p, F_tt, F_tp - (cos_t / sin_t) * F_p, F_pp + sin_t * cos_t * F_t


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
        h = grid.h_theta
        return _d1(P, h), _d2(P, h)
    F_t, F_p, H_tt, H_tp, H_pp = _sphere_derivatives(grid, phi)
    grad = np.stack([F_t, F_p], axis=-1)
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

    sigma holds the elementary symmetric polynomials sigma_1..sigma_n of the
    principal curvatures; kappa the principal curvatures themselves
    (descending), built by kappa_fn on first read, since only the step's dt
    bound and the diagnostics read them.  rho = sqrt(1+|grad phi|^2) and
    u = r/rho is the support function.
    """

    grid: SphericalGrid
    r: np.ndarray
    rho: np.ndarray
    grad_sq: np.ndarray
    u: np.ndarray
    sigma: np.ndarray
    kappa_fn: object  # () -> kappa

    @cached_property
    def kappa(self):
        return self.kappa_fn()

    def grad_phi_norm(self):
        # |grad phi| is kept as a stored square rather than recovered from
        # rho: sqrt(rho^2 - 1) loses everything below ~1e-8 once rho rounds
        # to 1, and the diagnostics need small gradients at full precision.
        return np.sqrt(self.grad_sq)


def _chol_shape_operator(G11, G12, G22, B11, B12, B22):
    """Symmetric S = L^-1 B L^-T with G = L L^T; eigenvalues of S solve det(B - x G) = 0."""
    if (G11 <= 0.0).any():
        raise SingularMetricError("metric lost positivity (G11 <= 0)")
    L11 = np.sqrt(G11)
    L21 = G12 / L11
    M22 = G22 - L21 * L21
    if (M22 <= 0.0).any():
        raise SingularMetricError("metric lost positivity (Schur complement <= 0)")
    L22 = np.sqrt(M22)
    Y11 = B11 / L11
    Y12 = B12 / L11
    Y21 = (B12 - L21 * Y11) / L22
    Y22 = (B22 - L21 * Y12) / L22
    S11 = Y11 / L11
    S21 = Y21 / L11
    S12 = 0.5 * ((Y12 - L21 * S11) / L22 + S21)
    S22 = (Y22 - L21 * S21) / L22
    return S11, S12, S22


def _eigen_2x2(S11, S12, S22):
    """Eigenvalues of the symmetric 2x2 [[S11, S12], [S12, S22]], descending."""
    mean = 0.5 * (S11 + S22)
    disc = np.sqrt((0.5 * (S11 - S22)) ** 2 + S12 * S12)
    return np.stack([mean + disc, mean - disc], axis=-1)


def weingarten(graph):
    """Curvature data from the radial-graph formulas."""
    grid = graph.grid
    r = graph.r()
    if grid.n == 1:
        phi_d, phi_dd = covariant_derivatives(graph)
        grad_sq = phi_d * phi_d
        rho2 = 1.0 + grad_sq
        rho = np.sqrt(rho2)
        kappa = ((rho2 - phi_dd) / (r * rho * rho2))[:, None]  # also sigma_1
        return WeingartenField(grid, r, rho, grad_sq, r / rho, kappa, lambda: kappa)

    sin_t = grid.sin_theta
    p_t, p_p, H_tt, H_tp, H_pp = _sphere_derivatives(grid, graph.phi)
    tt = p_t * p_t
    tp = p_t * p_p
    e11 = 1.0 + tt
    e22 = sin_t * sin_t + p_p * p_p
    grad2 = tt + (p_p / sin_t) ** 2
    rho = np.sqrt(1.0 + grad2)
    r2 = r * r
    c = r / rho
    S11, S12, S22 = _chol_shape_operator(
        r2 * e11, r2 * tp, r2 * e22, c * (e11 - H_tt), c * (tp - H_tp), c * (e22 - H_pp)
    )
    sigma = np.stack([S11 + S22, S11 * S22 - S12 * S12], axis=-1)
    return WeingartenField(grid, r, rho, grad2, c, sigma, partial(_eigen_2x2, S11, S12, S22))


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
        kappa = kappa[:, None]
        return WeingartenField(
            grid=grid,
            r=rr,
            rho=rr / u,
            grad_sq=(rdot / rr) ** 2,
            u=u,
            sigma=kappa,
            kappa_fn=lambda: kappa,
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
        sigma=sigma,
        kappa_fn=lambda: kappa,
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
