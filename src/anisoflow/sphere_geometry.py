"""Radial graphs over S^1 and S^2: grids, derivatives, curvature.

A star-shaped hypersurface is stored as phi = log r on a structured grid:

* n = 1: N equispaced nodes theta_j = 2*pi*j/N on the circle (periodic);
* n = 2: an equirectangular N_lat x N_lon grid with cell-centered latitudes
  theta_i = (i + 1/2) * pi / N_lat, so no node sits on a pole.  Longitude is
  periodic; latitude stencils close over the poles with the antipodal rule
  value(-theta, phi) = value(theta, phi + pi), which is why N_lon must be even.

All derivatives are 4th-order central differences, written as differences of
neighbours so that a constant row gives exactly +0.0.  ``weingarten`` takes
the curvature from the graph invariants in closed form (induced metric
r^2*E with E = g_S + dphi dphi, second form (r/rho)*(E - Hess phi)).
``embedding_oracle`` recomputes curvature from the embedded position vector
and classical fundamental-form algebra; it shares only the stencils with
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
    def sin2_theta(self):
        """sin^2(theta) as an (N_lat, 1) column."""
        return _read_only(self.sin_theta**2)

    @cached_property
    def inv_sin2_theta(self):
        """1/sin^2(theta) as an (N_lat, 1) column."""
        return _read_only(1.0 / self.sin2_theta)

    @cached_property
    def cot_theta(self):
        """cot(theta) = cos(theta)/sin(theta) as an (N_lat, 1) column."""
        return _read_only(self.cos_theta / self.sin_theta)

    @cached_property
    def sin_cos_theta(self):
        """sin(theta) cos(theta) as an (N_lat, 1) column."""
        return _read_only(self.sin_theta * self.cos_theta)

    @cached_property
    def inv_spacing_sq(self):
        """1/h_theta^2 + 1/(h_phi^2 sin^2(theta)) as an (N_lat, 1) column: each
        row's inverse squared spacings summed over both directions, which the
        non-zonal dt bound multiplies by the diffusivity."""
        return _read_only(1.0 / self.h_theta**2 + 1.0 / (self.h_phi**2 * self.sin2_theta))

    @cached_property
    def lat_pad_index(self):
        """Flat indices into an (N_lat, N_lon) field giving its (N_lat + 4, N_lon)
        pole padding: two ghost rows past each pole by the antipodal rule
        value(-theta, phi) = value(theta, phi + pi)."""
        index = np.arange(self.n_lat * self.n_lon).reshape(self.n_lat, self.n_lon)
        across = np.roll(index, self.n_lon // 2, axis=1)  # (theta, phi + pi)
        return _read_only(np.concatenate((across[1::-1], index, across[:-3:-1])))

    @cached_property
    def lon_pad_index(self):
        """Flat indices into an (N_lat, N_lon) field giving one line: the
        (N_lat + 4) rows of its pole padding, each wrapped by two entries past
        either end, end to end, with two more entries at either end of the
        line.  A stencil along the line is the longitude stencil of every
        padded row at the centres that are not wrapped entries."""
        rows = self.lat_pad_index
        line = np.concatenate((rows[:, -2:], rows, rows[:, :2]), axis=1).ravel()
        return _read_only(np.concatenate((line[:2], line, line[-2:])))

    @cached_property
    def zonal_strip(self):
        """The (N_lat, 2) grid a longitude-independent n=2 field is evaluated on.

        Two columns are the fewest the longitude padding takes, and the pole
        rule's shift by n_lon // 2 = 1 lands on the twin column.  ``weingarten``
        evaluates a strip from its latitude partials alone: the longitude
        partials of a constant row are exactly zero, so the full grid's
        general path gives the same bits.  The strip reports this grid's
        h_phi, the spacing of the surface it stands for.
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
    """Two longitude columns of an n=2 grid with full_n_lon columns, which
    ``weingarten`` evaluates as a zonal field: latitude partials only."""

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


def _d1(P, h):
    """First derivative along axis 0 of P, padded by two ghost entries at each end."""
    return (P[3:-1] - P[1:-3]) * (8.0 / (12.0 * h)) - (P[4:] - P[:-4]) * (1.0 / (12.0 * h))


def _d2(P, h):
    """Second derivative along axis 0 of P, padded by two ghost entries at each end."""
    C = P[2:-2]
    return ((P[1:-3] - C) + (P[3:-1] - C)) * (16.0 / (12.0 * h * h)) - (
        (P[:-4] - C) + (P[4:] - C)
    ) * (1.0 / (12.0 * h * h))


def _partials_sphere(grid, F):
    """4th-order partials (F_t, F_p, F_tt, F_tp, F_pp) on the n=2 grid.

    Every stencil runs over contiguous slices: the latitude ones down the
    pole padding (``lat_pad_index``), the longitude ones along the line of
    wrapped padded rows (``lon_pad_index``), whose rows' interiors are kept.
    F_tp is the latitude derivative of the longitude derivative over the
    padded rows, whose ghost rows are those of F_p by the pole rule.
    """
    ht, hp, width = grid.h_theta, grid.h_phi, grid.n_lon + 4
    P = F.take(grid.lat_pad_index)
    line = F.take(grid.lon_pad_index)
    F_p_padded = _d1(line, hp).reshape(-1, width)[:, 2:-2].copy()
    F_pp = _d2(line[2 * width : -2 * width], hp).reshape(-1, width)[:, 2:-2].copy()
    return _d1(P, ht), F_p_padded[2:-2], _d2(P, ht), _d1(F_p_padded, ht), F_pp


def _sphere_derivatives(grid, phi):
    """(phi_t, phi_p, H_tt, H_tp, H_pp): gradient and covariant Hessian on the n=2 grid."""
    F_t, F_p, F_tt, F_tp, F_pp = _partials_sphere(grid, phi)
    return F_t, F_p, F_tt, F_tp - grid.cot_theta * F_p, F_pp + grid.sin_cos_theta * F_t


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


def _eigen_2x2(M11, M12, M21, M22, den):
    """Eigenvalues, descending, of [[M11, M12], [M21, M22]] / den, a matrix with
    a real spectrum (self-adjoint for some inner product), along a new last axis.

    The discriminant is built from the entries, ((M11 - M22)/2)^2 + M12 M21,
    not from trace and determinant, so it does not cancel at an umbilic;
    round-off below 0 is clamped.
    """
    mean = 0.5 * (M11 + M22) / den
    root = np.sqrt(np.maximum((0.5 * (M11 - M22)) ** 2 + M12 * M21, 0.0)) / den
    out = np.empty(np.shape(mean) + (2,))
    np.add(mean, root, out=out[..., 0])
    np.subtract(mean, root, out=out[..., 1])
    return out


def _graph_curvature(grid, r, rho2, tr_num, det_num):
    """(rho, u, sigma, den): sigma_1 = tr_num/den and sigma_2 = det_num/(den r rho)
    with den = det E r rho, after a check that a radius underflowing to 0 (a
    zero den) raises before any division."""
    rho = np.sqrt(rho2)
    w = r * rho
    den = grid.sin2_theta * rho2 * w
    den2 = den * w
    if not (den2 > 0.0).all():
        raise SingularMetricError("metric lost positivity (det <= 0)")
    sigma = np.empty(r.shape + (2,))
    np.divide(tr_num, den, out=sigma[..., 0])
    np.divide(det_num, den2, out=sigma[..., 1])
    return rho, r / rho, sigma, den


def weingarten(graph):
    """Curvature data from the radial-graph formulas.

    On S^2, with E = g_S + dphi dphi and B' = E - Hess phi, the shape
    operator is E^-1 B' / (r rho): sigma_1 = tr(E^-1 B')/(r rho) and
    sigma_2 = det B'/(det E r^2 rho^2), with det E = sin^2(theta) rho^2.
    kappa, built on first read, are the eigenvalues of adj(E) B' over
    det E r rho.  A zonal strip computes only the latitude partials and
    drops the terms of the longitude ones, which are exactly zero on a
    zonal field, so its values have the full grid's bits.  A radius that
    underflows to 0 raises SingularMetricError.
    """
    grid = graph.grid
    r = graph.r()
    if grid.n == 1:
        phi_d, phi_dd = covariant_derivatives(graph)
        grad_sq = phi_d * phi_d
        rho2 = 1.0 + grad_sq
        rho = np.sqrt(rho2)
        kappa = ((rho2 - phi_dd) / (r * rho * rho2))[:, None]  # also sigma_1
        return WeingartenField(grid, r, rho, grad_sq, r / rho, kappa, lambda: kappa)

    s2 = grid.sin2_theta
    if isinstance(grid, _ZonalStrip):
        P = graph.phi.take(grid.lat_pad_index)
        F_t, H_tt = _d1(P, grid.h_theta), _d2(P, grid.h_theta)
        grad2 = F_t * F_t
        e11 = 1.0 + grad2  # also rho^2
        b11 = e11 - H_tt
        b22 = s2 - grid.sin_cos_theta * F_t
        n11, n22 = s2 * b11, e11 * b22
        rho, u, sigma, den = _graph_curvature(grid, r, e11, n11 + n22, b11 * b22)
        return WeingartenField(grid, r, rho, grad2, u, sigma, partial(_eigen_2x2, n11, 0.0, 0.0, n22, den))

    F_t, F_p, H_tt, H_tp, H_pp = _sphere_derivatives(grid, graph.phi)
    tt, pp, tp = F_t * F_t, F_p * F_p, F_t * F_p
    grad2 = tt + pp * grid.inv_sin2_theta
    e11 = 1.0 + tt
    e22 = s2 + pp
    b11 = e11 - H_tt
    b12 = tp - H_tp
    b22 = e22 - H_pp
    cross = tp * b12
    n11 = e22 * b11 - cross  # the diagonal of adj(E) B'
    n22 = e11 * b22 - cross
    rho, u, sigma, den = _graph_curvature(grid, r, 1.0 + grad2, n11 + n22, b11 * b22 - b12 * b12)

    # the off-diagonal of adj(E) B', built now: a lazy kappa holding its nine
    # inputs alive read slower on the non-zonal benchmark than this extra work
    n12, n21 = e22 * b12 - tp * b22, e11 * b12 - tp * b11
    return WeingartenField(grid, r, rho, grad2, u, sigma, partial(_eigen_2x2, n11, n12, n21, n22, den))


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
