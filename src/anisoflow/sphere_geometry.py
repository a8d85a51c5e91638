"""Radial graphs over S^1 and S^2: grids, derivatives, curvature.

A star-shaped hypersurface is stored as phi = log r on a structured grid.
Each kind of grid is a class that owns its stencils, curvature, dt-bound
spacings and staging: ``CircleGrid`` (S^1), ``SphereGrid`` (S^2) and
``ZonalColumn``, the one column of a sphere grid on which a bit-exactly zonal
state is evaluated.  ``covariant_derivatives`` and ``weingarten`` delegate to
the graph's grid.

All derivatives are 4th-order central differences, written as differences of
neighbours so that a constant row gives exactly +0.0.  ``weingarten`` takes
the curvature from the graph invariants in closed form (induced metric
r^2*E with E = g_S + dphi dphi, second form (r/rho)*(E - Hess phi)).
``embedding_oracle`` recomputes curvature from the embedded position vector
and classical fundamental-form algebra; it shares only the stencils with
``weingarten`` and exists to cross-check its geometry.

The stage arithmetic (stencils, curvature, the engine's speed terms) writes
in place into temporaries it has just made, never into an array it was
handed, and each in-place form is the IEEE operation of the expression it
stands for (``a = x - y; a *= c`` is ``(x - y) * c``; sums and products
commute exactly), so every value keeps its bits.
"""

import math
import numbers
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
# grids: one class per kind, each owning its discretization


def _set_size(grid, name):
    """Store a grid size as an int; ValueError unless it is an integer (numpy's too)."""
    value = getattr(grid, name)
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"grid sizes must be integers, got {value!r}")
    object.__setattr__(grid, name, int(value))


class SphericalGrid:
    """Structured grid on S^n.  Build with ``circle`` or ``sphere``.

    Each kind of grid is a frozen dataclass of its own sizes, with its
    dimension ``n`` a class attribute, and owns its discretization:

    * ``derivatives(phi)``, its stencils: what ``covariant_derivatives`` returns;
    * ``curvature(graph)``: what ``weingarten`` returns;
    * ``max_d_over_h2(D)``: the largest diffusivity D times the inverse squared
      spacings summed over the directions its stencils run (the dt bound);
    * ``stage(graph)`` and ``broadcast(phi, grid)``: the graph a state's
      stages run on, and a stage result put back on the state's grid;
    * ``KEYS``: its sizes' (``shape``'s, the constructor's arguments) names
      in the [grid] section of every text (``textform``) and in ``describe``.

    The defaults here: stencils in theta alone, states staged on themselves.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("build a grid with SphericalGrid.circle or SphericalGrid.sphere")

    @staticmethod
    def circle(N):
        return CircleGrid(N)

    @staticmethod
    def sphere(n_lat, n_lon):
        return SphereGrid(n_lat, n_lon)

    def describe(self):
        return " ".join((f"n={self.n}", *(f"{key}={size}" for key, size in zip(self.KEYS, self.shape))))

    def max_d_over_h2(self, D):
        return D.max() / self.h_theta**2

    def stage(self, graph):
        return graph

    def broadcast(self, phi, grid):
        return phi


@dataclass(frozen=True)
class CircleGrid(SphericalGrid):
    """n = 1: N equispaced nodes theta_j = 2*pi*j/N on the circle (periodic)."""

    n_lat: int
    n = 1
    KEYS = ("N",)

    def __post_init__(self):
        _set_size(self, "n_lat")
        if self.n_lat < 16:
            raise ValueError(f"need at least 16 nodes, got {self.n_lat}")

    @property
    def shape(self):
        return (self.n_lat,)

    @property
    def h_theta(self):
        return TWO_PI / self.n_lat

    @property
    def theta(self):
        return np.arange(self.n_lat) * (TWO_PI / self.n_lat)

    @property
    def nodes(self):
        """(theta,) per node, in the order of phi.ravel()."""
        return [(t,) for t in self.theta.tolist()]

    def partials(self, F):
        """(F', F'') by the periodic stencils."""
        P, h = _pad_periodic(F), self.h_theta
        return _d1(P, h), _d2(P, h)

    derivatives = partials  # the metric is d theta^2: covariant derivatives are partials

    def curvature(self, graph):
        r = graph.r()
        phi_d, phi_dd = covariant_derivatives(graph)
        grad_sq = phi_d * phi_d
        rho2 = 1.0 + grad_sq
        rho = np.sqrt(rho2)
        den = r * rho
        den *= rho2
        if not den.all():  # den >= 0: a radius underflowed to 0
            raise SingularMetricError("metric lost positivity (r = 0)")
        kappa = np.subtract(rho2, phi_dd, out=phi_dd)
        kappa /= den
        kappa = kappa[:, None]  # also sigma_1
        return WeingartenField(r, rho, grad_sq, kappa, lambda: kappa)


class _LatitudeGrid(SphericalGrid):
    """What the n = 2 kinds share: N_lat cell-centered latitudes
    theta_i = (i + 1/2) * pi / N_lat, so no node sits on a pole, the latitude
    tables and the pole padding."""

    n = 2
    KEYS = ("n_lat", "n_lon")

    @property
    def shape(self):
        return (self.n_lat, self.n_lon)

    @property
    def h_theta(self):
        return math.pi / self.n_lat

    @property
    def theta(self):
        return (np.arange(self.n_lat) + 0.5) * (math.pi / self.n_lat)

    # Per-grid tables: built on first use, cached on the instance (outside the
    # fields, so equality and hashing ignore them), and read-only.  The
    # latitude tables are (N_lat, 1) columns.

    @cached_property
    def sin_theta(self):
        return _read_only(np.sin(self.theta)[:, None])

    @cached_property
    def cos_theta(self):
        return _read_only(np.cos(self.theta)[:, None])

    @cached_property
    def sin2_theta(self):
        return _read_only(self.sin_theta**2)

    @cached_property
    def inv_sin2_theta(self):
        return _read_only(1.0 / self.sin2_theta)

    @cached_property
    def cot_theta(self):
        return _read_only(self.cos_theta / self.sin_theta)

    @cached_property
    def sin_cos_theta(self):
        return _read_only(self.sin_theta * self.cos_theta)

    @cached_property
    def lat_pad_index(self):
        """Flat indices into an (N_lat, N_lon) field giving its (N_lat + 4, N_lon)
        pole padding: two ghost rows past each pole by the antipodal rule
        value(-theta, phi) = value(theta, phi + pi); on one column, the
        column's even reflection."""
        index = np.arange(self.n_lat * self.n_lon).reshape(self.n_lat, self.n_lon)
        across = np.roll(index, self.n_lon // 2, axis=1)  # (theta, phi + pi)
        return _read_only(np.concatenate((across[1::-1], index, across[:-3:-1])))


@dataclass(frozen=True)
class SphereGrid(_LatitudeGrid):
    """n = 2: the equirectangular N_lat x N_lon grid.  Longitude is periodic;
    latitude stencils close over the poles by the antipodal rule, which is
    why N_lon must be even."""

    n_lat: int
    n_lon: int

    def __post_init__(self):
        _set_size(self, "n_lat")
        _set_size(self, "n_lon")
        if self.n_lat < 16 or self.n_lon < 16:
            raise ValueError(f"need at least 16 nodes per direction, got {self.n_lat}x{self.n_lon}")
        if self.n_lon % 2:
            raise ValueError(f"longitude count must be even for the pole rule, got {self.n_lon}")

    @property
    def h_phi(self):
        return TWO_PI / self.n_lon

    @property
    def phi_lon(self):
        return np.arange(self.n_lon) * (TWO_PI / self.n_lon)

    @property
    def nodes(self):
        """(theta, phi) per node, in the order of phi.ravel()."""
        return [(t, p) for t in self.theta.tolist() for p in self.phi_lon.tolist()]

    @cached_property
    def inv_spacing_sq(self):
        """1/h_theta^2 + 1/(h_phi^2 sin^2(theta)) as an (N_lat, 1) column: each
        row's inverse squared spacings summed over both directions, which the
        dt bound multiplies by the diffusivity."""
        return _read_only(1.0 / self.h_theta**2 + 1.0 / (self.h_phi**2 * self.sin2_theta))

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
    def zonal_column(self):
        """The (N_lat, 1) grid a bit-exactly zonal state's stages run on."""
        return ZonalColumn(self.n_lat)

    def partials(self, F):
        """4th-order partials (F_t, F_p, F_tt, F_tp, F_pp).

        Every stencil runs over contiguous slices: the latitude ones down the
        pole padding (``lat_pad_index``), the longitude ones along the line of
        wrapped padded rows (``lon_pad_index``), whose rows' interiors are kept.
        F_tp is the latitude derivative of the longitude derivative over the
        padded rows, whose ghost rows are those of F_p by the pole rule.
        """
        ht, hp, width = self.h_theta, self.h_phi, self.n_lon + 4
        P = F.take(self.lat_pad_index)
        line = F.take(self.lon_pad_index)
        F_p_padded = _d1(line, hp).reshape(-1, width)[:, 2:-2].copy()
        F_pp = _d2(line[2 * width : -2 * width], hp).reshape(-1, width)[:, 2:-2].copy()
        return _d1(P, ht), F_p_padded[2:-2], _d2(P, ht), _d1(F_p_padded, ht), F_pp

    def derivatives(self, phi):
        """(phi_t, phi_p, H_tt, H_tp, H_pp): gradient and covariant Hessian."""
        F_t, F_p, F_tt, F_tp, F_pp = self.partials(phi)
        F_tp -= self.cot_theta * F_p
        F_pp += self.sin_cos_theta * F_t
        return F_t, F_p, F_tt, F_tp, F_pp

    def curvature(self, graph):
        """kappa, built on first read: the eigenvalues of adj(E) B' / (det E r rho)."""
        r = graph.r()
        F_t, F_p, H_tt, H_tp, H_pp = covariant_derivatives(graph)
        tp = F_t * F_p
        tt = np.multiply(F_t, F_t, out=F_t)
        pp = F_p * F_p
        e22 = pp + self.sin2_theta
        grad2 = np.multiply(pp, self.inv_sin2_theta, out=pp)
        grad2 += tt
        e11 = np.add(tt, 1.0, out=tt)
        b11 = np.subtract(e11, H_tt, out=H_tt)
        b12 = np.subtract(tp, H_tp, out=H_tp)
        b22 = np.subtract(e22, H_pp, out=H_pp)
        cross = tp * b12
        n11 = e22 * b11  # the diagonal of adj(E) B'
        n11 -= cross
        n22 = e11 * b22
        n22 -= cross
        det = b11 * b22
        det -= np.multiply(b12, b12, out=cross)
        rho, sigma, den = _graph_curvature(self, r, grad2 + 1.0, n11 + n22, det)

        def kappa():
            # the off-diagonal of adj(E) B', built only when kappa is read (the
            # dt bound and a record); with the in-place temporaries, lazy read
            # 652 against eager 672 us a step on nonzonal_pole (2-core VM)
            n12 = e22 * b12
            n12 -= tp * b22
            n21 = e11 * b12
            n21 -= tp * b11
            return _eigen_2x2(n11, n12, n21, n22, den)

        return WeingartenField(r, rho, grad2, sigma, kappa)

    def max_d_over_h2(self, D):
        return (self.inv_spacing_sq * D).max()

    def stage(self, graph):
        if not is_zonal(graph):
            return graph
        return RadialGraph._unchecked(self.zonal_column, graph.phi[:, :1].copy())


@dataclass(frozen=True)
class ZonalColumn(_LatitudeGrid):
    """One longitude column of an n = 2 grid, the stage of a bit-exactly zonal
    state.  A zonal field's longitude partials are exactly +0.0, so the column
    computes only the latitude ones and drops the terms the others would add:
    every value has the full grid's bits."""

    n_lat: int
    n_lon = 1

    def derivatives(self, phi):
        """(phi_t, H_tt, H_pp): the derivatives a zonal field does not zero."""
        P = phi.take(self.lat_pad_index)
        F_t = _d1(P, self.h_theta)
        return F_t, _d2(P, self.h_theta), self.sin_cos_theta * F_t

    def curvature(self, graph):
        """The principal directions are the coordinate ones: kappa, built on
        first read, are the diagonal entries over det E r rho."""
        r = graph.r()
        F_t, H_tt, H_pp = covariant_derivatives(graph)
        s2 = self.sin2_theta
        grad2 = F_t * F_t
        e11 = grad2 + 1.0  # also rho^2
        b11 = np.subtract(e11, H_tt, out=H_tt)
        b22 = np.subtract(s2, H_pp, out=H_pp)
        n11, n22 = s2 * b11, e11 * b22
        rho, sigma, den = _graph_curvature(self, r, e11, n11 + n22, np.multiply(b11, b22, out=b11))
        return WeingartenField(r, rho, grad2, sigma, partial(_eigen_2x2, n11, 0.0, 0.0, n22, den))

    def broadcast(self, phi, grid):
        return np.repeat(phi, grid.n_lon, axis=1)


#: the grid kind of each dimension n, which a [grid] section names
GRID_KINDS = {1: CircleGrid, 2: SphereGrid}


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


def is_zonal(graph):
    """True when the field is bit-exactly longitude-independent (n=2 only).

    Every stencil and coefficient is longitude-uniform, so such a state stays
    so under a step, and a sphere grid stages it on its ``zonal_column``,
    which every other column would repeat bit for bit.

    For the finite phi a RadialGraph holds, every row equal to its first
    column is the same test as a zero peak-to-peak per row (zeros of either
    sign are equal), and cheaper.
    """
    phi = graph.phi
    return graph.grid.n == 2 and bool((phi == phi[:, :1]).all())


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
    near, far = P[3:-1] - P[1:-3], P[4:] - P[:-4]
    near *= 8.0 / (12.0 * h)
    near -= np.multiply(far, 1.0 / (12.0 * h), out=far)
    return near


def _d2(P, h):
    """Second derivative along axis 0 of P, padded by two ghost entries at each end."""
    C = P[2:-2]
    near, far, other = P[1:-3] - C, P[:-4] - C, P[3:-1] - C
    near += other
    near *= 16.0 / (12.0 * h * h)
    far += np.subtract(P[4:], C, out=other)
    near -= np.multiply(far, 1.0 / (12.0 * h * h), out=far)
    return near


def covariant_derivatives(graph):
    """Round-metric gradient and covariant Hessian of phi, the tuple of its
    grid's kind (``derivatives``):

    * circle: (phi', phi'');
    * sphere: (phi_t, phi_p, H_tt, H_tp, H_pp), covariant components;
    * zonal column: (phi_t, H_tt, H_pp), the entries a zonal field does not zero.

    Every kind's curvature reads its stencils through this name.
    """
    return graph.grid.derivatives(graph.phi)


# ---------------------------------------------------------------------------
# curvature


@dataclass(frozen=True)
class WeingartenField:
    """Per-node curvature data of a radial graph.

    sigma holds the elementary symmetric polynomials sigma_1..sigma_n of the
    principal curvatures; kappa the principal curvatures themselves
    (descending), built by kappa_fn on first read, since only the step's dt
    bound and the diagnostics read them.  rho = sqrt(1+|grad phi|^2), and
    u = r/rho, the support function, is built on first read too: only the
    diagnostics read it.
    """

    r: np.ndarray
    rho: np.ndarray
    grad_sq: np.ndarray
    sigma: np.ndarray
    kappa_fn: object  # () -> kappa

    @cached_property
    def kappa(self):
        return self.kappa_fn()

    @cached_property
    def u(self):
        return self.r / self.rho

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
    mean = M11 + M22
    mean *= 0.5
    mean /= den
    root = np.asarray(M11 - M22)  # an array (0-d for scalar entries) to work in
    root *= 0.5
    np.square(root, out=root)
    root += M12 * M21
    np.sqrt(np.maximum(root, 0.0, out=root), out=root)
    root /= den
    out = np.empty(np.shape(mean) + (2,))
    np.add(mean, root, out=out[..., 0])
    np.subtract(mean, root, out=out[..., 1])
    return out


def _graph_curvature(grid, r, rho2, tr_num, det_num):
    """(rho, sigma, den): sigma_1 = tr_num/den and sigma_2 = det_num/(den r rho)
    with den = det E r rho, after a check that a radius underflowing to 0 (a
    zero den) raises before any division."""
    rho = np.sqrt(rho2)
    w = r * rho
    den = grid.sin2_theta * rho2
    den *= w
    den2 = np.multiply(w, den, out=w)
    if not den2.min() > 0.0:  # NaN fails too
        raise SingularMetricError("metric lost positivity (det <= 0)")
    sigma = np.empty(r.shape + (2,))
    np.divide(tr_num, den, out=sigma[..., 0])
    np.divide(det_num, den2, out=sigma[..., 1])
    return rho, sigma, den


def weingarten(graph):
    """Curvature data from the radial-graph formulas, by the grid's kind.

    On S^1, kappa = (rho^2 - phi'')/(r rho^3).  On S^2, with E = g_S + dphi dphi
    and B' = E - Hess phi, the shape operator is E^-1 B' / (r rho):
    sigma_1 = tr(E^-1 B')/(r rho) and sigma_2 = det B'/(det E r^2 rho^2), with
    det E = sin^2(theta) rho^2.  A radius that underflows to 0 raises
    SingularMetricError.
    """
    return graph.grid.curvature(graph)


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
        (xd, xdd), (yd, ydd) = grid.partials(x), grid.partials(y)
        speed2 = xd * xd + yd * yd
        if np.any(speed2 <= 0.0):
            raise SingularMetricError("curve parameterization degenerated")
        speed = np.sqrt(speed2)
        kappa = (xd * ydd - yd * xdd) / (speed2 * speed)
        u = (x * yd - y * xd) / speed
        rr = np.hypot(x, y)
        rdot = (x * xd + y * yd) / rr
        kappa = kappa[:, None]
        return _oracle_field(rr, u, (rdot / rr) ** 2, kappa, kappa)

    t = grid.theta[:, None]
    p = grid.phi_lon[None, :]
    sin_t, cos_t = np.sin(t), np.cos(t)
    X = (r * sin_t * np.cos(p), r * sin_t * np.sin(p), r * cos_t)
    Xt, Xp, Xtt, Xtp, Xpp = zip(*(grid.partials(comp) for comp in X))

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
    return _oracle_field(rr, u, grad_sq, sigma, kappa)


def _oracle_field(r, u, grad_sq, sigma, kappa):
    """The oracle's field, which keeps its own support function u = X . nu."""
    field = WeingartenField(r, r / u, grad_sq, sigma, lambda: kappa)
    vars(field)["u"] = u  # fills the cached property: not r / rho
    return field
