"""Frequency-side synthesis of the band-limited test family.

The family lives on a periodic box: frequency lattice xi_k = k * (2pi/L),
and a field is sparse on it. A rectangular *window* of lattice indices
[k0, k0 + dims) — a tight box around the construction's support
(`windowed_lattice`), or a full centered cube (`GridSpec`) for small test
fields — is metadata only: it fixes L and numbers the lattice points. The
field stores the flat window indices of its support and one vector of
f_hat(xi_k) values over them; each support ball owns a contiguous run of
rows. Nothing of window size is kept or allocated: `SpectralField.dense`
scatters the coefficients into an array of the caller's shape (the norm
engine's support box), and snapshots store the two vectors as they are.
Spatial values are f(x) = L^{-n} sum_k f_hat(xi_k) e^{i<xi_k, x>}.

The construction itself: centers xi^nu = lambda * Gamma(nu * lambda^{-1/n})
along the cone, one smooth bump of radius rho * lambda^{1/n} per center,
phase-corrected by e^{i phi}. Ball supports are pairwise disjoint by a hard
precondition, which is what makes the L^2 bookkeeping exact on the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bumps import radial_bump
from .errors import ApertureError, ConfigError, DomainError, GridError

__all__ = ["GridSpec", "LatticeWindow", "SupportBall", "SpectralField",
           "CounterexampleSpec", "frequency_centers", "windowed_lattice",
           "piece_boxes", "build_f"]


def _next_pow2(m):
    p = 1
    while p < m:
        p <<= 1
    return p


@dataclass(frozen=True)
class GridSpec:
    """A cubic window: N points per axis on a box of side L.

    The frequency lattice runs over integer multiples of 2pi/L with indices
    in [-N/2, N/2).
    """

    n: int
    L: float = 2.0
    N: int = 32

    def __post_init__(self):
        if self.N & (self.N - 1) or self.N <= 0:
            raise GridError(f"N must be a power of two, got {self.N}")
        if self.L <= 0:
            raise GridError("box side must be positive")

    def window(self):
        return LatticeWindow(L=self.L, dims=(self.N,) * self.n,
                             k0=(-self.N // 2,) * self.n)


@dataclass(frozen=True)
class LatticeWindow:
    """A rectangular block of frequency-lattice indices."""

    L: float
    dims: tuple
    k0: tuple

    @property
    def dk(self):
        return 2 * np.pi / self.L

    @property
    def n(self):
        return len(self.dims)

    def xi_of_flat(self, flat):
        """Frequency vectors for flat indices into the window, shape (m, n)."""
        idx = np.stack(np.unravel_index(np.asarray(flat), self.dims), axis=-1)
        return (idx + np.asarray(self.k0)) * self.dk


@dataclass(frozen=True)
class SupportBall:
    nu: int
    center: tuple
    radius: float
    rows: slice       # this ball's rows of the field's index and coefficient vectors
    flat: np.ndarray  # its flat window indices: those rows of the field's `flat`


@dataclass(frozen=True)
class SpectralField:
    """A sparse field: coefficients f_hat(xi_k) at the support's lattice points.

    `flat` holds the support's flat indices into the window, `coeffs` the
    coefficient at each; `support` declares the balls, each owning a
    contiguous slice of rows of both vectors. The window is metadata only.
    """

    window: LatticeWindow
    flat: np.ndarray
    coeffs: np.ndarray
    support: tuple = ()  # of SupportBall

    def __post_init__(self):
        if self.flat.ndim != 1 or self.flat.shape != self.coeffs.shape:
            raise GridError("index and coefficient vectors differ in shape")

    @classmethod
    def from_dense(cls, window, fhat):
        """The field of a window-shaped coefficient array: its nonzero
        entries, with no declared balls. For small fields given as arrays,
        such as test fixtures."""
        fhat = np.asarray(fhat, dtype=complex)
        if tuple(fhat.shape) != tuple(window.dims):
            raise GridError("coefficient array does not match the window")
        flat = np.flatnonzero(fhat)
        return cls(window=window, flat=flat, coeffs=fhat.ravel()[flat])

    @property
    def L(self):
        return self.window.L

    def xi(self):
        """Frequency vectors of the support, one row per coefficient."""
        return self.window.xi_of_flat(self.flat)

    def box(self):
        """Per axis, the lowest window index and span of the support's box."""
        lo, hi = np.array([(a.min(), a.max()) for a in
                           np.unravel_index(self.flat, self.window.dims)]).T
        return lo, hi - lo + 1

    def dense(self, shape, origin=()):
        """The coefficients scattered into a zero array of `shape`, the one
        at window index k landing at k - origin (no origin: at k)."""
        out = np.zeros(shape, dtype=complex)
        idx = np.unravel_index(self.flat, self.window.dims)
        for a, o in zip(idx, origin):
            a -= o
        out[idx] = self.coeffs
        return out

    def l2(self):
        """Exact torus L^2 norm via the frequency side: L^{-n} sum |f_hat|^2."""
        power = float((self.coeffs.real ** 2 + self.coeffs.imag ** 2).sum())
        return float(np.sqrt(power / self.L ** self.window.n))

    def with_coeffs(self, coeffs):
        """The same support carrying a new coefficient vector."""
        return replace(self, coeffs=coeffs)


@dataclass(frozen=True)
class CounterexampleSpec:
    """Free constants of the construction at one dyadic frequency scale."""

    lam: float
    chart: object   # ConeChart
    cutoff: object  # CutoffSpec
    rho: float = 0.25
    c0: float = 0.25

    def __post_init__(self):
        if self.lam <= 0:
            raise DomainError("lambda must be positive")
        if not 0.0 < self.rho < 1.0 + 1e-12:
            raise ConfigError([f"rho must lie in (0, 1], got {self.rho}"])
        if self.c0 <= 0:
            raise ConfigError([f"c0 must be positive, got {self.c0}"])

    @property
    def n(self):
        return self.chart.n

    @property
    def radius(self):
        return self.rho * self.lam ** (1.0 / self.n)

    def nu_values(self):
        m = int(np.floor(self.c0 * self.lam ** (1.0 / self.n) + 1e-9))
        return np.arange(-m, m + 1)


def frequency_centers(spec):
    """Ball centers lambda * Gamma(nu * lambda^{-1/n}), one per nu.

    Verifies the pairwise disjointness of the fattened balls
    B(xi^nu, (3/2) * rho * lambda^{1/n}); a failure means rho or c0 is too
    large for this lambda and is reported as a configuration error.
    """
    lam, n = spec.lam, spec.n
    taus = spec.nu_values() * lam ** (-1.0 / n)
    centers = np.array([lam * spec.chart.solve_gamma(t)[0] for t in taus])
    if len(centers) > 1:
        gaps = np.linalg.norm(np.diff(centers, axis=0), axis=1)
        need = 3.0 * spec.radius
        if gaps.min() <= need:
            raise ConfigError(
                [f"fattened frequency balls overlap at lambda={lam}: "
                 f"min center gap {gaps.min():.4g} <= {need:.4g}; "
                 f"reduce rho ({spec.rho}) or c0 ({spec.c0})"])
    return centers


def windowed_lattice(spec, points_per_radius=4, pad=8):
    """Construction-scaled lattice: spacing rho*lambda^{1/n}/points_per_radius.

    The window covers the union of support balls plus a guard margin, rounded
    up to powers of two per axis. The box side L = 2pi/spacing is then large
    compared to every spatial envelope the construction produces.
    """
    if points_per_radius < 2:
        raise GridError("need at least 2 lattice points per bump radius")
    h = spec.radius / points_per_radius
    centers = frequency_centers(spec)
    r = spec.radius + 2 * h
    lo = np.floor((centers.min(axis=0) - r) / h).astype(int) - 2
    hi = np.ceil((centers.max(axis=0) + r) / h).astype(int) + 2
    span = hi - lo + 1
    dims = tuple(int(_next_pow2(int(s) + pad)) for s in span)
    k0 = tuple(int(v) for v in lo - (np.asarray(dims) - span) // 2)
    return LatticeWindow(L=2 * np.pi / h, dims=dims, k0=k0)


def piece_boxes(centers, radius, dk):
    """Per piece (rows) and axis (columns), the least and greatest lattice
    index k, xi = k * dk, within `radius` of the piece's center: rounded
    inward, the box still holds the support, as the bump vanishes at radius."""
    return (np.ceil((centers - radius) / dk).astype(int),
            np.floor((centers + radius) / dk).astype(int))


def _piece_coefficients(spec, window, nu, center):
    """(flat indices, coefficient values) of one piece, over its box."""
    lam, n, r = spec.lam, spec.n, spec.radius
    h = window.dk
    k0 = np.asarray(window.k0)
    low, high = piece_boxes(center, r, h)
    lo, hi = low - k0, high - k0
    if np.any(lo < 0) or np.any(hi >= np.asarray(window.dims)):
        raise GridError(
            f"support ball of piece nu={nu} exits the lattice window "
            f"(need indices {low}..{high})")
    axes = [np.arange(lo[i], hi[i] + 1) for i in range(n)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    xi = (mesh + k0) * h
    prof = radial_bump("inner", np.linalg.norm(xi - center, axis=1) / r)
    keep = prof > 0.0
    xi, mesh, prof = xi[keep], mesh[keep], prof[keep]
    if xi.size and not np.all(spec.chart.in_cone(xi)):
        raise ApertureError(
            f"support ball of piece nu={nu} exits the cone aperture "
            f"c={spec.chart.aperture}; widen the aperture or shrink rho")
    flat = np.ravel_multi_index(tuple(mesh.T), window.dims).astype(np.intp)
    if xi.size:
        phi, _ = spec.chart.phi_un_batch(xi)
        vals = lam ** (1.0 / n) * np.exp(1j * phi) * prof
    else:
        vals = np.zeros(0, dtype=complex)
    return flat, vals


def build_f(spec, window):
    """The full family f = sum_nu f_nu on a shared window, one ball per nu;
    ball nu's rows carry lambda^{1/n} e^{i phi} eta(|xi - xi^nu|/r)."""
    nus, centers = spec.nu_values(), frequency_centers(spec)
    pieces = [_piece_coefficients(spec, window, nu, c) for nu, c in zip(nus, centers)]
    flat = np.concatenate([fl for fl, _ in pieces])
    ends = np.cumsum([0] + [len(fl) for fl, _ in pieces])
    balls = tuple(SupportBall(nu=int(nu), center=tuple(c), radius=spec.radius,
                              rows=slice(int(a), int(b)), flat=flat[a:b])
                  for nu, c, a, b in zip(nus, centers, ends[:-1], ends[1:]))
    return SpectralField(window=window, flat=flat,
                         coeffs=np.concatenate([v for _, v in pieces]),
                         support=balls)
