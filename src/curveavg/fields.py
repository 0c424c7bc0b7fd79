"""Frequency-side synthesis of the band-limited test family.

The family lives on a periodic box: frequency lattice xi_k = k * (2pi/L),
and a field is sparse on it: the flat indices of its support in its
*window* of lattice indices [k0, k0 + dims), the support's bounding box
(`SpectralField.on_lattice`), and one vector of f_hat(xi_k) values over
them; each support ball owns a contiguous run of rows. Spatial values are
f(x) = L^{-n} sum_k f_hat(xi_k) e^{i<xi_k, x>}.

The construction itself: centers xi^nu = lambda * Gamma(nu * lambda^{-1/n})
along the cone, one smooth bump of radius rho * lambda^{1/n} per center,
phase-corrected by e^{i phi}. Ball supports are pairwise disjoint by a hard
precondition, which is what makes the L^2 bookkeeping exact on the lattice.
The sweep's orthogonality defect measures it: the pieces' powers against
||A_t f||_2^2 of the field scattered into its support box, where two pieces
on one lattice point would hold a single coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bumps import radial_bump
from .errors import ApertureError, ConfigError, DomainError, GridError

__all__ = ["LatticeWindow", "SupportBall", "SpectralField",
           "CounterexampleSpec", "frequency_centers", "windowed_lattice",
           "piece_boxes", "build_f"]


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
    rows: slice       # this ball's rows of the field's index and coefficient vectors
    flat: np.ndarray  # its flat window indices: those rows of the field's `flat`


@dataclass(frozen=True)
class SpectralField:
    """A sparse field: coefficients f_hat(xi_k) at the support's lattice points.

    `flat` holds the support's flat indices into the window, `coeffs` the
    coefficient at each; `support` declares the balls, each owning a
    contiguous slice of rows of both vectors. Built by `on_lattice`, the
    window is the support's bounding box.
    """

    window: LatticeWindow
    flat: np.ndarray
    coeffs: np.ndarray
    support: tuple = ()  # of SupportBall

    def __post_init__(self):
        if self.flat.ndim != 1 or self.flat.shape != self.coeffs.shape:
            raise GridError("index and coefficient vectors differ in shape")

    @classmethod
    def on_lattice(cls, L, k, coeffs, support=()):
        """The field with coefficient coeffs[i] at lattice index k[i] (an
        (m, n) integer array), on the window of its support's bounding box."""
        k = np.asarray(k)
        if k.ndim != 2 or not len(k):
            raise GridError("a field needs at least one support point")
        lo = k.min(axis=0)
        dims = tuple(int(v) for v in k.max(axis=0) - lo + 1)
        return cls(LatticeWindow(L=L, dims=dims, k0=tuple(int(v) for v in lo)),
                   np.ravel_multi_index(tuple((k - lo).T), dims),
                   np.asarray(coeffs), support)

    @property
    def L(self):
        return self.window.L

    def xi(self):
        """Frequency vectors of the support, one row per coefficient."""
        return self.window.xi_of_flat(self.flat)

    def dense(self):
        """The coefficients scattered into a zero array over the window."""
        out = np.zeros(self.window.dims, dtype=complex)
        out.reshape(-1)[self.flat] = self.coeffs
        return out

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


def windowed_lattice(spec, points_per_radius=4):
    """Construction-scaled lattice: spacing rho*lambda^{1/n}/points_per_radius,
    so the box side L = 2pi/spacing is large compared to every spatial
    envelope the construction produces. The window is the span of the
    pieces' boxes (`piece_boxes`), which holds the support of `build_f`.
    """
    if points_per_radius < 2:
        raise GridError("need at least 2 lattice points per bump radius")
    L = 2 * np.pi / (spec.radius / points_per_radius)
    lo, hi = piece_boxes(frequency_centers(spec), spec.radius, 2 * np.pi / L)
    lo, hi = lo.min(axis=0), hi.max(axis=0)
    return LatticeWindow(L=L, dims=tuple(int(v) for v in hi - lo + 1),
                         k0=tuple(int(v) for v in lo))


def piece_boxes(centers, radius, dk):
    """Per piece (rows) and axis (columns), the least and greatest lattice
    index k, xi = k * dk, within `radius` of the piece's center: rounded
    inward, the box still holds the support, as the bump vanishes at radius."""
    return (np.ceil((centers - radius) / dk).astype(int),
            np.floor((centers + radius) / dk).astype(int))


def _piece_coefficients(spec, dk, nu, center):
    """(lattice indices, coefficient values) of one piece, over its box."""
    lam, n, r = spec.lam, spec.n, spec.radius
    low, high = piece_boxes(center, r, dk)
    axes = [np.arange(a, b + 1) for a, b in zip(low, high)]
    k = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    xi = k * dk
    prof = radial_bump(np.linalg.norm(xi - center, axis=1) / r)
    keep = prof > 0.0
    xi, k, prof = xi[keep], k[keep], prof[keep]
    if not np.all(spec.chart.in_cone(xi)):
        raise ApertureError(
            f"support ball of piece nu={nu} exits the cone aperture "
            f"c={spec.chart.aperture}; widen the aperture or shrink rho")
    phi, _ = spec.chart.phi_un_batch(xi)
    return k, lam ** (1.0 / n) * np.exp(1j * phi) * prof


def build_f(spec, window):
    """The full family f = sum_nu f_nu on the window's lattice, one ball per
    nu; ball nu's rows carry lambda^{1/n} e^{i phi} eta(|xi - xi^nu|/r). The
    field's window is its support's box."""
    nus, centers = spec.nu_values(), frequency_centers(spec)
    pieces = [_piece_coefficients(spec, window.dk, nu, c)
              for nu, c in zip(nus, centers)]
    ks, vals = zip(*pieces)
    f = SpectralField.on_lattice(window.L, np.concatenate(ks),
                                 np.concatenate(vals))
    ends = np.cumsum([0] + [len(k) for k in ks])
    balls = tuple(SupportBall(nu=int(nu), center=tuple(c),
                              rows=slice(int(a), int(b)), flat=f.flat[a:b])
                  for nu, c, a, b in zip(nus, centers, ends[:-1], ends[1:]))
    return replace(f, support=balls)
