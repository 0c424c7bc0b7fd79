"""Frequency-side synthesis of the band-limited test family.

The family lives on a periodic box: frequency lattice xi_k = k * (2pi/L),
and a field is sparse on it: the flat indices of its support in its
*window* of lattice indices [k0, k0 + dims), the support's bounding box
(`SpectralField.on_lattice`), and one vector of f_hat(xi_k) values over
them; each support ball owns a contiguous run of rows. Spatial values are
f(x) = L^{-n} sum_k f_hat(xi_k) e^{i<xi_k, x>}. A cell's support is
enumerated once, by `windowed_lattice`, and `build_f` only puts the
family's coefficients on it.

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
           "build_f"]


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
    center: tuple
    rows: slice       # this ball's rows of the field's index and coefficient vectors
    flat: np.ndarray  # its flat window indices: those rows of the field's `flat`


@dataclass(frozen=True)
class SpectralField:
    """A sparse field: coefficients f_hat(xi_k) at the support's lattice points.

    `flat` holds the support's flat indices into the window, `coeffs` the
    coefficient at each; `support` declares the balls, each owning a
    contiguous slice of rows of both vectors. Built by `on_lattice`, the
    window (of shape `dims`) is the support's bounding box.
    """

    window: LatticeWindow
    flat: np.ndarray
    coeffs: np.ndarray
    support: tuple = ()  # of SupportBall

    def __post_init__(self):
        if self.flat.ndim != 1 or self.flat.shape != self.coeffs.shape:
            raise GridError("index and coefficient vectors differ in shape")

    @classmethod
    def on_lattice(cls, L, k, coeffs):
        """The field with coefficient coeffs[i] at lattice index k[i] (an
        (m, n) integer array), on the window of its support's bounding box."""
        k = np.asarray(k)
        if k.ndim != 2 or not len(k):
            raise GridError("a field needs at least one support point")
        lo = k.min(axis=0)
        dims = tuple(int(v) for v in k.max(axis=0) - lo + 1)
        return cls(LatticeWindow(L=L, dims=dims, k0=tuple(int(v) for v in lo)),
                   np.ravel_multi_index(tuple((k - lo).T), dims),
                   np.asarray(coeffs))

    @property
    def L(self):
        return self.window.L

    @property
    def dims(self):
        return self.window.dims

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
    """Free constants of the construction at one frequency scale."""

    lam: float
    chart: object   # ConeChart
    cutoff: object  # CutoffSpec
    rho: float
    c0: float

    def __post_init__(self):
        if not 0 < self.lam < np.inf:
            raise DomainError("lambda must be positive and finite")
        if not 0.0 < self.rho < 1.0 + 1e-12:
            raise ConfigError([f"rho must lie in (0, 1], got {self.rho}"])
        if not 0 < self.c0 < np.inf:
            raise ConfigError([f"c0 must be positive and finite, got {self.c0}"])

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


def windowed_lattice(spec, points_per_radius):
    """The family's support with its bump values, on the support's own box.

    The lattice has spacing rho*lambda^{1/n} / points_per_radius, so its
    side L = 2pi/spacing is large compared to every spatial envelope the
    construction produces. Piece nu's rows, in piece order, are the lattice
    indices k, in C order over its box (center +- r, rounded inward: the
    bump vanishes at r), where eta(|k dk - xi^nu| / r) is nonzero, and carry
    that value; ball nu declares its rows and center (`frequency_centers`).
    The window is the support's bounding box (`SpectralField.on_lattice`).
    Every support rule is applied here: the lattice rule, the balls' overlap
    and the aperture, whose ApertureError names the first piece outside it.
    `build_f` puts f's coefficients on it; the memory gate charges it as is."""
    if points_per_radius < 2:
        raise GridError("need at least 2 lattice points per bump radius")
    L = 2 * np.pi / (spec.radius / points_per_radius)
    dk, centers = 2 * np.pi / L, frequency_centers(spec)
    lo = np.ceil((centers - spec.radius) / dk).astype(int)
    hi = np.floor((centers + spec.radius) / dk).astype(int)
    boxes = [np.indices(b - a + 1).reshape(spec.n, -1).T + a
             for a, b in zip(lo, hi)]
    sizes = [len(box) for box in boxes]
    k = np.concatenate(boxes)
    prof = radial_bump(np.linalg.norm(
        k * dk - np.repeat(centers, sizes, axis=0), axis=1) / spec.radius)
    keep = prof > 0.0
    ends = np.concatenate([[0], np.cumsum(keep)[np.cumsum(sizes) - 1]])
    k, prof = k[keep], prof[keep]
    outside = ~spec.chart.in_cone(k * dk)
    if np.any(outside):
        nu = spec.nu_values()[np.searchsorted(ends[1:], np.argmax(outside),
                                              side="right")]
        raise ApertureError(
            f"support ball of piece nu={nu} exits the cone aperture "
            f"c={spec.chart.aperture}; widen the aperture or shrink rho")
    f = SpectralField.on_lattice(L, k, prof)
    return replace(f, support=tuple(
        SupportBall(center=tuple(c), rows=slice(int(a), int(b)),
                    flat=f.flat[a:b])
        for c, a, b in zip(centers, ends[:-1], ends[1:])))


def build_f(spec, lattice):
    """The full family f = sum_nu f_nu on `windowed_lattice`'s support, in the
    aperture: ball nu's rows carry lambda^{1/n} e^{i phi} eta(|xi - xi^nu|/r),
    eta being the lattice's values, phi solved for all pieces in one batch."""
    phi, _ = spec.chart.phi_un_batch(lattice.xi())
    return lattice.with_coeffs(
        spec.lam ** (1.0 / spec.n) * np.exp(1j * phi) * lattice.coeffs)
