"""Applying the curve average to spectral fields, and L^p bookkeeping.

Spectrally the average is a plain multiplier: (A_t f)_hat = mu_hat_t * f_hat,
evaluated only on a field's declared support. The independent cross-check
`direct_oracle` never touches the multiplier: it quadratures
s -> f(x - t gamma(s)) chi(s) with f evaluated by exact trigonometric
summation of the stored coefficients.

Norms: the torus L^p norm is a Riemann sum over an `oversample`-times
zero-padded inverse FFT of the coefficient window, each axis rounded up to a
power of two. For even integer p the sum is exact once every axis has more
than (p/2)(m - 1) points for a window of m: oversampling 2 is exact for
p <= 4, and since lattice windows are powers of two, oversample 3 really
means 4, which is exact for p <= 8. Grids up to `chunk_bytes` (and every grid
at n != 3) are transformed whole in memory; larger 3-d grids are streamed:
the first axis is transformed once, the remaining axes in fixed-size slabs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GeometryError, GridError, QuadratureError
from .fields import SpectralField, _next_pow2
from .multiplier import mu_hat_batch

__all__ = ["TimeWindow", "apply_averaging", "direct_oracle",
           "space_stats", "lp_norm_space", "lp_norm_spacetime", "norm_peak_bytes"]

_CHUNK_BYTES = 2.0e8


@dataclass(frozen=True)
class TimeWindow:
    """Composite-trapezoid time nodes on [1,2] (full) or [1, 1+lambda^{-1/n}] (short)."""

    kind: str
    nodes: tuple

    @classmethod
    def full(cls, m=9):
        cls._check(m)
        return cls(kind="full", nodes=tuple(np.linspace(1.0, 2.0, m)))

    @classmethod
    def short(cls, lam, n, m=9):
        cls._check(m)
        return cls(kind="short",
                   nodes=tuple(np.linspace(1.0, 1.0 + lam ** (-1.0 / n), m)))

    @staticmethod
    def _check(m):
        if m < 5:
            raise DomainError(f"time windows need at least 5 nodes, got {m}")

    def weights(self):
        dt = self.nodes[1] - self.nodes[0]
        w = np.full(len(self.nodes), dt)
        w[0] = w[-1] = dt / 2
        return w


def apply_averaging(field, curve, cutoff, t):
    """A_t applied spectrally on the declared support; support is preserved."""
    flat = field.support_flat()
    mu = mu_hat_batch(curve, cutoff, [t], field.window.xi_of_flat(flat))[0]
    out = np.zeros_like(field.fhat)
    out.ravel()[flat] = field.fhat.ravel()[flat] * mu
    return field.with_fhat(out)


def direct_oracle(field, curve, cutoff, t, points, rel_tol=1e-9, max_panels=4096):
    """Quadrature of s -> f(x - t gamma(s)) chi(s) at each requested point.

    f is evaluated by exact trigonometric summation over the declared support,
    so this is a multiplier-free reference for `apply_averaging`. Panel count
    follows the oscillation budget of the support's frequencies, with a
    doubling (Richardson) accuracy check on the returned values.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    flat = field.support_flat()
    xis = field.window.xi_of_flat(flat)
    coeffs = field.fhat.ravel()[flat] / field.L ** field.window.n

    nodes, weights = np.polynomial.legendre.leggauss(16)

    def level(panels):
        edges = np.linspace(-cutoff.delta, cutoff.delta, panels + 1)
        half = (edges[1] - edges[0]) / 2
        s = (((edges[:-1] + edges[1:]) / 2)[:, None] + half * nodes[None, :]).ravel()
        w = np.tile(weights * half, panels) * cutoff(s)
        shift = np.exp(-1j * t * (curve.derivative(0, s) @ xis.T))  # (S, modes)
        out = np.empty(len(points), dtype=complex)
        step = max(1, int(4e6 // max(len(flat), 1)))
        for j in range(0, len(points), step):
            basis = np.exp(1j * (points[j:j + step] @ xis.T))  # (P, modes)
            # f(x - t gamma(s)) = basis @ (coeffs * shift_s), summed over s with weights
            out[j:j + step] = (basis @ (coeffs[None, :] * shift).T) @ w
        return out

    sweep = float(np.abs(curve.derivative(1, np.linspace(
        -cutoff.delta, cutoff.delta, 33)) @ xis.T).max()) if len(flat) else 0.0
    panels = min(max(2, int(t * sweep * 2 * cutoff.delta / (2 * np.pi) * 12 / 16) + 1),
                 max_panels)
    coarse = level(panels)
    while True:
        fine = level(2 * panels)
        scale = max(float(np.abs(fine).max()), 1e-300)
        if float(np.abs(fine - coarse).max()) <= rel_tol * scale:
            return fine
        panels *= 2
        if panels > max_panels:
            raise QuadratureError(
                f"direct oracle not converged at {panels} panels "
                f"({len(flat)} modes, {len(points)} points)")
        coarse = fine


def _slab_rows(F, chunk_bytes):
    """Axis-0 rows per streamed slab of a 3-d grid F (at least one)."""
    return min(F[0], max(1, int(chunk_bytes // (16 * F[1] * F[2]))))


def _squared_radius(axes):
    """|x|^2 on the grid spanned by 1-d coordinate arrays, by broadcasting."""
    n = len(axes)
    return sum((x ** 2).reshape((-1,) + (1,) * (n - 1 - i))
               for i, x in enumerate(axes))


def space_stats(field, ps, oversample=3, ball_radius=None, chunk_bytes=_CHUNK_BYTES):
    """Torus L^p norms (dict p -> norm) and, optionally, the mass fraction
    of |f|^2 inside the centered ball of the given radius.
    """
    window = field.window
    n = window.n
    dims = tuple(window.dims)
    F = tuple(_next_pow2(int(m * oversample)) for m in dims)
    L = window.L
    if ball_radius is not None and ball_radius >= L / 2:
        raise GeometryError(
            f"ball radius {ball_radius:.4g} >= half box side {L / 2:.4g}")

    finite = [p for p in ps if p != np.inf]
    want_max = any(p == np.inf for p in ps)
    sums = {p: 0.0 for p in finite}
    peak = 0.0
    inside = total = 0.0

    def absorb(ab2, d2):
        nonlocal peak, inside, total
        for p in finite:
            sums[p] += float((ab2 ** (p / 2)).sum()) if p != 2 else float(ab2.sum())
        if want_max:
            peak = max(peak, float(ab2.max()))
        if ball_radius is not None:
            inside += float(ab2[d2 <= ball_radius ** 2].sum())
            total += float(ab2.sum())

    xs = [np.fft.fftfreq(f) * L for f in F]
    if n == 3 and np.prod(F) * 16 > chunk_bytes:
        buf = np.zeros((F[0],) + dims[1:], dtype=complex)
        buf[:dims[0]] = field.fhat
        a0 = np.fft.ifft(buf, axis=0)
        del buf
        a0 *= F[0]
        step = _slab_rows(F, chunk_bytes)
        for j in range(0, F[0], step):
            blk = np.zeros((a0[j:j + step].shape[0], F[1], F[2]), dtype=complex)
            blk[:, :dims[1], :dims[2]] = a0[j:j + step]
            blk = np.fft.ifft(blk, axis=1)
            blk *= F[1]
            blk = np.fft.ifft(blk, axis=2)
            blk *= F[2]
            ab2 = blk.real ** 2 + blk.imag ** 2
            del blk
            absorb(ab2, None if ball_radius is None
                   else _squared_radius([xs[0][j:j + step]] + xs[1:]))
    else:
        if np.prod(F) * 16 > 16 * chunk_bytes:
            raise GridError(
                f"norm grid {F} too large for in-memory evaluation at n={n}")
        buf = np.zeros(F, dtype=complex)
        buf[tuple(slice(0, m) for m in dims)] = field.fhat
        vals = np.fft.ifftn(buf)
        del buf
        vals *= np.prod(F)
        ab2 = vals.real ** 2 + vals.imag ** 2
        del vals
        absorb(ab2, None if ball_radius is None else _squared_radius(xs))

    cell = L ** n / float(np.prod(F))
    norms = {p: (cell * sums[p]) ** (1.0 / p) / L ** n for p in finite}
    if want_max:
        norms[np.inf] = np.sqrt(peak) / L ** n
    fraction = (inside / total) if (ball_radius is not None and total > 0) else None
    return norms, fraction


def lp_norm_space(field, p, oversample=3):
    """( sum |f(x_j)|^p cell )^{1/p} over the oversampled spatial grid; max for p=inf."""
    if p != np.inf and p < 1:
        raise DomainError(f"p must be >= 1 or inf, got {p}")
    norms, _ = space_stats(field, [p], oversample=oversample)
    return norms[p]


def lp_norm_spacetime(fields_by_t, p, window, oversample=3):
    """Trapezoid-in-t of ||.||_p^p over a TimeWindow, then the p-th root.

    `fields_by_t` may be SpectralFields (norms computed here) or precomputed
    space norms, one per window node.
    """
    vals = []
    for f in fields_by_t:
        vals.append(lp_norm_space(f, p, oversample) if isinstance(f, SpectralField)
                    else float(f))
    if len(vals) != len(window.nodes):
        raise DomainError(
            f"{len(vals)} fields for {len(window.nodes)} time nodes")
    w = window.weights()
    return float((w @ np.power(vals, p)) ** (1.0 / p))


def norm_peak_bytes(dims, oversample=3, chunk_bytes=_CHUNK_BYTES):
    """Upper bound on the peak memory of space_stats with a ball, for a
    window of the given dims.

    In memory: three complex grids inside the inverse FFT, plus the real
    |x|^2 grid of the ball. Streaming: the axis-0 transform's input and
    output, three complex slabs and one real |x|^2 slab.
    """
    F = [_next_pow2(int(m * oversample)) for m in dims]
    if len(dims) == 3 and np.prod(F) * 16 > chunk_bytes:
        slab = 16 * _slab_rows(F, chunk_bytes) * F[1] * F[2]
        return int(2 * 16 * F[0] * dims[1] * dims[2] + 3.5 * slab)
    return int(3.5 * 16 * np.prod(F))
