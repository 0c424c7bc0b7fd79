"""Applying the curve average to spectral fields, and L^p bookkeeping.

Spectrally the average is a plain multiplier: (A_t f)_hat = mu_hat_t * f_hat,
evaluated only on a field's support. The independent cross-check
`direct_oracle` never touches the multiplier: it quadratures
s -> f(x - t gamma(s)) chi(s) with f evaluated by exact trigonometric
summation of the stored coefficients.

Norms: for even integer p, |f|^p is a trigonometric polynomial, so its
torus integral equals a Riemann sum on any grid fine enough for it. |f| does
not change under modulation, so only the bounding box of the support's
lattice indices is transformed: the coefficient vector is scattered into a
box-sized array, zero-padded per axis to the least 7-smooth
F >= (p_max/2)(span - 1) + 1 points: exact for every requested p up to the
largest, p_max. The box is padded and transformed along axis 0 once; the
rows of that output are then taken in slabs of about `_SLAB_POINTS` grid
points (at least one row), and each slab alone is padded and transformed
along axes 1 ... n-1, so no stage after the first is held at the full grid
size. A slab's |f|^2 is squared in place on its transform's float view, and
|f|^4, |f|^6, ... follow by chained in-place products, one multiply and one
sum per step; the sums add up over the slabs. p = 2 is Parseval's sum over
the box and needs no transform; when it is the largest requested p none
runs. p = inf and non-even p are rejected.

The concentration fraction is exact. |f|^2 = L^{-2n} sum_q A(q) e^{i<q dk, x>}
with A(q) = sum_{k - k' = q} c_k conj(c_k'), so the mass inside the centered
ball B of radius R is L^{-2n} sum_q A(q) B_hat(q dk), B_hat(xi) the ball's
Fourier transform, and the fraction is sum_q B_hat(q dk) A(q) / (L^n A(0))
(Stein & Weiss, Introduction to Fourier Analysis on Euclidean Spaces,
ch. IV). A(q) lives within +-(span - 1) per axis, so |f|^2 sampled on the
least 7-smooth grid G >= 2 span - 1 per axis carries it without aliasing:
the sum is one dot product of those samples with a real kernel K on G,
the inverse transform of B_hat (even in every axis, so one real irfft per
axis from its values at q_a >= 0). `ball_kernel` builds K once for every field
on a support box; each `space_stats` call then takes |f|^2 on G slab by slab,
as for the norms, and adds up its dot product with the same rows of K.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import gamma

import numpy as np

from .errors import DomainError, GeometryError, QuadratureError
from .multiplier import mu_hat_batch

__all__ = ["TimeWindow", "apply_averaging", "direct_oracle", "ball_kernel",
           "space_stats", "lp_norm_spacetime", "norm_peak_bytes"]

# grid points per slab of the passes after axis 0: a slab's complex
# transform (1 MiB), |f|^2 and power buffer are sized for a core's L2 cache
_SLAB_POINTS = 1 << 16


@dataclass(frozen=True)
class TimeWindow:
    """Composite-trapezoid time nodes on the short window [1, 1 + lambda^{-1/n}]."""

    nodes: tuple

    @classmethod
    def short(cls, lam, n, m=9):
        if m < 5:
            raise DomainError(f"time windows need at least 5 nodes, got {m}")
        return cls(nodes=tuple(np.linspace(1.0, 1.0 + lam ** (-1.0 / n), m)))

    def weights(self):
        dt = self.nodes[1] - self.nodes[0]
        w = np.full(len(self.nodes), dt)
        w[0] = w[-1] = dt / 2
        return w


def apply_averaging(field, curve, cutoff, t):
    """A_t applied spectrally on the field's support; support is preserved."""
    mu = mu_hat_batch(curve, cutoff, [t], field.xi())[0]
    return field.with_coeffs(field.coeffs * mu)


def direct_oracle(field, curve, cutoff, t, points, rel_tol=1e-9, max_panels=4096):
    """Quadrature of s -> f(x - t gamma(s)) chi(s) at each requested point.

    f is evaluated by exact trigonometric summation over the field's support,
    so this is a multiplier-free reference for `apply_averaging`. Panel count
    follows the oscillation budget of the support's frequencies, with a
    doubling (Richardson) accuracy check on the returned values.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    xis = field.xi()
    coeffs = field.coeffs / field.L ** field.window.n

    nodes, weights = np.polynomial.legendre.leggauss(16)

    def level(panels):
        edges = np.linspace(-cutoff.delta, cutoff.delta, panels + 1)
        half = (edges[1] - edges[0]) / 2
        s = (((edges[:-1] + edges[1:]) / 2)[:, None] + half * nodes[None, :]).ravel()
        w = np.tile(weights * half, panels) * cutoff(s)
        shift = np.exp(-1j * t * (curve.derivative(0, s) @ xis.T))  # (S, modes)
        out = np.empty(len(points), dtype=complex)
        step = max(1, int(4e6 // max(len(xis), 1)))
        for j in range(0, len(points), step):
            basis = np.exp(1j * (points[j:j + step] @ xis.T))  # (P, modes)
            # f(x - t gamma(s)) = basis @ (coeffs * shift_s), summed over s with weights
            out[j:j + step] = (basis @ (coeffs[None, :] * shift).T) @ w
        return out

    sweep = float(np.abs(curve.derivative(1, np.linspace(
        -cutoff.delta, cutoff.delta, 33)) @ xis.T).max()) if len(xis) else 0.0
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
                f"({len(xis)} modes, {len(points)} points)")
        coarse = fine


def _next_smooth(m):
    """Least 7-smooth integer (2^a 3^b 5^c 7^d) >= m: a fast FFT length."""
    for f in count(m):
        k = f
        for q in (2, 3, 5, 7):
            while k % q == 0:
                k //= q
        if k == 1:
            return f


def _norm_grid(span, ps):
    """Per-axis points of the exact norm grid for a support box of this span."""
    if min(span, default=1) < 1:
        raise DomainError(f"support box spans must be >= 1 per axis, got {span}")
    half = int(max(ps, default=2)) // 2
    return tuple(_next_smooth(half * (s - 1) + 1) for s in span)


def _ball_grid(span):
    """Per-axis points of the grid G >= 2 span - 1 that samples |f|^2, whose
    frequencies lie within +-(span - 1), without aliasing."""
    return _norm_grid(span, (4.0,))


def _ball_transform(rho, radius, n):
    """B_hat at |xi| = rho for the ball of this radius in R^n:
    2 omega_{n-1} R^n int_0^{pi/2} cos(rho R cos th) sin^n th dth, with
    omega_{n-1} = pi^{(n-1)/2} / Gamma((n+1)/2), by Gauss-Legendre on
    enough nodes for the largest rho R."""
    z = np.asarray(rho, dtype=float) * radius
    u, w = np.polynomial.legendre.leggauss(int(z.max(initial=0.0) * np.pi / 8) + 32)
    theta = np.pi / 4 * (u + 1)
    w = w * np.pi / 4 * np.sin(theta) ** n
    out = np.zeros_like(z)
    for c, wt in zip(np.cos(theta), w):
        out += wt * np.cos(z * c)
    return 2 * np.pi ** ((n - 1) / 2) / gamma((n + 1) / 2) * radius ** n * out


def ball_kernel(field, radius):
    """The concentration fraction's weight for the centered ball of this
    radius, for every field on this field's window and support box: the
    real kernel K on `_ball_grid(span)` whose dot product with |f|^2 there
    is sum_q A(q) B_hat(q dk). B_hat depends on |q_a| per axis alone, so it
    is tabulated on q_a = 0..G_a/2, evaluated once per distinct integer
    |q|^2 there, and inverse-transformed by one real irfft per axis.
    """
    window = field.window
    n, L = window.n, window.L
    if radius >= L / 2:
        raise GeometryError(
            f"ball radius {radius:.4g} >= half box side {L / 2:.4g}")
    G = _ball_grid(field.box()[1])
    q2 = sum((np.arange(g // 2 + 1) ** 2).reshape((-1,) + (1,) * (n - 1 - a))
             for a, g in enumerate(G))
    present, where = np.unique(q2, return_inverse=True)
    kernel = _ball_transform(np.sqrt(present) * window.dk, radius,
                             n)[where.reshape(q2.shape)]
    del q2, where
    for a, g in enumerate(G):
        kernel = np.fft.irfft(kernel, n=g, axis=a)
    return kernel


def _abs2(box, F):
    """|f|^2 on the grid F, slab by slab: (first row, slab) pairs over slabs
    of axis-0 rows, at most `_SLAB_POINTS` grid points each or one row where
    a row is larger. The box is padded and inverse-transformed along axis 0
    once; each slab of those rows is then transformed along axes 1 ... n-1
    alone and squared in place on its float view, and its complex transform
    is dropped before the slab is yielded."""
    head = np.fft.ifft(box, n=F[0], axis=0, norm="forward")
    rows = max(1, _SLAB_POINTS // int(np.prod(F[1:])))
    for r0 in range(0, F[0], rows):
        vals = head[r0:r0 + rows]
        for a in range(1, len(F)):
            vals = np.fft.ifft(vals, n=F[a], axis=a, norm="forward")
        sq = vals.view(np.float64)
        np.square(sq, out=sq)
        slab = sq[..., 0::2] + sq[..., 1::2]
        del vals, sq
        yield r0, slab


def _inside(slab, ball, r0):
    """The slab's share of the ball's dot product: |f|^2 there times the
    kernel's rows r0 ... r0 + len(slab)."""
    return float(slab.ravel() @ ball[r0:r0 + len(slab)].ravel())


def space_stats(field, ps, ball=None):
    """Torus L^p norms (dict p -> norm) for even integer p, and, given the
    `ball_kernel` of a centered ball, the mass fraction of |f|^2 inside it.

    The norms are exact Riemann sums on the grid `_norm_grid(box, ps)`,
    added up slab by slab: `_abs2` runs the axis-0 pass once on the whole
    box and the passes on the other axes per slab of axis-0 rows, and each
    slab's |f|^2 is raised to each further even power by one multiply and
    summed. p = 2 is taken from Parseval, prod(F) * sum |box|^2, without a
    transform. The box spans the support's lattice indices, and the
    coefficient vector is scattered into it. The fraction is exact: the dot
    product of |f|^2 on the kernel's grid G with the kernel, added up over
    the slabs of G with the kernel sliced by the same rows, in a slab loop
    of its own. The fraction is None without a ball and for a field with no
    nonzero coefficient, whose norms are all 0.
    """
    n, L = field.window.n, field.window.L
    bad = [p for p in ps if not (p >= 2 and p % 2 == 0)]
    if bad:
        raise DomainError(f"norms are exact for even integer p >= 2 only, got {bad}")

    if not np.any(field.coeffs):
        return {p: 0.0 for p in ps}, None
    lo, span = field.box()
    box = field.dense(span, origin=lo)
    G = _ball_grid(box.shape)
    if ball is not None and ball.shape != G:
        raise DomainError(f"ball kernel on grid {ball.shape}, this field's "
                          f"support box needs {G}")

    F = _norm_grid(box.shape, ps)
    power = float((box.real ** 2 + box.imag ** 2).sum())
    top = int(max(ps)) // 2
    sums = {2 * k: 0.0 for k in range(2, top + 1)}
    sums[2] = float(np.prod(F)) * power
    if top > 1:
        for _, ab2 in _abs2(box, F):
            pw = ab2 * ab2
            for k in range(2, top + 1):
                if k > 2:
                    pw *= ab2
                if 2 * k in ps:
                    sums[2 * k] += float(pw.sum())
    cell = L ** n / float(np.prod(F))
    norms = {p: (cell * sums[int(p)]) ** (1.0 / p) / L ** n for p in ps}
    if ball is None:
        return norms, None
    inside = sum(_inside(ab2, ball, r0) for r0, ab2 in _abs2(box, G))
    return norms, inside / (L ** n * power)


def lp_norm_spacetime(space_norms, p, window):
    """Trapezoid-in-t of ||.||_p^p over a TimeWindow, then the p-th root,
    from the space norms at the window's nodes."""
    vals = [float(v) for v in space_norms]
    if len(vals) != len(window.nodes):
        raise DomainError(
            f"{len(vals)} space norms for {len(window.nodes)} time nodes")
    w = window.weights()
    return float((w @ np.power(vals, p)) ** (1.0 / p))


def norm_peak_bytes(span, ps):
    """Upper bound on the peak memory of space_stats, with a ball, for a
    field whose support's lattice indices span a box of the given shape,
    and of the `ball_kernel` build before it.

    space_stats holds, at most, the sum of
    - the box and its scatter: the box array, 16 bytes per point, held to
      the end, and the support's window indices unravelled per axis, 8n
      bytes per support point, of which the box holds at most one per point;
    - on the norm grid F: the axis-0 pass output, F_0 * prod(span[1:])
      complex, held through the slab loop; and one slab's working set, at
      least one axis-0 row of prod(F[1:]) points, 48 bytes per point (plus
      the FFT's line buffers, shorter than a row): the last pass's input and
      output, 32, beside the previous slab's |f|^2 and power buffer, 16,
      which the loop holds until the next slab is yielded. p = 2 alone runs
      no pass on F;
    - the same two terms on the ball's grid G;
    - the kernel, 8 bytes per point of G.
    `ball_kernel` builds the kernel before the call, with none of these
    held. Finding the distinct |q|^2 and B_hat at each holds the integer
    |q|^2 grid on q_a = 0 ... G_a/2 and index and value arrays of its size,
    under 60 bytes per point of that grid, which has at most 2/3 as many
    points as G; each per-axis irfft then holds its real input, the input's
    complex copy and its real output, each at most the size of G: at most
    40 bytes per point of G.
    """
    def passes(grid):
        row = np.prod(grid[1:], dtype=float)
        rows = min(grid[0], max(1, _SLAB_POINTS // int(row)))
        return 16 * grid[0] * np.prod(span[1:], dtype=float) + 48 * rows * row

    G = _ball_grid(span)
    kernel = np.prod(G, dtype=float)
    stats = ((16 + 8 * len(span)) * np.prod(span, dtype=float)
             + passes(_norm_grid(span, ps)) + passes(G) + 8 * kernel)
    return int(max(stats, 40 * kernel))
