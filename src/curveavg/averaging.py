"""Applying the curve average to spectral fields, and L^p bookkeeping.

Spectrally the average is a plain multiplier: (A_t f)_hat = mu_hat_t * f_hat,
evaluated only on a field's support (`curveavg.verify.direct_oracle` checks
it without the multiplier).

Norms: for even integer p, |f|^p is a trigonometric polynomial, so its
torus integral equals a Riemann sum on any grid fine enough for it. |f| does
not change under modulation, so only the bounding box of the support's
lattice indices, the field's window, is transformed: the coefficient vector
is scattered into a box-sized array, zero-padded per axis to the least
7-smooth F >= (p_max/2)(span - 1) + 1 points: exact for every requested p up
to the largest, p_max. The box is padded and transformed along axis 0 once; the
rows of that output are then taken in slabs of about `_SLAB_POINTS` = 2^14
grid points (at least one row), whose working set of 48 bytes per point fits
a core's L2 cache, and each slab alone is padded and transformed along axes
1 ... n-1, so no stage after the first is held at the full grid size. A
slab's |f|^2 is squared in place on its transform's float view, and |f|^4,
|f|^6, ... follow by chained in-place products, one multiply and one sum per
step; the sums add up over the slabs. p = 2 is Parseval's sum over
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
axis from its values at q_a >= 0). K is even in every axis too, so its
orthant x_a = 0 ... G_a/2 holds all of it, 2^n times fewer points than G:
`ball_kernel` builds and stores that orthant once for every field on a
support box, cutting each axis's irfft output to it before the next; each
`space_stats` call then takes |f|^2 on G slab by slab, as for the norms, and
adds up its dot product with K gathered at the slab's points through the
mirrored indices min(x_a, G_a - x_a).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import gamma

import numpy as np

from .errors import DomainError, GeometryError
from .legendre import gauss_legendre

__all__ = ["TimeWindow", "ball_kernel", "space_stats", "lp_norm_spacetime",
           "norm_grid", "norm_peak_bytes"]

# grid points per slab of the passes after axis 0, sized so that a slab's
# whole working set fits a core's L2 cache: at the 48 bytes per point that
# norm_peak_bytes charges a slab (the last pass's input and output, |f|^2 and
# the power buffer) it is 768 KiB, and 896 KiB at the 56 bytes of the ball's
# pass (plus the kernel's read)
_SLAB_POINTS = 1 << 14


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


def _next_smooth(m):
    """Least 7-smooth integer (2^a 3^b 5^c 7^d) >= m: a fast FFT length."""
    for f in count(m):
        k = f
        for q in (2, 3, 5, 7):
            while k % q == 0:
                k //= q
        if k == 1:
            return f


def norm_grid(span, ps):
    """Per-axis points of the exact norm grid for a support box of this span."""
    if min(span, default=1) < 1:
        raise DomainError(f"support box spans must be >= 1 per axis, got {span}")
    half = int(max(ps, default=2)) // 2
    return tuple(_next_smooth(half * (s - 1) + 1) for s in span)


def _ball_grid(span):
    """Per-axis points of the grid G >= 2 span - 1 that samples |f|^2, whose
    frequencies lie within +-(span - 1), without aliasing."""
    return norm_grid(span, (4.0,))


def _ball_nodes(z):
    """Gauss-Legendre nodes of `_ball_transform` up to rho R = z."""
    return int(z * np.pi / 8) + 32


def _ball_transform(rho, radius, n):
    """B_hat at |xi| = rho for the ball of this radius in R^n:
    2 omega_{n-1} R^n int_0^{pi/2} cos(rho R cos th) sin^n th dth, with
    omega_{n-1} = pi^{(n-1)/2} / Gamma((n+1)/2), by Gauss-Legendre on
    enough nodes for the largest rho R."""
    z = np.asarray(rho, dtype=float) * radius
    u, w = gauss_legendre(_ball_nodes(z.max(initial=0.0)))
    theta = np.pi / 4 * (u + 1)
    w = w * np.pi / 4 * np.sin(theta) ** n
    out = np.zeros_like(z)
    for c, wt in zip(np.cos(theta), w):
        out += wt * np.cos(z * c)
    return 2 * np.pi ** ((n - 1) / 2) / gamma((n + 1) / 2) * radius ** n * out


def ball_kernel(field, radius):
    """The concentration fraction's weight for the centered ball of this
    radius, for every field on this field's window, its support's box: the
    real kernel K on `_ball_grid(span)` whose dot product with |f|^2 there
    is sum_q A(q) B_hat(q dk), stored on its orthant x_a = 0 ... G_a/2
    alone, shape G_a // 2 + 1 per axis. K is even in every axis, as B_hat
    is, so K(x) = K(m(x)) with m_a(x_a) = min(x_a, G_a - x_a) (`_mirror`).
    B_hat depends on |q_a| per axis alone, so it is tabulated on
    q_a = 0..G_a/2, evaluated once per distinct integer |q|^2 there, and
    inverse-transformed by one real irfft per axis, each cut to its first
    G_a // 2 + 1 points before the next: no array of the size of G is held.
    """
    window = field.window
    n, L = window.n, window.L
    if not 0 < radius < L / 2:
        raise GeometryError(f"ball radius {radius:.4g} must lie in "
                            f"(0, half box side {L / 2:.4g})")
    G = _ball_grid(field.window.dims)
    q2 = sum((np.arange(g // 2 + 1) ** 2).reshape((-1,) + (1,) * (n - 1 - a))
             for a, g in enumerate(G))
    present, where = np.unique(q2, return_inverse=True)
    kernel = _ball_transform(np.sqrt(present) * window.dk, radius,
                             n)[where.reshape(q2.shape)]
    del q2, present, where
    for a, g in enumerate(G):
        kernel = np.ascontiguousarray(np.fft.irfft(kernel, n=g, axis=a)[
            (slice(None),) * a + (slice(g // 2 + 1),)])
    return kernel


def _mirror(g):
    """The orthant index m(i) = min(i, g - i) of each point i of a G axis."""
    i = np.arange(g)
    return np.minimum(i, g - i)


def _slab_rows(grid):
    """Axis-0 rows per slab of the grid: at most `_SLAB_POINTS` grid points,
    one row where a row is larger, and no more rows than the grid has."""
    return min(grid[0], max(1, _SLAB_POINTS // int(np.prod(grid[1:]))))


def _abs2(box, F):
    """|f|^2 on the grid F, slab by slab: (first row, slab) pairs over slabs
    of `_slab_rows(F)` axis-0 rows. The box is padded and inverse-transformed
    along axis 0 once; each slab of those rows is then transformed along
    axes 1 ... n-1 alone and squared in place on its float view, and its
    complex transform is dropped before the slab is yielded."""
    head = np.fft.ifft(box, n=F[0], axis=0, norm="forward")
    rows = _slab_rows(F)
    for r0 in range(0, F[0], rows):
        vals = head[r0:r0 + rows]
        for a in range(1, len(F)):
            vals = np.fft.ifft(vals, n=F[a], axis=a, norm="forward")
        sq = vals.view(np.float64)
        np.square(sq, out=sq)
        slab = sq[..., 0::2] + sq[..., 1::2]
        del vals, sq
        yield r0, slab


def _inside(slab, ball, rows, cols):
    """The slab's share of the ball's dot product: |f|^2 there times the
    kernel at the slab's mirrored points, the orthant's axis-0 rows `rows`
    and, within each, the flat orthant indices `cols` of a G row."""
    k = ball.reshape(len(ball), -1)[rows].take(cols, axis=1)
    return float(slab.ravel() @ k.ravel())


def space_stats(field, ps, ball=None):
    """Torus L^p norms (dict p -> norm) for even integer p, and, given the
    `ball_kernel` of a centered ball, the mass fraction of |f|^2 inside it.

    The norms are exact Riemann sums on the grid `norm_grid(box, ps)`,
    added up slab by slab: `_abs2` runs the axis-0 pass once on the whole
    box and the passes on the other axes per slab of axis-0 rows, and each
    slab's |f|^2 is raised to each further even power by one multiply and
    summed. p = 2 is taken from Parseval, prod(F) * sum |box|^2, without a
    transform. The box is the field's window, the span of the support's
    lattice indices, and the coefficient vector is scattered into it. The
    fraction is exact: the dot product of |f|^2 on the kernel's grid G with
    the kernel, added up over the slabs of G in a slab loop of its own, each
    slab's kernel values gathered from the stored orthant at the mirrored
    indices of its points. A kernel whose shape is not the orthant of this
    field's G is rejected, also for a zero field. The fraction is None
    without a ball and for a field with no nonzero coefficient, whose norms
    are all 0.
    """
    n, L = field.window.n, field.window.L
    bad = [p for p in ps if not (p >= 2 and p % 2 == 0)]
    if bad:
        raise DomainError(f"norms are exact for even integer p >= 2 only, got {bad}")

    G = _ball_grid(field.window.dims)
    orthant = tuple(g // 2 + 1 for g in G)
    if ball is not None and ball.shape != orthant:
        raise DomainError(f"ball kernel of shape {ball.shape}, this field's "
                          f"support box needs the orthant {orthant} of {G}")
    if not np.any(field.coeffs):
        return {p: 0.0 for p in ps}, None
    box = field.dense()

    F = norm_grid(box.shape, ps)
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
    rows = _mirror(G[0])
    cols = np.ravel_multi_index(np.ix_(*map(_mirror, G[1:])),
                                orthant[1:]).ravel()
    inside = sum(_inside(ab2, ball, rows[r0:r0 + len(ab2)], cols)
                 for r0, ab2 in _abs2(box, G))
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


def norm_peak_bytes(span, ps, reach):
    """Upper bound on the peak memory of space_stats, with a ball, for a
    field whose support's lattice indices span a box of the given shape,
    and of the `ball_kernel` build before it, for a ball of radius R with
    reach = R dk = 2 pi R / L.

    space_stats holds, at most, the sum of
    - the box array, 16 bytes per point, held to the end;
    - on the norm grid F: the axis-0 pass output, F_0 * prod(span[1:])
      complex, held through the slab loop; and one slab's working set,
      `_slab_rows(F)` rows of prod(F[1:]) points, 48 bytes per point (plus
      the FFT's line buffers, shorter than a row): the last pass's
      input and output, 32, beside the previous slab's |f|^2 and power
      buffer, 16, which the loop holds until the next slab is yielded.
      p = 2 alone runs no pass on F;
    - the same two terms on the ball's grid G, and the kernel's read there:
      the mirrored flat index of a G row, 8 bytes per row point, held
      through the loop, beside the slab's orthant rows of the kernel and
      the kernel gathered from them at the slab's points, at most 16 bytes
      per slab point, which take the place of the last pass's freed input
      and output;
    - the kernel, 8 bytes per point of its orthant, G_a // 2 + 1 per axis.
    `ball_kernel` builds the kernel before the call, with none of these
    held (`_kernel_build_bytes`).
    """
    def passes(grid, per_point):
        return (16 * grid[0] * np.prod(span[1:], dtype=float)
                + per_point * _slab_rows(grid) * np.prod(grid[1:], dtype=float))

    G = _ball_grid(span)
    orthant = np.prod([g // 2 + 1 for g in G], dtype=float)
    stats = (16 * np.prod(span, dtype=float) + passes(norm_grid(span, ps), 48)
             + passes(G, 48 + 8) + 8 * orthant)
    return int(max(stats, _kernel_build_bytes(G, reach)))


def _kernel_build_bytes(G, reach):
    """Upper bound on the peak memory of `ball_kernel` on the grid G for a
    ball of this reach R dk. No array of the build is larger than twice the
    kernel's orthant. Finding the distinct |q|^2 holds the integer |q|^2
    grid and np.unique's sorted copy, permutation, mask, inverse index and
    distinct values, at most 72 bytes per orthant point when every |q|^2 is
    distinct (n = 2 with a short axis); each irfft then holds its real
    input, the input's complex copy and its real output, at most 40 bytes
    per orthant point. The Gauss-Legendre rule for B_hat and the transform's
    arrays of its size (`gauss_legendre`'s iterates, the nodes, the angles,
    the weights and their sin^n) add at most 128 bytes per node.
    """
    half = np.array([g // 2 for g in G], dtype=float)
    nodes = _ball_nodes(reach * np.sqrt(half @ half))
    return 72 * np.prod(half + 1) + 128 * nodes
