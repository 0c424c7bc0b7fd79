"""Applying the curve average to spectral fields: L^p norms and the ball's share.

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
with A(q) = sum_{k - k' = q} c_k conj(c_k'), so the share of ||f||_2^2 in the
centered ball of radius R is sum_q B_hat(q dk) A(q) / (L^n A(0)), B_hat the
ball's Fourier transform (Stein & Weiss, Introduction to Fourier Analysis
on Euclidean Spaces, ch. IV). B_hat is real and even, so the sum is that of
c's real part plus that of its imaginary part, and it splits over piece
pairs: with each of the N balls' parts x_nu in a common box of D points per
axis from the ball's least index lo_nu, the pair (nu, nu') adds
sum_d B_hat((lo_nu - lo_nu' + d) dk) C(d), C(d) = sum_{a - b = d} x_nu(a)
x_nu'(b) for |d_a| < D_a. A transform F over P = 2D - 1 points per axis
carries C without aliasing: the pair's sum is sum_j F_nu(j) conj(F_nu'(j))
T(j), T the inverse transform of B_hat at the pair's lags. `pair_table`
tabulates T once per support, for the pairs nu <= nu' and j_n = 0 ... D_n - 1
alone, the rest counting twice: x and B_hat are real, so the term at -j is
the conjugate of the one at j (the plane j_n = 0 is its own mirror).
`PairTable.share` then takes one real FFT of the balls' parts and one sum per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import gamma

import numpy as np

from .errors import DomainError, GeometryError
from .legendre import gauss_legendre

__all__ = ["TimeWindow", "PairTable", "pair_table", "space_stats",
           "lp_norm_spacetime", "norm_grid", "norm_peak_bytes", "pair_peak_bytes"]

# grid points per slab of the passes after axis 0, sized so that a slab's
# whole working set fits a core's L2 cache: at the 48 bytes per point that
# norm_peak_bytes charges a slab (the last pass's input and output, |f|^2 and
# the power buffer) it is 768 KiB
_SLAB_POINTS = 1 << 14


@dataclass(frozen=True)
class TimeWindow:
    """Time nodes and their quadrature weights, one per node. `short` is the
    trapezoid rule on m equal steps of the short window [1, 1 + lambda^{-1/n}]."""

    nodes: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.weights) != len(self.nodes):
            raise DomainError(f"{len(self.weights)} weights for "
                              f"{len(self.nodes)} nodes")

    @classmethod
    def short(cls, lam, n, m):
        if m < 5:
            raise DomainError(f"time windows need at least 5 nodes, got {m}")
        nodes = np.linspace(1.0, 1.0 + lam ** (-1.0 / n), m)
        w = np.full(m, nodes[1] - nodes[0])
        w[[0, -1]] /= 2
        return cls(nodes=tuple(nodes), weights=tuple(w))


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


def _ball_boxes(field, radius):
    """Each declared ball's least lattice index in the window, (N, n); the
    common box D, per axis the largest ball's span; and each row's flat
    index in the balls' stacked boxes (N, *D). No declared ball is one. The
    centered ball of this radius must fit the torus box, 0 < radius < L/2:
    a GeometryError otherwise."""
    if not 0 < radius < field.window.L / 2:
        raise GeometryError(f"ball radius {radius:.4g} must lie in "
                            f"(0, half box side {field.window.L / 2:.4g})")
    flats = [b.flat for b in field.support] or [field.flat]
    ks = [np.stack(np.unravel_index(f, field.window.dims), axis=-1)
          for f in flats]
    lo = np.array([k.min(axis=0) for k in ks])
    D = tuple(int(v) + 1 for v in np.max([k.max(axis=0) for k in ks] - lo, 0))
    where = np.concatenate([nu * np.prod(D) + np.ravel_multi_index(
        tuple((k - k0).T), D) for nu, (k, k0) in enumerate(zip(ks, lo))])
    return lo, D, where


@dataclass(frozen=True)
class PairTable:
    """The concentration ball's weights on the piece pairs of a support:
    `rows[nu]` holds T of the pairs (nu, nu' >= nu) on half of P, each
    point times its count (module docstring); `where` places each
    coefficient in the balls' stacked boxes, of shape `box` = (N, *D);
    `volume` is L^n."""

    where: np.ndarray
    box: tuple
    rows: tuple
    volume: float

    def share(self, coeffs):
        """The share of ||f||_2^2 inside the ball for this coefficient
        vector on the table's support; None for a vector with no nonzero
        entry, and a DomainError for one of another length."""
        if len(coeffs) != len(self.where):
            raise DomainError(f"a pair table of {len(self.where)} "
                              f"coefficients, given {len(coeffs)}")
        power = float((coeffs.real ** 2 + coeffs.imag ** 2).sum())
        if power == 0.0:
            return None
        x = np.zeros((2,) + self.box)   # the real and imaginary parts
        x.reshape(2, -1)[:, self.where] = coeffs.real, coeffs.imag
        x = np.fft.rfftn(x, s=[2 * d - 1 for d in self.box[1:]],
                         axes=range(2, len(self.box) + 1))
        inside = sum(np.vdot(x[:, nu:], row * x[:, nu, None]).real
                     for nu, row in enumerate(self.rows))
        return float(inside) / (self.volume * power)


def pair_table(field, radius):
    """The `PairTable` of the centered ball of this radius on the field's
    support. The integer |q|^2 at the lags of each row's pairs are taken
    twice, one row at a time: first to collect the table's distinct values,
    at which B_hat is evaluated once, then to gather B_hat there."""
    window = field.window
    n, L = window.n, window.L
    lo, D, where = _ball_boxes(field, radius)
    lags = np.ix_(*(np.r_[0:d, 1 - d:0] for d in D))

    def lag2(nu):
        gap = (lo[nu] - lo[nu:]).reshape((-1, n) + (1,) * n)
        return sum((gap[:, a] + lags[a]) ** 2 for a in range(n))

    # np.unique sorts with return_inverse, as the quadrature's calls do, and
    # hashes without: 5x slower on these arrays
    present = np.zeros(0, dtype=int)
    for nu in range(len(lo)):
        present = np.unique(np.append(present, lag2(nu)), return_inverse=True)[0]
    b_hat = _ball_transform(np.sqrt(present) * window.dk, radius, n)
    rows = []
    for nu in range(len(lo)):
        row = np.fft.rfftn(b_hat[np.searchsorted(present, lag2(nu))],
                           axes=range(1, n + 1), norm="forward").conj()
        row[..., 1:] *= 2
        row[1:] *= 2
        rows.append(row)
    return PairTable(where=where, box=(len(lo),) + D, rows=tuple(rows),
                     volume=L ** n)


def _slab_rows(grid):
    """Axis-0 rows per slab of the grid: at most `_SLAB_POINTS` grid points,
    one row where a row is larger, and no more rows than the grid has."""
    return min(grid[0], max(1, _SLAB_POINTS // int(np.prod(grid[1:]))))


def _abs2(box, F):
    """|f|^2 on the grid F, slab by slab, over slabs of `_slab_rows(F)`
    axis-0 rows. The box is padded and inverse-transformed along axis 0
    once; each slab of those rows is then transformed along axes 1 ... n-1
    alone and squared in place on its float view, and its complex transform
    is dropped before the slab is yielded."""
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
        yield slab


def space_stats(field, ps):
    """Torus L^p norms (dict p -> norm) for even integer p: exact Riemann
    sums on `norm_grid(box, ps)` over the field's window, added up over the
    slabs of `_abs2` (module docstring), p = 2 from Parseval,
    prod(F) * sum |box|^2. A field with no nonzero coefficient has all its
    norms 0."""
    n, L = field.window.n, field.window.L
    bad = [p for p in ps if not (p >= 2 and p % 2 == 0)]
    if bad:
        raise DomainError(f"norms are exact for even integer p >= 2 only, got {bad}")
    if not np.any(field.coeffs):
        return {p: 0.0 for p in ps}
    box = field.dense()

    F = norm_grid(box.shape, ps)
    top = int(max(ps)) // 2
    sums = {2 * k: 0.0 for k in range(2, top + 1)}
    sums[2] = float(np.prod(F)) * float((box.real ** 2 + box.imag ** 2).sum())
    if top > 1:
        for ab2 in _abs2(box, F):
            pw = ab2 * ab2
            for k in range(2, top + 1):
                if k > 2:
                    pw *= ab2
                if 2 * k in ps:
                    sums[2 * k] += float(pw.sum())
    cell = L ** n / float(np.prod(F))
    return {p: (cell * sums[int(p)]) ** (1.0 / p) / L ** n for p in ps}


def lp_norm_spacetime(space_norms, p, window):
    """The window's quadrature of ||.||_p^p in t, then the p-th root, from
    the space norms at the window's nodes."""
    vals = [float(v) for v in space_norms]
    if len(vals) != len(window.nodes):
        raise DomainError(
            f"{len(vals)} space norms for {len(window.nodes)} time nodes")
    return float((np.asarray(window.weights) @ np.power(vals, p)) ** (1.0 / p))


def norm_peak_bytes(span, ps):
    """Upper bound on the peak memory of space_stats for a field whose
    support's lattice indices span a box of the given shape: the sum of the
    box array, 16 bytes per point; the axis-0 pass output on the norm grid
    F, F_0 * prod(span[1:]) complex; and one slab's working set, 48 bytes
    per point of `_slab_rows(F)` rows of prod(F[1:]) (plus the FFT's line
    buffers, shorter than a row): the last pass's input and output, 32,
    beside the previous slab's |f|^2 and power buffer, 16, which the loop
    holds until the next slab is yielded. p = 2 alone runs no pass on F,
    and is charged as if it did."""
    F = norm_grid(span, ps)
    return int(16 * np.prod(span, dtype=float)
               + 16 * F[0] * np.prod(span[1:], dtype=float)
               + 48 * _slab_rows(F) * np.prod(F[1:], dtype=float))


def pair_peak_bytes(field, radius):
    """Upper bound on the peak memory of `pair_table` on this field and of
    one `PairTable.share` beside the table, from its N balls on a common
    box of D points per axis, P = 2D - 1: the table; 96 bytes per distinct
    |q|^2 (at most one per pair lag and one per integer up to the largest)
    for np.unique's and B_hat's arrays over them; 112 bytes per point of a
    row of N P (the build's |q|^2, np.unique's arrays, the gather and the
    transform; a share's boxes, their transform and one row times a ball);
    128 bytes per node of B_hat's Gauss-Legendre rule for the largest |q|;
    and 1 KiB per ball and 16 KiB for the fixed-size arrays and objects.
    A radius that `pair_table` rejects is the same GeometryError here."""
    lo, D, _ = _ball_boxes(field, radius)
    N, P = len(lo), np.prod([2 * d - 1 for d in D], dtype=float)
    pairs = N * (N + 1) / 2
    reach = np.ptp(lo, axis=0) + np.array(D) - 1
    nodes = _ball_nodes(radius * field.window.dk * np.sqrt(reach @ reach))
    return int(16 * pairs * P * D[-1] / (2 * D[-1] - 1)
               + 96 * min(pairs * P, reach @ reach + 1) + 112 * N * P
               + 128 * nodes + 1024 * (N + 16))
