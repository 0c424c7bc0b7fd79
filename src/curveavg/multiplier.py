"""The averaging multiplier: oscillatory quadrature for mu_hat_t and its asymptotics.

Under the transform convention f_hat(xi) = integral f(x) e^{-i<x,xi>} dx, the
curve average acts as the Fourier multiplier

    mu_hat_t(xi) = integral chi(s) e^{-i t <gamma(s), xi>} ds ,

computed here by composite 16-point Gauss-Legendre panels with a panel count
proportional to the worst phase rate and a Richardson (panel-doubling) accuracy
check. The phase factorises per axis, e^{-it<gamma(s), xi>} = prod_a
e^{-it gamma_a(s) xi_a}, so a batch needs one exponential table per axis over
that axis's distinct coordinates. The leading n - 1 tables, gathered at the
batch's distinct leading (n-1)-tuples, are contracted with the weighted last
axis's table by one matrix product per time node. The nodes are walked in
blocks of `_block_width` nodes, 2^15 table entries but at least four panels,
whose working set fits a core's L2 cache. Per block the tables are built at
the first time node only and advanced to each later node by one complex
multiply per entry with the tables of the step t_k - t_{k-1} (each distinct
step's tables are built once per block); at every time node the block's
matrix product is added to that node's sums per (leading tuple, last
coordinate), from which the batch's values are gathered once, after the last
block. A table is built by running products, too: its row at the least
coordinate c_0 and one row per distinct gap between successive coordinates
are exponentiated, and the row of c_j is that of c_{j-1} times the row of
c_j - c_{j-1}. The cost thus follows the distinct gaps per axis and the
distinct time steps: on a lattice support of m points with `steps` distinct
steps between its time nodes, (1 + steps) x nodes x (sum over axes of 1 +
the distinct gaps) exponentials replace time nodes x nodes x m; points off a
lattice simply have more distinct gaps (at most one per coordinate), and
arbitrary time nodes more distinct steps.

On the cone the reduced multiplier m_t = e^{i t phi} mu_hat_t decays exactly
like (t u_n(xi))^{-1/n}; `multiplier_sample` packages the sample, the
reference constant alpha_n chi(theta) (t u_n)^{-1/n}, and the measured leading
term (which carries an extra (n!)^{1/n}: the constant alpha_n normalizes the
monic phase v^n while the curve's phase is s^n/n!).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, factorial, gamma as gamma_fn, pi, sin
from typing import NamedTuple

import numpy as np

from .errors import DomainError, QuadratureError, ResolutionError

__all__ = ["alpha_n", "mu_hat", "mu_hat_batch", "quadrature_peak_bytes",
           "MultiplierSample", "multiplier_sample", "derivative_bound_check"]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_MAX_PANELS = 1 << 15
_REL_TOL = 1e-9
# complex entries per node block of _gl_values: the rows a time node works
# on (tables, leading products) x the block's nodes. Every time node walks
# them all, so a block's working set should fit a core's L2 cache. A time
# node touches 32 bytes per entry (the tables and one step's advance, or the
# leading products and one gathered table), 1 MiB; the whole block, at the
# count quadrature_peak_bytes charges (16 bytes per entry for the tables and
# for each distinct step's cached set, 24 for the rows a table is built from
# and, for n > 2, 32 for the leading products and a gathered table), is
# 2.25 MiB at n = 2 and 3.25 MiB at n = 3 for the short window's two steps
_BLOCK_ELEMENTS = 1 << 15
# the least nodes per block, four panels: below that, _tables' per-row loop
# is no longer amortized over a block's nodes on supports of many rows
_MIN_BLOCK_NODES = 4 * _GL_NODES.size


def alpha_n(n):
    """The stationary-phase constant: integral over R of e^{i v^n} dv.

    (2/n)Gamma(1/n) sin((n-1)pi/(2n)) for odd n (real), (2/n)Gamma(1/n)
    e^{i pi/(2n)} for even n. Returned as complex in both cases.
    """
    if n < 2:
        raise DomainError(f"alpha_n needs n >= 2, got {n}")
    mag = (2.0 / n) * gamma_fn(1.0 / n)
    if n % 2:
        return complex(mag * sin((n - 1) * pi / (2 * n)), 0.0)
    return mag * np.exp(1j * pi / (2 * n))


def _panel_start(curve, cutoff, ts, xis):
    # >= 12 nodes per oscillation: the total phase sweep over supp chi is at
    # most t * max_s |<gamma'(s), xi>| * 2 delta.
    s_probe = np.linspace(-cutoff.delta, cutoff.delta, 33)
    rate = np.abs(curve.derivative(1, s_probe) @ xis.T).max()
    cycles = float(np.max(ts)) * rate * 2 * cutoff.delta / (2 * pi)
    return min(max(2, ceil(cycles * 12 / 16) + 1), _MAX_PANELS)


def _gl_values(curve, cutoff, ts, freq, panels):
    edges = np.linspace(-cutoff.delta, cutoff.delta, panels + 1)
    half = (edges[1] - edges[0]) / 2
    s = ((edges[:-1] + edges[1:]) / 2)[:, None] + half * _GL_NODES[None, :]
    s = s.ravel()
    weighted = cutoff(s) * np.tile(_GL_WEIGHTS * half, panels)
    gam = curve.derivative(0, s)
    width = _block_width(freq.rows)
    # per time node, the sum over the nodes per (leading tuple, last coordinate)
    sums = np.zeros((len(ts), len(freq.lead[0]), len(freq.coords[-1])),
                    dtype=complex)
    # e^{-it<gamma(s), xi>} = prod_a e^{-it gamma_a(s) xi_a}: one table
    # (distinct coordinates x nodes of the block) per axis, built at the
    # first time node with the weights folded into the last, then advanced
    # node to node by E_a(t_k) = E_a(t_{k-1}) e^{-i(t_k - t_{k-1}) gamma_a(s) c};
    # each distinct step's tables are exponentiated once per block. On
    # [1, 2] every step is exact (Sterbenz), so the steps' phases sum exactly
    # to t_k - t_0.
    for lo in range(0, s.size, width):
        g = gam[lo:lo + width]
        tables = _tables(freq, g, ts[0])
        tables[-1] *= weighted[lo:lo + width]
        steps = {}
        for i, t in enumerate(ts):
            if i:
                dt = t - ts[i - 1]
                if dt not in steps:
                    steps[dt] = _tables(freq, g, dt)
                for table, advance in zip(tables, steps[dt]):
                    table *= advance
            # at n = 2 the leading tuples are every axis-0 coordinate, in order
            left = tables[0]
            if len(tables) > 2:
                left = left[freq.lead[0]]
                for table, rows in zip(tables[1:-1], freq.lead[1:]):
                    left *= table[rows]
            sums[i] += left @ tables[-1].T
    return sums[:, freq.lead_of, freq.last_of]


def _tables(freq, gam, t):
    """Per axis a, e^{-it gamma_a(s) c} over its sorted distinct coordinates
    c_0 < c_1 < ...: the rows of c_0 and of each distinct gap c_j - c_{j-1}
    are exponentiated, and row j is row j-1 times the row of its gap."""
    tables = []
    for (exponents, index), g in zip(freq.gaps, gam.T):
        # the phase goes straight into the imaginary parts: no complex
        # temporary, as quadrature_peak_bytes counts 24 B per row and node
        rows = np.zeros((len(exponents), len(g)), dtype=complex)
        np.multiply(np.multiply.outer(exponents, g), -t, out=rows.imag)
        np.exp(rows, out=rows)
        table = np.empty((len(index), len(g)), dtype=complex)
        table[0] = rows[0]
        for j, k in enumerate(index[1:], 1):
            np.multiply(table[j - 1], rows[k], out=table[j])
        tables.append(table)
    return tables


def _gaps(c):
    """What _tables exponentiates for the sorted coordinates c: c_0 and the
    distinct gaps between successive ones; and the index among them of c_0
    and of each c_j - c_{j-1}, j >= 1."""
    gaps, gap_of = np.unique(np.diff(c), return_inverse=True)
    return np.concatenate((c[:1], gaps)), np.concatenate(([0], gap_of + 1))


class _Frequencies(NamedTuple):
    """What the quadrature reads of a batch of frequencies: per axis, the
    sorted distinct coordinates (`coords`) and their `_gaps`; per leading
    axis, the coordinate index of each distinct leading (n-1)-tuple
    (`lead`); and per point, the index of its leading tuple (`lead_of`) and
    of its last coordinate (`last_of`)."""

    coords: tuple
    gaps: tuple
    lead: tuple
    lead_of: np.ndarray
    last_of: np.ndarray

    @property
    def rows(self):
        """The rows a time node works on per block node (`_block_rows`)."""
        return _block_rows([len(c) for c in self.coords], len(self.lead[0]))


def _frequencies(xis):
    # return_inverse also keeps np.unique off its masked-array test, whose
    # first call imports numpy.ma
    coords, where = zip(*(np.unique(col, return_inverse=True) for col in xis.T))
    counts = [len(c) for c in coords[:-1]]
    lead, lead_of = np.unique(np.ravel_multi_index(where[:-1], counts),
                              return_inverse=True)
    return _Frequencies(coords, tuple(_gaps(c) for c in coords),
                        np.unravel_index(lead, counts), lead_of, where[-1])


def _block_rows(counts, leading):
    """The rows a time node works on per node of a block, for `counts[a]`
    distinct coordinates on axis a and `leading` distinct leading tuples:
    the tables and, for n > 2, the leading products (at n = 2 those are the
    first table)."""
    return sum(counts) + (leading if len(counts) > 2 else 0)


def _block_width(rows):
    """Nodes per block of _gl_values for `rows` rows per node (`_block_rows`):
    the rows x the width fit _BLOCK_ELEMENTS, and a block is at least
    `_MIN_BLOCK_NODES`, four panels, so that building its tables, one
    Python-level multiply per row, stays cheap beside the block's
    exponentials and products."""
    return max(_MIN_BLOCK_NODES, _BLOCK_ELEMENTS // rows)


def _exponentials_per_node(freq):
    """The exponentials of one table set per quadrature node: per axis, one
    for its least coordinate and one per distinct gap."""
    return sum(len(exponents) for exponents, _ in freq.gaps)


def _distinct_steps(ts):
    """The number of distinct differences between successive time nodes:
    _gl_values exponentiates one table set per step, plus one at the start."""
    return len(set(np.diff(ts).tolist()))


def mu_hat_batch(curve, cutoff, ts, xis, stats=None):
    """mu_hat_t(xi) on a (t, xi) product grid; shape (len(ts), len(xis)).

    One panel ladder is shared by the whole batch; refinement stops when the
    worst entry moves by less than 1e-9 of the batch magnitude. Given a dict,
    `stats` receives the final `panels`, the node count `nodes` (16 per
    panel), `residual`, the final max |fine - coarse| over that magnitude,
    `steps`, the number of distinct differences between successive ts,
    `levels`, the number of ladder levels run, `blocks`, the node blocks of
    the final level, and `exponentials`, the complex exponentials their
    tables evaluated.

    The batch's distinct coordinates, gaps and leading tuples are found once
    per call, and each ladder level walks its nodes in blocks as the module
    docstring describes, so the cost follows the distinct gaps per axis and
    the distinct time steps, not the batch size.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    if np.any(ts < 1.0) or np.any(ts > 2.0):
        raise DomainError("t must lie in [1, 2]")
    freq = _frequencies(xis)
    panels = _panel_start(curve, cutoff, ts, xis)
    coarse = _gl_values(curve, cutoff, ts, freq, panels)
    levels, panels_run = 1, panels
    while True:
        fine = _gl_values(curve, cutoff, ts, freq, 2 * panels)
        levels, panels_run = levels + 1, panels_run + 2 * panels
        scale = max(float(np.abs(fine).max()), 1e-300)
        gap = float(np.abs(fine - coarse).max())
        if gap <= _REL_TOL * scale:
            if stats is not None:
                steps = _distinct_steps(ts)
                nodes = 2 * panels * _GL_NODES.size
                stats.update(
                    panels=2 * panels, nodes=nodes, residual=gap / scale,
                    steps=steps, levels=levels,
                    blocks=-(-nodes // _block_width(freq.rows)),
                    exponentials=(1 + steps) * panels_run * _GL_NODES.size
                    * _exponentials_per_node(freq))
            return fine
        panels *= 2
        if panels > _MAX_PANELS:
            raise QuadratureError(
                f"oscillatory quadrature not converged at {panels} panels "
                f"(|xi| up to {np.linalg.norm(xis, axis=1).max():.3g})")
        coarse = fine


def quadrature_peak_bytes(nodes, coords, leading, modes, times, steps):
    """Upper bound on the peak memory of mu_hat_batch whose finest level has
    `nodes` nodes, for `modes` frequencies with `coords[a]` distinct
    coordinates on axis a and `leading` distinct leading (n-1)-tuples, at
    `times` time nodes with `steps` distinct steps between them.

    Only the nodes' arrays grow with `nodes`: everything else a node block
    holds is bounded by its entries, _block_rows times the block's
    `_block_width` nodes. The terms, in block entries: the tables and the
    cached table set of each distinct step; the rows one table is built from
    (its least coordinate's and one per distinct gap, so at most one per
    distinct coordinate) with the real phase of their exponent; for n > 2
    the leading products and one gathered table. Then the per-time-node sums
    over the blocks and one matrix product; the coarse and fine results with
    their difference and its modulus; the nodes' arrays and the index
    arithmetic on the frequencies.
    """
    n = len(coords)
    rows = _block_rows(coords, leading)
    block = _block_width(rows) * rows
    return int(16 * block * (1 + steps) + 24 * block + 32 * block * (n > 2)
               + 16 * (times + 1) * leading * coords[-1]
               + 56 * times * modes
               + 8 * nodes * (n + 4) + 8 * modes * (3 * n + 4))


def mu_hat(curve, cutoff, t, xi):
    """Single-point mu_hat_t(xi)."""
    return complex(mu_hat_batch(curve, cutoff, [t], np.asarray(xi, float)[None])[0, 0])


@dataclass(frozen=True)
class MultiplierSample:
    """One multiplier evaluation against its cone asymptotics.

    reference is alpha_n chi(theta(xi)) (t u_n(xi))^{-1/n} and deficit is
    |m - reference| exactly; leading additionally carries the (n!)^{1/n}
    phase-normalization factor (conjugated for even n under the e^{-i<x,xi>}
    convention) and is what m actually converges to.
    """

    xi: tuple
    t: float
    mu_hat: complex
    m: complex
    reference: complex
    deficit: float
    leading: complex
    deficit_leading: float


def multiplier_sample(curve, cutoff, chart, t, xi):
    xi = np.asarray(xi, dtype=float)
    theta = chart.solve_theta(xi)
    phi, un = (float(v[0]) for v in chart.phi_un_batch(xi[None]))
    if un <= 0.0:
        raise DomainError(f"u_n(xi) = {un:.3g} <= 0: not a moment-like direction")
    n = curve.n
    mh = mu_hat(curve, cutoff, t, xi)
    m = complex(np.exp(1j * t * phi) * mh)
    base = alpha_n(n)
    if n % 2 == 0:
        base = base.conjugate()
    scale = float(cutoff(theta)) * (t * un) ** (-1.0 / n)
    reference = complex(alpha_n(n) * scale)
    leading = complex(base * factorial(n) ** (1.0 / n) * scale)
    return MultiplierSample(
        xi=tuple(xi), t=float(t), mu_hat=mh, m=m,
        reference=reference, deficit=abs(m - reference),
        leading=leading, deficit_leading=abs(m - leading))


def _stencil(n):
    """Multi-indices |alpha| <= 2 and the offsets their stencils need."""
    alphas = ([()] + [(i,) for i in range(n)]
              + [(i, j) for i in range(n) for j in range(i, n)])
    offsets = {(0,) * n}
    for a in alphas:
        if len(a) == 1:
            for sgn in (1, -1):
                off = [0] * n
                off[a[0]] = sgn
                offsets.add(tuple(off))
        elif len(a) == 2:
            i, j = a
            signs = [(1, 1), (1, -1), (-1, 1), (-1, -1)] if i != j else [(2, 0), (-2, 0)]
            for si, sj in signs:
                off = [0] * n
                off[i] += si
                off[j] += sj
                offsets.add(tuple(off))
    return alphas, sorted(offsets)


def derivative_bound_check(curve, cutoff, chart, t, xi):
    """Finite-difference check that |d^alpha m_t| tracks lambda^{-1/n-|alpha|/n}
    for |alpha| <= 2.

    Central differences with step h = lambda^{1/n} / 256 per axis; every
    stencil point is evaluated in one quadrature batch. Returns a list of
    (alpha, |d^alpha m_t|, bound, ratio) rows; the interesting assertion — the
    ratios carry no growth trend in lambda — belongs to the caller, since one
    lambda alone cannot show a trend.
    """
    xi = np.asarray(xi, dtype=float)
    lam = float(np.linalg.norm(xi))
    if lam < 64.0:
        raise DomainError(f"|xi| = {lam:.3g} < 64: below the asymptotic window")
    n = curve.n
    h = lam ** (1.0 / n) / 256.0
    if h <= lam * 1e-14:
        raise ResolutionError(f"difference step {h:.3g} underflows at |xi| = {lam:.3g}")

    alphas, offsets = _stencil(n)
    pts = np.array([xi + h * np.asarray(off, dtype=float) for off in offsets])
    phis, _ = chart.phi_un_batch(pts)
    vals = mu_hat_batch(curve, cutoff, [t], pts)[0] * np.exp(1j * t * phis)
    at = {off: vals[k] for k, off in enumerate(offsets)}
    eye = np.eye(n, dtype=int)

    rows = []
    for a in alphas:
        vec = [0] * n
        for i in a:
            vec[i] += 1
        if len(a) == 0:
            fd = abs(at[(0,) * n])
        elif len(a) == 1:
            i = a[0]
            fd = abs(at[tuple(eye[i])] - at[tuple(-eye[i])]) / (2 * h)
        elif a[0] == a[1]:
            i = a[0]
            fd = abs(at[tuple(2 * eye[i])] - 2 * at[(0,) * n]
                     + at[tuple(-2 * eye[i])]) / (2 * h) ** 2
        else:
            i, j = a
            fd = abs(at[tuple(eye[i] + eye[j])] - at[tuple(eye[i] - eye[j])]
                     - at[tuple(eye[j] - eye[i])]
                     + at[tuple(-eye[i] - eye[j])]) / (4 * h * h)
        bound = lam ** (-(1.0 + len(a)) / n)
        rows.append((tuple(vec), float(fd), bound, float(fd / bound)))
    return rows
