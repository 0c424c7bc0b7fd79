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
axis's table by one matrix product per time node. The tables are built at
the first time node only and advanced to each later node by one complex
multiply per entry with the tables of the step t_k - t_{k-1}; each distinct
step's tables are built once. A table is built by running products, too: its
row at the least coordinate c_0 and one row per distinct gap between
successive coordinates are exponentiated, and the row of c_j is that of
c_{j-1} times the row of c_j - c_{j-1}. The cost thus follows the distinct
gaps per axis and the distinct time steps: on a lattice support of m points
with `steps` distinct steps between its time nodes, (1 + steps) x nodes x
(sum over axes of 1 + the distinct gaps) exponentials replace time nodes x
nodes x m; points off a lattice simply have more distinct gaps (at most one
per coordinate), and arbitrary time nodes more distinct steps.

On the cone the reduced multiplier m_t = e^{i t phi} mu_hat_t decays exactly
like (t u_n(xi))^{-1/n}; `multiplier_sample` packages the sample, the
reference constant alpha_n chi(theta) (t u_n)^{-1/n}, and the measured leading
term (which carries an extra (n!)^{1/n}: the constant alpha_n normalizes the
monic phase v^n while the curve's phase is s^n/n!).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, factorial, gamma as gamma_fn, pi, sin

import numpy as np

from .errors import DomainError, QuadratureError, ResolutionError

__all__ = ["alpha_n", "mu_hat", "mu_hat_batch", "quadrature_peak_bytes",
           "MultiplierSample", "multiplier_sample", "derivative_bound_check"]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_MAX_PANELS = 1 << 15
_REL_TOL = 1e-9
# complex elements per chunk of leading tuples x nodes in _gl_values
_CHUNK_ELEMENTS = 4_000_000


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


def _gl_values(curve, cutoff, ts, xis, panels):
    edges = np.linspace(-cutoff.delta, cutoff.delta, panels + 1)
    half = (edges[1] - edges[0]) / 2
    s = ((edges[:-1] + edges[1:]) / 2)[:, None] + half * _GL_NODES[None, :]
    s = s.ravel()
    weighted = cutoff(s) * np.tile(_GL_WEIGHTS * half, panels)
    gam = curve.derivative(0, s)
    # distinct coordinates per axis, and the distinct leading (n-1)-tuples
    coords, where = _distinct(xis)
    counts = [len(c) for c in coords[:-1]]
    lead, lead_of = np.unique(np.ravel_multi_index(where[:-1], counts),
                              return_inverse=True)
    lead = np.unravel_index(lead, counts)
    out = np.empty((len(ts), len(xis)), dtype=complex)
    chunk = max(1, _CHUNK_ELEMENTS // s.size)
    # e^{-it<gamma(s), xi>} = prod_a e^{-it gamma_a(s) xi_a}: one table
    # (distinct coordinates x nodes) per axis, built at the first time node
    # with the weights folded into the last, then advanced node to node by
    # E_a(t_k) = E_a(t_{k-1}) e^{-i(t_k - t_{k-1}) gamma_a(s) c}; each
    # distinct step's tables are exponentiated once. On [1, 2] every step is
    # exact (Sterbenz), so the steps' phases sum exactly to t_k - t_0.
    tables = _tables(coords, gam, ts[0])
    tables[-1] *= weighted
    steps = {}
    for i, t in enumerate(ts):
        if i:
            dt = t - ts[i - 1]
            if dt not in steps:
                steps[dt] = _tables(coords, gam, dt)
            for table, advance in zip(tables, steps[dt]):
                table *= advance
        block = np.empty((len(lead[0]), len(coords[-1])), dtype=complex)
        for j in range(0, len(block), chunk):
            left = tables[0][lead[0][j:j + chunk]]
            for table, rows in zip(tables[1:-1], lead[1:]):
                left *= table[rows[j:j + chunk]]
            block[j:j + chunk] = left @ tables[-1].T
            del left    # free the chunk before the next one is gathered
        out[i] = block[lead_of, where[-1]]
    return out


def _tables(coords, gam, t):
    """Per axis a, e^{-it gamma_a(s) c} over its sorted distinct coordinates
    c_0 < c_1 < ...: the rows of c_0 and of each distinct gap c_j - c_{j-1}
    are exponentiated, and row j is row j-1 times the row of its gap."""
    tables = []
    for c, g in zip(coords, gam.T):
        exponents, row_of = _gaps(c)
        # the phase goes straight into the imaginary parts: no complex
        # temporary, as quadrature_peak_bytes counts 24 B per row and node
        rows = np.zeros((len(exponents), len(g)), dtype=complex)
        np.multiply(np.multiply.outer(exponents, g), -t, out=rows.imag)
        np.exp(rows, out=rows)
        table = np.empty((len(c), len(g)), dtype=complex)
        table[0] = rows[0]
        for j, k in enumerate(row_of, 1):
            np.multiply(table[j - 1], rows[k], out=table[j])
        tables.append(table)
    return tables


def _gaps(c):
    """What _tables exponentiates for the sorted coordinates c: c_0 and the
    distinct gaps between successive ones; and for each j >= 1 the index of
    c_j - c_{j-1} among them."""
    gaps, gap_of = np.unique(np.diff(c), return_inverse=True)
    return np.concatenate((c[:1], gaps)), gap_of + 1


def _distinct(xis):
    """Per axis, the sorted distinct coordinates of the points xis and the
    index of each point's coordinate among them."""
    # return_inverse also keeps np.unique off its masked-array test, whose
    # first call imports numpy.ma
    return tuple(zip(*(np.unique(col, return_inverse=True) for col in xis.T)))


def _exponentials_per_node(xis):
    """The exponentials of one table set per quadrature node: per axis, one
    for its least coordinate and one per distinct gap."""
    return sum(len(_gaps(c)[0]) for c in _distinct(xis)[0])


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
    `levels`, the number of ladder levels run, and `exponentials`, the
    complex exponentials their tables evaluated.

    The cost follows the distinct gaps per axis and the distinct time steps,
    not the batch size: each ladder level builds 1 + `steps` table sets of
    nodes x (sum over axes of the distinct coordinates) entries, each entry
    by one complex multiply, from nodes x (sum over axes of 1 + the distinct
    gaps between successive coordinates) exponentials; it advances the
    tables by one complex multiply per entry at each later time node, and
    does one matrix product per time node, whose size is the distinct
    leading (n-1)-tuples x the distinct last coordinates. On a lattice
    support of m points that is far fewer than nodes x m exponentials per
    time node.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    if np.any(ts < 1.0) or np.any(ts > 2.0):
        raise DomainError("t must lie in [1, 2]")
    panels = _panel_start(curve, cutoff, ts, xis)
    coarse = _gl_values(curve, cutoff, ts, xis, panels)
    levels, panels_run = 1, panels
    while True:
        fine = _gl_values(curve, cutoff, ts, xis, 2 * panels)
        levels, panels_run = levels + 1, panels_run + 2 * panels
        scale = max(float(np.abs(fine).max()), 1e-300)
        gap = float(np.abs(fine - coarse).max())
        if gap <= _REL_TOL * scale:
            if stats is not None:
                steps = _distinct_steps(ts)
                stats.update(
                    panels=2 * panels, nodes=2 * panels * _GL_NODES.size,
                    residual=gap / scale, steps=steps, levels=levels,
                    exponentials=(1 + steps) * panels_run * _GL_NODES.size
                    * _exponentials_per_node(xis))
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

    The terms: the tables and the cached table set of each distinct step;
    the rows one table is built from (its least coordinate's and one per
    distinct gap, so at most one per distinct coordinate) with the real
    phase of their exponent; the leading-tuple chunk with one gathered table
    row block; the block of the matrix product and its gather; the coarse
    and fine results with their difference and its modulus; the nodes'
    arrays and the index arithmetic on the frequencies.
    """
    n = len(coords)
    chunk = min(leading, max(1, _CHUNK_ELEMENTS // nodes))
    return int(16 * nodes * sum(coords) * (1 + steps) + 24 * nodes * max(coords)
               + 32 * chunk * nodes
               + 16 * leading * coords[-1] + 16 * modes
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


def _stencil(n, max_order):
    """Multi-indices |alpha| <= max_order and the offsets their stencils need."""
    alphas = [()]
    if max_order >= 1:
        alphas += [(i,) for i in range(n)]
    if max_order >= 2:
        alphas += [(i, j) for i in range(n) for j in range(i, n)]
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


def derivative_bound_check(curve, cutoff, chart, t, xi, max_order=2, rho=0.25):
    """Finite-difference check that |d^alpha m_t| tracks lambda^{-1/n-|alpha|/n}.

    Central differences with step h = rho * lambda^{1/n} / 64 per axis; every
    stencil point is evaluated in one quadrature batch. Returns a list of
    (alpha, |d^alpha m_t|, bound, ratio) rows; the interesting assertion — the
    ratios carry no growth trend in lambda — belongs to the caller, since one
    lambda alone cannot show a trend.
    """
    if max_order > 2:
        raise DomainError("derivative table implemented for |alpha| <= 2")
    xi = np.asarray(xi, dtype=float)
    lam = float(np.linalg.norm(xi))
    if lam < 64.0:
        raise DomainError(f"|xi| = {lam:.3g} < 64: below the asymptotic window")
    n = curve.n
    h = rho * lam ** (1.0 / n) / 64.0
    if h <= lam * 1e-14:
        raise ResolutionError(f"difference step {h:.3g} underflows at |xi| = {lam:.3g}")

    alphas, offsets = _stencil(n, max_order)
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
