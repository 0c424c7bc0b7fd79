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
blocks of `_block_width` nodes, as many as fit one byte budget
(`_BLOCK_BYTES`, 1 MiB) over every block-sized array but at least four
panels, so that a block's working set fits a core's L2 cache; each block
takes its own nodes and weights (`legendre.panel_rule`) and gamma(s), so no
array grows with the panel count, and the block-sized arrays are allocated
once per ladder level and filled in place by every block. Per block the
tables are built at the first time node only and advanced to each later
node by one complex multiply per entry with the tables of the step
t_k - t_{k-1} (each distinct step's tables are built once per block); at
every time node the block's matrix product is added to that node's sums per
(leading tuple, last coordinate), from which the batch's values are gathered
once, after the last block. A table is built by running products, too: its
row at the least coordinate c_0 and one row per distinct gap between
successive coordinates are exponentiated, and the row of c_j is that of
c_{j-1} times the row of c_j - c_{j-1}. The cost thus follows the distinct
gaps per axis and the distinct time steps: on a lattice support of m points
with `steps` distinct steps between its time nodes, (1 + steps) x nodes x
(sum over axes of 1 + the distinct gaps) exponentials replace time nodes x
nodes x m; points off a lattice simply have more distinct gaps (at most one
per coordinate), and arbitrary time nodes more distinct steps.

On the cone the reduced multiplier m_t = e^{i t phi} mu_hat_t tends to
`leading_constant` times `cone_decay`'s chi(theta) (t u_n(xi))^{-1/n}: the
constant is alpha_n (n!)^{1/n} (alpha_n normalizes the monic phase v^n, the
curve's phase is s^n/n!), conjugated for even n under the e^{-i<x,xi>}
convention. `curveavg.verify.multiplier_sample` holds one sample against
that leading term.
"""

from __future__ import annotations

from math import ceil, factorial, gamma as gamma_fn, pi, sin
from typing import NamedTuple

import numpy as np

from .errors import DomainError, QuadratureError
from .legendre import GL16_NODES, panel_rule

__all__ = ["alpha_n", "mu_hat_batch", "quadrature_peak_bytes",
           "leading_constant", "cone_decay"]

_MAX_PANELS = 1 << 15
_REL_TOL = 1e-9
# bytes of the arrays of a node block of _gl_values that grow with its
# rows: the table set of t_0 and of each distinct step (16 bytes per
# distinct coordinate per node) and, for n > 2, the leading products and one
# gathered table (16 bytes per leading tuple per node each). Every time node
# walks them all, so together they should fit a core's L2 cache (2 MiB)
# beside what else the block reads; 1 MiB is 2^16 complex entries
_BLOCK_BYTES = 1 << 20
# the least nodes per block, four panels: below that, _tables' per-row loop
# is no longer amortized over a block's nodes on supports of many rows
_MIN_BLOCK_NODES = 4 * GL16_NODES.size


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
    # the block-sized arrays are freed before the batch's values are gathered
    return _node_sums(curve, cutoff, ts, freq, panels)[:, freq.lead_of,
                                                        freq.last_of]


def _node_sums(curve, cutoff, ts, freq, panels):
    """Per time node, the sum over the nodes per (leading tuple, last
    coordinate), walked in node blocks (module docstring)."""
    nodes = panels * GL16_NODES.size
    width = min(nodes, _block_width(freq, ts))
    dts = np.diff(ts).tolist()
    distinct = dict.fromkeys(dts)
    sums = np.zeros((len(ts), len(freq.lead[0]), len(freq.coords[-1])),
                    dtype=complex)
    # the block-sized arrays, once per level and filled in place by every
    # block (a ragged last block uses their leading parts): per table set,
    # one flat buffer per axis; the rows a table is built from; for n > 2
    # the leading products and one gathered table
    first, *sets = ([np.empty(len(c) * width, dtype=complex)
                     for c in freq.coords] for _ in range(1 + len(distinct)))
    rows = np.empty(width * max(len(e) for e, _ in freq.gaps), dtype=complex)
    products = [np.empty(len(freq.lead[0]) * width, dtype=complex)
                for _ in range(2 * (len(freq.coords) > 2))]
    # e^{-it<gamma(s), xi>} = prod_a e^{-it gamma_a(s) xi_a}: one table
    # (distinct coordinates x nodes of the block) per axis, built at the
    # first time node with the weights folded into the last, then advanced
    # node to node by E_a(t_k) = E_a(t_{k-1}) e^{-i(t_k - t_{k-1}) gamma_a(s) c};
    # each distinct step's tables are exponentiated once per block. On
    # [1, 2] every step is exact (Sterbenz), so the steps' phases sum exactly
    # to t_k - t_0.
    for lo in range(0, nodes, width):
        hi = min(lo + width, nodes)
        s, w = panel_rule(panels, cutoff.delta, lo, hi)
        g = curve.derivative(0, s)
        tables = _tables(freq, g, ts[0], first, rows)
        tables[-1] *= cutoff(s) * w
        steps = {dt: _tables(freq, g, dt, out, rows)
                 for dt, out in zip(distinct, sets)}
        # no block's nodes are held while the next block's are built
        del s, w, g
        lead = [_leading(buf, len(freq.lead[0]), hi - lo) for buf in products]
        for i in range(len(ts)):
            if i:
                for table, advance in zip(tables, steps[dts[i - 1]]):
                    table *= advance
            # at n = 2 the leading tuples are every axis-0 coordinate, in order
            left = tables[0]
            if lead:
                # mode="clip": the default "raise" buffers `out`
                left, gathered = lead
                np.take(tables[0], freq.lead[0], axis=0, out=left, mode="clip")
                for table, index in zip(tables[1:-1], freq.lead[1:]):
                    np.take(table, index, axis=0, out=gathered, mode="clip")
                    left *= gathered
            sums[i] += left @ tables[-1].T
    return sums


def _leading(buf, rows, cols):
    """The first rows x cols entries of the flat buffer buf, as a C-ordered
    (rows, cols) view."""
    return buf[:rows * cols].reshape(rows, cols)


def _tables(freq, gam, t, out, rows):
    """Per axis a, e^{-it gamma_a(s) c} over its sorted distinct coordinates
    c_0 < c_1 < ..., written into out (one flat buffer per axis) and returned
    as (coordinates x nodes) views: the rows of c_0 and of each distinct gap
    c_j - c_{j-1} are exponentiated in the flat buffer rows, and row j is
    row j-1 times the row of its gap."""
    tables = []
    for (exponents, index), g, buf in zip(freq.gaps, gam.T, out):
        # the phase goes straight into the imaginary parts: no temporary
        exps = _leading(rows, len(exponents), len(g))
        exps.real = 0.0
        np.multiply(np.multiply.outer(exponents, g, out=exps.imag), -t,
                    out=exps.imag)
        np.exp(exps, out=exps)
        table = _leading(buf, len(index), len(g))
        table[0] = exps[0]
        for j, k in enumerate(index[1:], 1):
            np.multiply(table[j - 1], exps[k], out=table[j])
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

    def entries(self, sets):
        """The complex entries a node block holds per node with `sets` table
        sets: each set's tables (a row per distinct coordinate per axis)
        and, for n > 2, the leading products and one gathered table (a row
        per leading tuple each; at n = 2 the products are the first table)."""
        lead = 2 * len(self.lead[0]) if len(self.coords) > 2 else 0
        return sets * sum(len(c) for c in self.coords) + lead


def _frequencies(xis):
    # return_inverse also keeps np.unique off its masked-array test, whose
    # first call imports numpy.ma
    coords, where = zip(*(np.unique(col, return_inverse=True) for col in xis.T))
    counts = [len(c) for c in coords[:-1]]
    lead, lead_of = np.unique(np.ravel_multi_index(where[:-1], counts),
                              return_inverse=True)
    return _Frequencies(coords, tuple(_gaps(c) for c in coords),
                        np.unravel_index(lead, counts), lead_of, where[-1])


def _block_width(freq, ts):
    """Nodes per block of _gl_values on the frequencies freq at the time nodes
    ts: the block's `_Frequencies.entries` for 1 + `_distinct_steps(ts)`
    table sets, 16 bytes each per node, fit _BLOCK_BYTES, and a block is at
    least `_MIN_BLOCK_NODES`, four panels, so that building its tables, one
    Python-level multiply per row, stays cheap beside the block's
    exponentials and products."""
    entries = freq.entries(1 + _distinct_steps(ts))
    return max(_MIN_BLOCK_NODES, _BLOCK_BYTES // (16 * entries))


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

    Distinct coordinates, gaps and leading tuples are found once per call and
    each level walks its nodes in blocks (module docstring): the cost follows
    the distinct gaps per axis and the distinct time steps, not the batch size.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    if not np.all((ts >= 1.0) & (ts <= 2.0)):
        raise DomainError("t must lie in [1, 2]")
    if not np.all(np.isfinite(xis)):
        raise DomainError("frequencies must be finite")
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
                nodes = 2 * panels * GL16_NODES.size
                stats.update(
                    panels=2 * panels, nodes=nodes, residual=gap / scale,
                    steps=steps, levels=levels,
                    blocks=-(-nodes // _block_width(freq, ts)),
                    # per node and table set: each axis's c_0 and gaps
                    exponentials=(1 + steps) * panels_run * GL16_NODES.size
                    * sum(len(exponents) for exponents, _ in freq.gaps))
            return fine
        panels *= 2
        if panels > _MAX_PANELS:
            raise QuadratureError(
                f"oscillatory quadrature not converged at {panels} panels "
                f"(|xi| up to {np.linalg.norm(xis, axis=1).max():.3g})")
        coarse = fine


def quadrature_peak_bytes(xis, ts):
    """Upper bound on the peak memory of mu_hat_batch(curve, cutoff, ts,
    xis), whatever the panel count its ladder runs to.

    No term follows the panel count. A ladder level holds one node block's
    arrays, sized by `_block_width`'s rule: `_Frequencies.entries` x the
    width complex entries (the table sets of t_0 and of each distinct step
    and, for n > 2, the leading products and one gathered table), at most
    _BLOCK_BYTES unless the four-panel floor sets the width, and the rows a
    table is built from (one per exponentiated row of the axis with most).
    Beside them are 8 (n + 8) bytes per block node, its nodes, weights and
    gamma(s) with the temporaries of `panel_rule` and the cutoff, and the
    block's panel edges and centres, 16 bytes per panel.
    Then the per-time-node sums over the blocks and one matrix product; the
    coarse and fine results with their difference and its modulus; and the
    index arithmetic on the frequencies.
    """
    freq = _frequencies(xis)
    n, modes, times = len(freq.coords), len(xis), len(ts)
    width = _block_width(freq, ts)
    rows = max(len(exponents) for exponents, _ in freq.gaps)
    return int(16 * width * (freq.entries(1 + _distinct_steps(ts)) + rows)
               + 8 * width * (n + 8) + 16 * (width // GL16_NODES.size + 2)
               + 16 * (times + 1) * len(freq.lead[0]) * len(freq.coords[-1])
               + 56 * times * modes + 8 * modes * (3 * n + 4))


def leading_constant(n):
    """conj^{[n even]}(alpha_n) (n!)^{1/n}: see the module docstring."""
    base = alpha_n(n)
    return (base.conjugate() if n % 2 == 0 else base) * factorial(n) ** (1.0 / n)


def cone_decay(chart, cutoff, t, xis):
    """Per frequency, phi(xi) and chi(theta(xi)) (t u_n(xi))^{-1/n}. The
    power is taken on Python floats, as scalar arithmetic rounds it."""
    if not 0.0 < t < np.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    theta = chart.solve_theta_batch(xis)
    phi, un = chart.phi_un_at(xis, theta)
    if np.any(un <= 0.0):
        raise DomainError(f"u_n(xi) = {un.min():.3g} <= 0: not a moment-like direction")
    power = [(t * u) ** (-1.0 / chart.n) for u in un.tolist()]
    return phi, cutoff(theta) * np.array(power)
