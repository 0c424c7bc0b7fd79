import tracemalloc
from dataclasses import replace
from math import gamma
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from curveavg import (CurveSpec, CutoffSpec, DomainError, GeometryError,
                      LatticeWindow, SpectralField, SupportBall,
                      TimeWindow, cell_field, cell_plan, cell_support,
                      lp_norm_spacetime, mu_hat_batch, norm_peak_bytes,
                      pair_peak_bytes, pair_table, parse_config, run_cell,
                      space_stats)
from curveavg import averaging
from curveavg.averaging import norm_grid
from curveavg.verify import direct_oracle

CURVE = CurveSpec.moment(3)
CHI = CutoffSpec(delta=0.25)


def sparse_field(window, fhat):
    """The field of the nonzero entries of a coefficient array laid over
    `window`, on their own box."""
    flat = np.flatnonzero(fhat)
    k = np.stack(np.unravel_index(flat, fhat.shape), axis=-1) + window.k0
    return SpectralField.on_lattice(window.L, k, fhat.ravel()[flat])


def parseval_l2(f):
    """Exact torus L^2 norm via the frequency side: L^{-n} sum |f_hat|^2."""
    power = (np.abs(f.coeffs) ** 2).sum()
    return float(np.sqrt(power / f.L ** f.window.n))


def make_field(modes, amps, L=2.0):
    """The field of the given lattice modes, declared as one support ball."""
    f = SpectralField.on_lattice(L, modes, np.asarray(amps, dtype=complex))
    ball = SupportBall(center=(0.0,) * 3,
                       rows=slice(0, len(f.flat)), flat=f.flat)
    return replace(f, support=(ball,))


# --- time windows -------------------------------------------------------------

def test_short_window_width_is_lambda_root():
    w = TimeWindow.short(64.0, 3, m=5)
    assert w.nodes[-1] - w.nodes[0] == pytest.approx(64.0 ** (-1 / 3), rel=1e-14)


def test_window_needs_five_nodes():
    with pytest.raises(DomainError, match="at least 5"):
        TimeWindow.short(32.0, 3, m=4)


def test_trapezoid_weights_sum_to_span():
    for w in (TimeWindow.short(8.0, 3, m=7), TimeWindow.short(32.0, 3, m=11)):
        span = w.nodes[-1] - w.nodes[0]
        assert np.sum(w.weights) == pytest.approx(span, rel=1e-14)


def test_unequal_nodes_integrate_a_linear_function_exactly():
    # a hand-built window's own trapezoid weights on nodes 1, 1.1, 1.5
    # integrate 1 and 3t - 2 over [1, 1.5] exactly (0.5 and 0.875); weights
    # from the first step alone would read 0.2 for the 1
    nodes = (1.0, 1.1, 1.5)
    w = TimeWindow(nodes=nodes, weights=(0.05, 0.25, 0.2))
    for g, want in ((lambda t: 1.0, 0.5), (lambda t: 3 * t - 2, 0.875)):
        got = lp_norm_spacetime([g(t) for t in nodes], 1.0, w)
        assert got == pytest.approx(want, rel=1e-14)


def test_window_needs_one_weight_per_node():
    with pytest.raises(DomainError, match="2 weights for 3 nodes"):
        TimeWindow(nodes=(1.0, 1.1, 1.5), weights=(0.25, 0.25))


# --- the averaging operator ---------------------------------------------------

def averaged(f, t):
    """A_t f spectrally: the coefficients times mu_hat_t on the support."""
    return f.with_coeffs(f.coeffs * mu_hat_batch(CURVE, CHI, [t], f.xi())[0])


def test_single_mode_is_an_eigenfunction():
    # A_t e^{i xi.x} = mu_hat_t(xi) e^{i xi.x}: the output coefficient sits at
    # the same lattice site, scaled by the multiplier there.
    k = (1, -2, 3)
    f = make_field([k], [2.0 - 1.0j])
    t = 1.3
    out = averaged(f, t)
    xi = np.asarray(k, dtype=float) * f.window.dk
    mu = mu_hat_batch(CURVE, CHI, [t], xi[None, :])[0, 0]
    idx = tuple(np.asarray(k) - np.asarray(f.window.k0))
    dense = out.dense()
    assert dense[idx] == pytest.approx((2.0 - 1.0j) * mu, rel=1e-12)
    assert np.count_nonzero(dense) == 1


def test_zero_mode_scales_by_cutoff_mass():
    # mu_hat_t(0) = integral of chi, independent of t.
    f = make_field([(0, 0, 0)], [1.0])
    for t in (1.0, 1.5, 2.0):
        out = averaged(f, t)
        assert out.window.k0 == (0, 0, 0)
        assert out.dense()[0, 0, 0] == pytest.approx(CHI.integral, rel=1e-8)


def test_support_is_preserved():
    f = make_field([(1, 0, 0), (0, 2, -1)], [1.0, 1.0j])
    out = averaged(f, 1.7)
    assert out.support == f.support
    assert np.array_equal(out.flat, f.flat)


def test_matches_direct_time_integral():
    rng = np.random.default_rng(7)
    modes = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
             (1, -1, 2), (-2, 1, 0), (2, 2, -1)]
    amps = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
    f = make_field(modes, amps)
    t = 1.4
    out = averaged(f, t)

    pts = np.array([[0.0, 0.0, 0.0], [0.25, 0.5, 0.75], [1.0, 0.25, 1.5]])
    want = direct_oracle(f, CURVE, CHI, t, pts, rel_tol=1e-10)

    # read the spectral result at the same points by trig summation
    got = np.exp(1j * pts @ out.xi().T) @ (out.coeffs / out.L ** 3)
    assert_allclose(got, want, rtol=1e-7, atol=1e-12)


def test_direct_oracle_on_plain_exponential():
    # one mode, where A_t f has the closed form mu_hat_t(xi) e^{i xi.x}
    k = (2, -1, 1)
    f = make_field([k], [1.0])
    xi = np.asarray(k, float) * f.window.dk
    t = 1.0
    pts = np.array([[0.3, -0.2, 0.9]])
    got = direct_oracle(f, CURVE, CHI, t, pts, rel_tol=1e-11)
    mu = mu_hat_batch(CURVE, CHI, [t], xi[None, :])[0, 0]
    # fhat = 1 represents the wave with amplitude 1/L^n
    want = mu * np.exp(1j * pts[0] @ xi) / f.L ** 3
    assert got[0] == pytest.approx(want, rel=1e-9)


# --- norms ---------------------------------------------------------------------

def test_constant_field_norms():
    # f == c/L^n, so ||f||_p = |c| L^{n/p - n} for every p.
    c = 3.0 - 4.0j   # |c| = 5
    f = make_field([(0, 0, 0)], [c])
    norms = space_stats(f, [2.0, 4.0, 6.0])
    L = f.L
    for p in (2.0, 4.0, 6.0):
        assert norms[p] == pytest.approx(5.0 * L ** (3 / p - 3), rel=1e-12)


def _convolve(a, b):
    """Full linear convolution of two coefficient boxes, by direct sums."""
    out = np.zeros(tuple(x + y - 1 for x, y in zip(a.shape, b.shape)),
                   dtype=complex)
    for idx in np.ndindex(b.shape):
        out[tuple(slice(i, i + m) for i, m in zip(idx, a.shape))] += b[idx] * a
    return out


def test_even_norms_are_exact():
    # ||f||_p^p = ||f^(p/2)||_2^2 with f^k an exact trigonometric sum whose
    # coefficients are the k-fold self-convolution: ||f^k||_2^2 =
    # L^{-(2k-1)n} sum |c * ... * c|^2. For p = 8 a 6-wide box needs
    # 4 * 5 + 1 = 21 = 3 * 7 points per axis, so the grid has a factor 7;
    # a Riemann sum on the 8-point window's own grid would alias. p = 8 runs
    # the chained power twice past |f|^4.
    rng = np.random.default_rng(17)
    for dims, cut in (((8, 8, 8), (slice(2, 8), slice(1, 7), slice(2, 8))),
                      ((16, 8), (slice(3, 14), slice(0, 6)))):
        window = LatticeWindow(L=2.0, dims=dims, k0=tuple(-m // 2 for m in dims))
        n = len(dims)
        shape = tuple(s.stop - s.start for s in cut)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        fhat = np.zeros(dims, dtype=complex)
        fhat[cut] = c
        f = sparse_field(window, fhat)
        norms = space_stats(f, [2.0, 4.0, 6.0, 8.0])
        assert 21 in norm_grid(shape, [8.0])
        L = f.L
        power = c
        assert norms[2.0] == pytest.approx(parseval_l2(f), rel=1e-12)
        for k in (2, 3, 4):
            power = _convolve(power, c)
            want = (L ** (-(2 * k - 1) * n)
                    * (np.abs(power) ** 2).sum()) ** (1 / (2 * k))
            assert norms[2.0 * k] == pytest.approx(want, rel=1e-12), (dims, k)


def test_norm_grid_is_7_smooth_and_exact():
    # the lambda = 32 box of the n = 3 workload at p_max = 8: the exactness
    # bounds 65, 329 and 21 round up to 70, 336 and 21 (5-smooth: 72, 360, 24)
    assert norm_grid((17, 83, 6), [2.0, 8.0]) == (70, 336, 21)
    spans = (1, 2, 5, 6, 11, 17, 83, 160)
    for ps in ([2.0], [2.0, 4.0], [4.0, 8.0], [6.0]):
        half = int(max(ps)) // 2
        for span, F in zip(spans, norm_grid(spans, ps)):
            assert F >= half * (span - 1) + 1
            k = F
            for q in (2, 3, 5, 7):
                while k % q == 0:
                    k //= q
            assert k == 1, (span, ps, F)


@pytest.mark.parametrize("ps", [[2.0], [4.0]])
def test_norm_grid_rejects_empty_span(ps):
    # a box has at least one point per axis; below that the 7-smooth search
    # would never end
    with pytest.raises(DomainError, match="support box spans"):
        norm_grid((0, 3, 3), ps)


def test_zero_field_has_zero_norms_and_no_fraction():
    f = make_field([(0, 0, 0), (1, 2, 0)], [1.0, 1.0j])
    norms = space_stats(f.with_coeffs(np.zeros(2)), [2.0, 4.0, 8.0])
    assert norms == {2.0: 0.0, 4.0: 0.0, 8.0: 0.0}
    assert pair_table(f, 0.5).share(np.zeros(2)) is None


@pytest.mark.parametrize("p", [np.inf, 3.0, 0.5])
def test_space_stats_rejects_non_even_exponent(p):
    f = make_field([(0, 0, 0)], [1.0])
    with pytest.raises(DomainError, match="even integer"):
        space_stats(f, [2.0, p])


def test_l2_norm_matches_parseval():
    rng = np.random.default_rng(3)
    modes = [(0, 0, 0), (1, 2, 0), (-1, 0, 3), (2, -2, 1)]
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    f = make_field(modes, amps)
    norms = space_stats(f, [2.0])
    assert norms[2.0] == pytest.approx(parseval_l2(f), rel=1e-12)


def _count_ifft(monkeypatch):
    calls = []
    ifft = np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft",
                        lambda *a, **k: calls.append(1) or ifft(*a, **k))
    return calls


def _random_field(seed):
    rng = np.random.default_rng(seed)
    modes = [(0, 0, 0), (1, 2, 0), (-3, 0, 3), (2, -2, 1)]
    return make_field(modes, rng.standard_normal(4) + 1j * rng.standard_normal(4))


def test_l2_norm_needs_no_transform(monkeypatch):
    # p = 2 comes from Parseval, so a p = 2 request runs no inverse FFT;
    # p = 4 runs one pass per axis
    calls = _count_ifft(monkeypatch)
    f = _random_field(4)
    norms = space_stats(f, [2.0])
    assert norms[2.0] == pytest.approx(parseval_l2(f), rel=1e-12)
    assert calls == []
    space_stats(f, [2.0, 4.0])
    assert len(calls) == 3   # one pass per axis


def _gapped_field(dims, seed):
    """A random field on about half the modes of a window of these dims."""
    rng = np.random.default_rng(seed)
    window = LatticeWindow(L=3.0, dims=dims, k0=tuple(-m // 2 for m in dims))
    fhat = np.zeros(dims, dtype=complex)
    keep = rng.random(dims) < 0.5
    fhat[keep] = (rng.standard_normal(keep.sum())
                  + 1j * rng.standard_normal(keep.sum()))
    return sparse_field(window, fhat)


def _slab_rows(monkeypatch):
    """The row counts of every slab `_abs2` yields, one list per loop."""
    loops = []
    abs2 = averaging._abs2

    def recorded(box, F):
        loops.append([])
        for slab in abs2(box, F):
            loops[-1].append(len(slab))
            yield slab

    monkeypatch.setattr(averaging, "_abs2", recorded)
    return loops


def _ragged_budget(grid):
    """A slab budget that cuts the grid's axis-0 rows into several slabs
    with a shorter last one."""
    return next(r * int(np.prod(grid[1:])) for r in range(2, grid[0])
                if grid[0] % r)


@pytest.mark.parametrize("top", [2, 4, 6, 8])
@pytest.mark.parametrize("dims", [(16, 12), (8, 8, 6), (12, 4, 4, 4)])
def test_slabs_match_one_slab(monkeypatch, dims, top):
    # the norms added up over several slabs, the last one ragged, equal the
    # one-slab sums to rounding
    f = _gapped_field(dims, top)
    ps = [float(p) for p in range(2, top + 1, 2)]
    monkeypatch.setattr(averaging, "_SLAB_POINTS", 1 << 40)
    one = space_stats(f, ps)
    loops = _slab_rows(monkeypatch)
    if top > 2:
        monkeypatch.setattr(averaging, "_SLAB_POINTS",
                            _ragged_budget(norm_grid(f.window.dims, ps)))
    many = space_stats(f, ps)
    # one norm loop per call, none at top = 2
    assert len(loops) == (top > 2)
    assert all(1 < len(rows) and rows[-1] < rows[0] for rows in loops)
    assert many == pytest.approx(one, rel=1e-13, abs=0)


def _ball_hat(rho, radius, n):
    """The ball's Fourier transform (2 pi R / rho)^{n/2} J_{n/2}(R rho),
    omega_n R^n at rho = 0."""
    from scipy.special import jv
    with np.errstate(invalid="ignore", divide="ignore"):
        val = (2 * np.pi * radius / rho) ** (n / 2) * jv(n / 2, radius * rho)
    return np.where(rho == 0, np.pi ** (n / 2) / gamma(n / 2 + 1) * radius ** n,
                    val)


def _brute_fraction(f, radius):
    """sum_{k,k'} c_k conj(c_k') B_hat(xi_k - xi_k') / (L^n sum |c_k|^2)."""
    xi, c, n = f.xi(), f.coeffs, f.window.n
    gap = np.linalg.norm(xi[:, None, :] - xi[None, :, :], axis=-1)
    mass = (c[:, None] * c.conj()[None, :] * _ball_hat(gap, radius, n)).sum()
    return float(mass.real) / (f.L ** n * float((np.abs(c) ** 2).sum()))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_single_mode_fraction_is_ball_volume(n):
    # |f| is constant, so the fraction is vol(B) / L^n = omega_n R^n / L^n
    window = LatticeWindow(L=3.0, dims=(4,) * n, k0=(-2,) * n)
    fhat = np.zeros(window.dims, dtype=complex)
    fhat[(1,) * n] = 2.0 - 1.0j
    f = sparse_field(window, fhat)
    for radius in (0.2, 0.7, 1.4):
        fraction = pair_table(f, radius).share(f.coeffs)
        want = np.pi ** (n / 2) / gamma(n / 2 + 1) * radius ** n / 3.0 ** n
        assert fraction == pytest.approx(want, rel=1e-13), (n, radius)


@pytest.mark.parametrize("dims", [(16, 8), (8, 8, 6), (3, 4, 2, 4, 3)])
def test_fraction_matches_quadratic_form(dims):
    # exact against the brute-force quadratic form with the Bessel closed
    # form of B_hat, on random fields with gaps in their support
    pytest.importorskip("scipy")
    rng = np.random.default_rng(len(dims))
    window = LatticeWindow(L=3.0, dims=dims, k0=tuple(-m // 2 for m in dims))
    fhat = np.zeros(dims, dtype=complex)
    keep = rng.random(dims) < 0.5
    fhat[keep] = (rng.standard_normal(keep.sum())
                  + 1j * rng.standard_normal(keep.sum()))
    f = sparse_field(window, fhat)
    for radius in (0.3, 0.9, 1.4):
        fraction = pair_table(f, radius).share(f.coeffs)
        assert fraction == pytest.approx(_brute_fraction(f, radius),
                                         rel=1e-12), (dims, radius)


def test_run_cell_fraction_matches_quadratic_form():
    # the planar benchmark workload's lambda = 64 cell at t = 1
    pytest.importorskip("scipy")
    root = Path(__file__).resolve().parents[1]
    cfg = parse_config((root / "perfbench" / "workloads" / "n2.cfg").read_text())
    cell = run_cell(cfg, 64.0)
    support = cell_support(cfg, 64.0)
    f = support.field
    assert cell["t_nodes_short"][0] == 1.0
    want = _brute_fraction(f.with_coeffs(f.coeffs * support.mu[0]),
                           support.plan.ball_radius)
    assert cell["fractions"][0] == pytest.approx(want, rel=1e-12)


def test_pair_table_must_match_the_support():
    # a pair table holds its own support's coefficient layout: a field on
    # another support is rejected
    f = _random_field(5)
    table = pair_table(make_field([(0, 0, 0), (1, 1, 1)], [1.0, 1.0]), 0.5)
    with pytest.raises(DomainError, match="pair table of 2 coefficients"):
        table.share(f.coeffs)


def test_zero_field_rejects_a_foreign_pair_table():
    # a vector with no nonzero entry has no fraction, but a pair table
    # built for another support is still an error
    f = _random_field(5)
    table = pair_table(make_field([(0, 0, 0), (1, 1, 1)], [1.0, 1.0]), 0.5)
    with pytest.raises(DomainError, match="pair table"):
        table.share(np.zeros(len(f.coeffs)))


def _ball_grid(span):
    """The grid G >= 2 span - 1 per axis on which |f|^2 carries A(q)."""
    return norm_grid(span, (4.0,))


def _full_kernel(f, radius):
    """The real kernel K on G whose dot product with |f|^2 there is
    sum_q A(q) B_hat(q dk): B_hat on q_a = 0..G_a/2, one irfft per axis."""
    n = f.window.n
    G = _ball_grid(f.window.dims)
    q2 = sum((np.arange(g // 2 + 1) ** 2).reshape((-1,) + (1,) * (n - 1 - a))
             for a, g in enumerate(G))
    present, where = np.unique(q2, return_inverse=True)
    kernel = averaging._ball_transform(np.sqrt(present) * f.window.dk, radius,
                                       n)[where.reshape(q2.shape)]
    for a, g in enumerate(G):
        kernel = np.fft.irfft(kernel, n=g, axis=a)
    return kernel


def _box_field(span, seed):
    """A random field with a coefficient at every point of a box of this
    span, so that its window is that box."""
    rng = np.random.default_rng(seed)
    k = np.indices(span).reshape(len(span), -1).T - np.asarray(span) // 2
    return SpectralField.on_lattice(
        3.0, k, rng.standard_normal(len(k)) + 1j * rng.standard_normal(len(k)))


# G = (15, 12), (1, 7, 32), (5, 12, 3, 9), (3, 5, 1, 7, 12): odd and even
# G_a for n = 2 ... 5, and G_a = 1
KERNEL_SPANS = [(8, 6), (1, 4, 16), (3, 6, 2, 5), (2, 3, 1, 4, 6)]


@pytest.mark.parametrize("span", KERNEL_SPANS)
def test_mirrored_fraction_matches_full_kernel(span):
    # the share summed over half of the pair transform, the other half
    # mirrored into it (module docstring), equals the dot product of |f|^2
    # on G with the whole kernel there
    f = _box_field(span, 2)
    G = _ball_grid(span)
    power = (np.abs(f.coeffs) ** 2).sum()
    ab2 = np.abs(np.fft.ifftn(f.dense(), s=G, axes=range(len(G)),
                              norm="forward")) ** 2
    for radius in (0.3, 1.1):
        fraction = pair_table(f, radius).share(f.coeffs)
        want = (ab2.ravel() @ _full_kernel(f, radius).ravel()
                / (f.L ** f.window.n * power))
        assert fraction == pytest.approx(want, rel=1e-14, abs=0)


def test_ball_radius_must_fit_in_box():
    # a NaN radius passes no comparison, and a negative one would weigh
    # the ball negatively, so the guard asks for 0 < radius < L/2
    f = make_field([(0, 0, 0)], [1.0])
    for radius in (1.0, np.nan, -0.5, 0.0):
        with pytest.raises(GeometryError, match="half box side"):
            pair_table(f, radius)


def test_spacetime_norm_of_steady_family():
    # constant-in-t norms: the t-integral contributes span^{1/p}
    v = 2.5
    for lam, m in ((64.0, 9), (8.0, 5)):
        got = lp_norm_spacetime([v] * m, 4.0, TimeWindow.short(lam, 3, m=m))
        span = lam ** (-1 / 3)
        assert got == pytest.approx(v * span ** (1 / 4), rel=1e-12)


def test_spacetime_norm_checks_node_count():
    w = TimeWindow.short(32.0, 3, m=9)
    with pytest.raises(DomainError, match="time nodes"):
        lp_norm_spacetime([1.0] * 5, 2.0, w)


P8 = (2.0, 4.0, 6.0, 8.0)


@pytest.mark.parametrize("dims, box, radius, ps, slabs", [
    pytest.param((16, 32, 32), None, 1.0, P8, None, id="memory-3d"),
    pytest.param((8, 16, 8), None, 1.0, P8, None, id="memory-3d-small"),
    pytest.param((64, 32), None, 1.0, P8, None, id="memory-2d"),
    # a small support in a large coefficient array: the field's window is
    # the support's box
    pytest.param((64, 64, 64), (5, 9, 4), 1.0, P8, None,
                 id="small-box-large-window"),
    pytest.param((16, 16, 16), (7, 3, 16), 9.9, P8, None,
                 id="ball-near-half-side"),
    # grid 21 x 70 x 21: factors of 7 on every axis
    pytest.param((32, 32, 32), (6, 17, 6), 1.0, P8, None, id="grid-factor-7"),
    # grid 25 x 27 x 1: the last pass's input is as large as its output
    pytest.param((32, 32, 16), (13, 14, 1), 1.0, (2.0, 4.0), None,
                 id="last-axis-grows-least"),
    # grid 14 x 400 x 686: one axis-0 row, 274 400 points, is a slab
    pytest.param((8, 128, 256), (4, 100, 170), 1.0, P8, 14,
                 id="row-above-slab"),
    # grid 147 x 81 x 42: 37 slabs of 4 rows, the last of 3
    pytest.param((64, 64, 64), (37, 21, 11), 1.0, P8, 37,
                 id="many-slabs-ragged"),
    # grid 3 x 2048: |q|^2 reaches 1024^2 + 1 with 2049 distinct values,
    # so a table over every integer up to it would exceed the bound
    pytest.param((2, 1024), None, 1.0, P8, None, id="long-axis-2d"),
])
def test_peak_bytes_bounds_measured_peak(dims, box, radius, ps, slabs):
    # the norms' term bounds one space_stats call, and the pair term one
    # pair table build with one share call
    rng = np.random.default_rng(2)
    box = dims if box is None else box
    F = norm_grid(box, ps)
    assert slabs in (None, -(-F[0] // averaging._slab_rows(F)))
    fhat = np.zeros(dims, dtype=complex)
    fhat[tuple(slice(m - b, m) for m, b in zip(dims, box))] = (
        rng.standard_normal(box) + 1j * rng.standard_normal(box))
    window = LatticeWindow(L=20.0, dims=dims, k0=tuple(-m // 2 for m in dims))
    f = sparse_field(window, fhat)
    assert f.window.dims == tuple(box)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        space_stats(f, ps)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert norm_peak_bytes(box, ps) >= peak
    assert pair_peak_bytes(f, radius) >= _pair_peak(f, radius)


def test_slab_working_set_fits_the_cache():
    # the n3 benchmark workload's lambda = 32 field at its first time node:
    # one space_stats call peaks at 1.2 MiB in slabs of 2^14 grid points
    # (3.1 MiB in slabs of 2^16)
    root = Path(__file__).resolve().parents[1]
    cfg = parse_config((root / "perfbench" / "workloads" / "n3.cfg").read_text())
    cell = cell_support(cfg, 32.0)
    f = cell.field
    g = f.with_coeffs(f.coeffs * cell.mu[0])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        space_stats(g, cell.plan.ps)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2 ** 20


def _pair_peak(f, radius):
    """The tracemalloc peak of one `pair_table` build on f and one share of
    f's coefficients while the table is held."""
    pair_table(f, radius).share(f.coeffs)   # first-call allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pair_table(f, radius).share(f.coeffs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak


def _corner_field(span):
    """A field with one coefficient at each corner of a box of this span
    (L = 20), declaring no ball: one ball of that box."""
    corners = np.array(list(np.ndindex((2,) * len(span)))) * (np.array(span) - 1)
    f = SpectralField.on_lattice(20.0, corners, np.ones(len(corners), complex))
    assert f.window.dims == span
    return f


@pytest.mark.parametrize("span, radius", [
    pytest.param((37, 41, 23), 1.0, id="3d"),
    pytest.param((3, 5, 6, 25, 4), 1.0, id="5d"),
    pytest.param((13, 14, 1), 1.0, id="one-point-axis"),
    pytest.param((1, 1, 1), 1.0, id="one-point"),
    pytest.param((300, 300), 5.0, id="2d"),
    # a long thin box: 5999 distinct |q|^2 among 17 997 lags
    pytest.param((2, 3000), 0.05, id="all-distinct"),
    # a ball near half the box side on a long axis: B_hat's Gauss-Legendre
    # rule has hundreds to thousands of nodes
    pytest.param((2, 400), 9.9, id="long-axis-wide-ball"),
    pytest.param((1, 600), 9.9, id="one-row-wide-ball"),
    pytest.param((1, 2000), 9.9, id="one-long-row-wide-ball"),
])
def test_kernel_build_bytes_bounds_measured_peak(span, radius):
    # the ball's kernel is its pair table: its build and one share call on
    # a one-ball field of this span stay within the gate's pair term
    f = _corner_field(span)
    assert pair_peak_bytes(f, radius) >= _pair_peak(f, radius)


def test_pair_build_memory_is_linear_in_the_rule():
    # 2473 Gauss-Legendre nodes for a 32 KB table: the rule's arrays are
    # O(nodes), where a companion-matrix eigensolve held 8 bytes per node
    # squared (49 MB)
    assert _pair_peak(_corner_field((1, 2000)), 9.9) < 2 ** 20


def _balls_field(dims, balls, seed):
    """A random field on about half the points of a window of these dims,
    declared as `balls` balls of successive rows (none: one ball), so that
    the balls' boxes interleave and their pairs' lag ranges overlap."""
    f = _gapped_field(dims, seed)
    cuts = np.linspace(0, len(f.flat), balls + 1).astype(int)
    return replace(f, support=tuple(
        SupportBall(center=(0.0,) * len(dims), rows=slice(a, b),
                    flat=f.flat[a:b]) for a, b in zip(cuts[:-1], cuts[1:])))


BALL_FIELDS = [((9, 7), 3), ((12, 5), 5), ((5, 6, 4), 3), ((4, 5, 6), 4),
               ((6, 5), 0), ((4, 3, 5), 0)]


@pytest.mark.parametrize("dims, balls", BALL_FIELDS)
def test_pair_share_matches_dense_quadratic_form(dims, balls):
    # the share summed by piece pairs equals the dense form
    # sum_{k,k'} c_k conj(c_k') B_hat((k - k') dk) / (L^n sum |c_k|^2)
    # with the same B_hat
    f = _balls_field(dims, balls, len(dims) + balls)
    n, c = f.window.n, f.coeffs
    assert len(f.support) == balls
    k = np.stack(np.unravel_index(f.flat, f.window.dims), axis=-1)
    gap = np.linalg.norm(k[:, None, :] - k[None, :, :], axis=-1)
    for radius in (0.3, 0.9, 1.4):
        b_hat = averaging._ball_transform(gap * f.window.dk, radius, n)
        want = float((c[:, None] * c.conj()[None, :] * b_hat).sum().real) / (
            f.L ** n * float((np.abs(c) ** 2).sum()))
        fraction = pair_table(f, radius).share(c)
        assert fraction == pytest.approx(want, rel=1e-12), (dims, radius)


def _workload_cell(name, lam):
    """The field of a benchmark workload's cell, and its ball radius."""
    root = Path(__file__).resolve().parents[1]
    cfg = parse_config((root / "perfbench" / "workloads" / f"{name}.cfg")
                       .read_text())
    plan = cell_plan(cfg, lam)
    return cell_field(cfg, plan), plan.ball_radius


@pytest.mark.parametrize("cell", [
    pytest.param(lambda: (_balls_field((9, 7), 3, 1), 0.9), id="three-balls-2d"),
    pytest.param(lambda: (_balls_field((4, 5, 6), 4, 2), 0.9),
                 id="four-balls-3d"),
    pytest.param(lambda: _workload_cell("n2", 256.0), id="n2-lambda256"),
    pytest.param(lambda: _workload_cell("n3", 32.0), id="n3-lambda32"),
])
def test_pair_bytes_bound_measured_peak(cell):
    # the gate's pair term bounds one table build and one share call on
    # fields of several balls, the workloads' cells among them
    f, radius = cell()
    assert len(f.support) > 1
    assert pair_peak_bytes(f, radius) >= _pair_peak(f, radius)
