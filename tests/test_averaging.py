import tracemalloc
from dataclasses import replace
from math import gamma
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from curveavg import (CurveSpec, CutoffSpec, DomainError, GeometryError,
                      LatticeWindow, SpectralField, SupportBall,
                      TimeWindow, apply_averaging, ball_kernel, direct_oracle,
                      lp_norm_spacetime, mu_hat_batch, norm_peak_bytes,
                      parse_config, run_cell, space_stats)
from curveavg import averaging
from curveavg.averaging import _ball_grid, _norm_grid
from curveavg.config import ball_radius_from
from curveavg.sweep import _cell_setup

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
    ball = SupportBall(nu=0, center=(0.0,) * 3,
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
        assert np.sum(w.weights()) == pytest.approx(span, rel=1e-14)


# --- the averaging operator ---------------------------------------------------

def test_single_mode_is_an_eigenfunction():
    # A_t e^{i xi.x} = mu_hat_t(xi) e^{i xi.x}: the output coefficient sits at
    # the same lattice site, scaled by the multiplier there.
    k = (1, -2, 3)
    f = make_field([k], [2.0 - 1.0j])
    t = 1.3
    out = apply_averaging(f, CURVE, CHI, t)
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
        out = apply_averaging(f, CURVE, CHI, t)
        assert out.window.k0 == (0, 0, 0)
        assert out.dense()[0, 0, 0] == pytest.approx(CHI.integral, rel=1e-8)


def test_support_is_preserved():
    f = make_field([(1, 0, 0), (0, 2, -1)], [1.0, 1.0j])
    out = apply_averaging(f, CURVE, CHI, 1.7)
    assert out.support == f.support
    assert np.array_equal(out.flat, f.flat)


def test_matches_direct_time_integral():
    rng = np.random.default_rng(7)
    modes = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
             (1, -1, 2), (-2, 1, 0), (2, 2, -1)]
    amps = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
    f = make_field(modes, amps)
    t = 1.4
    out = apply_averaging(f, CURVE, CHI, t)

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
    norms, fraction = space_stats(f, [2.0, 4.0, 6.0])
    L = f.L
    for p in (2.0, 4.0, 6.0):
        assert norms[p] == pytest.approx(5.0 * L ** (3 / p - 3), rel=1e-12)
    assert fraction is None


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
        norms, _ = space_stats(f, [2.0, 4.0, 6.0, 8.0])
        assert 21 in _norm_grid(shape, [8.0])
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
    assert _norm_grid((17, 83, 6), [2.0, 8.0]) == (70, 336, 21)
    spans = (1, 2, 5, 6, 11, 17, 83, 160)
    for ps in ([2.0], [2.0, 4.0], [4.0, 8.0], [6.0]):
        half = int(max(ps)) // 2
        for span, F in zip(spans, _norm_grid(spans, ps)):
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
        _norm_grid((0, 3, 3), ps)


def test_zero_field_has_zero_norms_and_no_fraction():
    f = make_field([(0, 0, 0), (1, 2, 0)], [1.0, 1.0j])
    kernel = ball_kernel(f, 0.5)
    norms, fraction = space_stats(f.with_coeffs(np.zeros(2)), [2.0, 4.0, 8.0],
                                  ball=kernel)
    assert norms == {2.0: 0.0, 4.0: 0.0, 8.0: 0.0}
    assert fraction is None


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
    norms, _ = space_stats(f, [2.0])
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
    # p = 2 comes from Parseval, so a p = 2 request without a ball runs no
    # inverse FFT; p = 4 runs one pass per axis
    calls = _count_ifft(monkeypatch)
    f = _random_field(4)
    norms, fraction = space_stats(f, [2.0])
    assert norms[2.0] == pytest.approx(parseval_l2(f), rel=1e-12)
    assert fraction is None
    assert calls == []
    space_stats(f, [2.0, 4.0])
    assert len(calls) == 3   # one pass per axis


def test_fraction_needs_its_own_pass(monkeypatch):
    # the fraction samples |f|^2 on the kernel's grid: one pass per axis,
    # beside the norms' own, even at p_max = 4, whose norm grid is the
    # kernel's grid
    f = _random_field(4)
    kernel = ball_kernel(f, 0.5)
    calls = _count_ifft(monkeypatch)
    norms, fraction = space_stats(f, [2.0], ball=kernel)
    assert norms[2.0] == pytest.approx(parseval_l2(f), rel=1e-12)
    assert 0.0 < fraction < 1.0
    assert len(calls) == 3
    _, at4 = space_stats(f, [2.0, 4.0], ball=kernel)
    assert len(calls) == 9
    _, at6 = space_stats(f, [2.0, 6.0], ball=kernel)
    assert len(calls) == 15
    assert at4 == pytest.approx(at6, rel=1e-14)
    assert at4 == pytest.approx(fraction, rel=1e-14)


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
        for r0, slab in abs2(box, F):
            loops[-1].append(len(slab))
            yield r0, slab

    monkeypatch.setattr(averaging, "_abs2", recorded)
    return loops


def _ragged_budget(*grids):
    """A slab budget that cuts each grid's axis-0 rows into several slabs
    with a shorter last one."""
    def ragged(budget, grid):
        rows = max(1, budget // int(np.prod(grid[1:])))
        return rows < grid[0] and grid[0] % rows

    return next(budget for g in grids for r in range(2, g[0])
                for budget in [r * int(np.prod(g[1:]))]
                if all(ragged(budget, h) for h in grids))


@pytest.mark.parametrize("top", [2, 4, 6, 8])
@pytest.mark.parametrize("dims", [(16, 12), (8, 8, 6), (12, 4, 4, 4)])
def test_slabs_match_one_slab(monkeypatch, dims, top):
    # the norms and the fraction added up over several slabs, the last one
    # ragged, equal the one-slab sums to rounding
    f = _gapped_field(dims, top)
    ps = [float(p) for p in range(2, top + 1, 2)]
    kernel = ball_kernel(f, 0.9)
    span = f.window.dims
    grids = [_norm_grid(span, ps)] * (top > 2) + [_ball_grid(span)]
    monkeypatch.setattr(averaging, "_SLAB_POINTS", 1 << 40)
    one = [space_stats(f, ps), space_stats(f, ps, ball=kernel)]
    loops = _slab_rows(monkeypatch)
    monkeypatch.setattr(averaging, "_SLAB_POINTS", _ragged_budget(*grids))
    many = [space_stats(f, ps), space_stats(f, ps, ball=kernel)]
    # one norm loop per call (none at top = 2), plus the fraction's own
    assert len(loops) == 2 * (top > 2) + 1
    assert all(1 < len(rows) and rows[-1] < rows[0] for rows in loops)
    for (norms, _), (want, _) in zip(many, one):
        assert norms == pytest.approx(want, rel=1e-13, abs=0)
    assert many[0][1] is None
    assert many[1][1] == pytest.approx(one[1][1], rel=1e-13, abs=0)
    assert 0.0 < many[1][1] < 1.0


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
        _, fraction = space_stats(f, [2.0], ball=ball_kernel(f, radius))
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
        _, fraction = space_stats(f, [2.0, 4.0], ball=ball_kernel(f, radius))
        assert fraction == pytest.approx(_brute_fraction(f, radius),
                                         rel=1e-12), (dims, radius)


def test_run_cell_fraction_matches_quadratic_form():
    # the planar benchmark workload's lambda = 64 cell at t = 1
    pytest.importorskip("scipy")
    root = Path(__file__).resolve().parents[1]
    cfg = parse_config((root / "perfbench" / "workloads" / "n2.cfg").read_text())
    cell = run_cell(cfg, 64.0)
    curve, cutoff, _, f = _cell_setup(cfg, 64.0)
    assert cell["t_nodes_short"][0] == 1.0
    row = mu_hat_batch(curve, cutoff, [1.0], f.xi())[0]
    want = _brute_fraction(f.with_coeffs(f.coeffs * row),
                           64.0 ** (-(1.0 - cfg.epsilon) / cfg.n))
    assert cell["fractions"][0] == pytest.approx(want, rel=1e-12)


def _orthant(G):
    return tuple(g // 2 + 1 for g in G)


def test_kernel_must_match_the_support_box():
    f = _random_field(5)
    kernel = ball_kernel(make_field([(0, 0, 0), (1, 1, 1)], [1.0, 1.0]), 0.5)
    assert kernel.shape == _orthant(_ball_grid((2, 2, 2)))
    assert kernel.shape != _orthant(_ball_grid(f.window.dims))
    with pytest.raises(DomainError, match="ball kernel"):
        space_stats(f, [2.0], ball=kernel)


def test_zero_field_rejects_a_foreign_kernel():
    # a field with no nonzero coefficient has no fraction, but a kernel
    # built for another support box is still an error
    f = _random_field(5)
    kernel = ball_kernel(make_field([(0, 0, 0), (1, 1, 1)], [1.0, 1.0]), 0.5)
    with pytest.raises(DomainError, match="ball kernel"):
        space_stats(f.with_coeffs(np.zeros(len(f.coeffs))), [2.0], ball=kernel)


def _full_kernel(f, radius):
    """The kernel on the whole of G: the same B_hat table on
    q_a = 0..G_a/2, with every per-axis irfft kept at its full length."""
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
def test_kernel_is_the_full_kernels_orthant(span):
    # the orthant build equals, bitwise, the kernel irfft'd to the whole of
    # G and cut to its orthant; the whole kernel is even in every axis, so
    # the orthant read through m_a(i) = min(i, G_a - i) gives it back
    f = _box_field(span, 1)
    G = _ball_grid(span)
    for radius in (0.3, 1.1):
        full = _full_kernel(f, radius)
        kernel = ball_kernel(f, radius)
        assert full.shape == G and kernel.shape == _orthant(G)
        assert np.array_equal(kernel, full[tuple(map(slice, kernel.shape))])
        mirrored = full[np.ix_(*(averaging._mirror(g) for g in G))]
        eps = np.finfo(float).eps
        assert np.abs(mirrored - full).max() <= 8 * eps * np.abs(full).max()


@pytest.mark.parametrize("span", KERNEL_SPANS)
def test_mirrored_fraction_matches_full_kernel(monkeypatch, span):
    # the fraction read from the orthant at mirrored indices, over several
    # slabs, equals the dot product of |f|^2 on G with the whole kernel
    f = _box_field(span, 2)
    G = _ball_grid(span)
    monkeypatch.setattr(averaging, "_SLAB_POINTS", int(np.prod(G[1:])))
    power = (np.abs(f.coeffs) ** 2).sum()
    ab2 = np.abs(np.fft.ifftn(f.dense(), s=G, axes=range(len(G)),
                              norm="forward")) ** 2
    for radius in (0.3, 1.1):
        _, fraction = space_stats(f, [2.0], ball=ball_kernel(f, radius))
        want = (ab2.ravel() @ _full_kernel(f, radius).ravel()
                / (f.L ** f.window.n * power))
        assert fraction == pytest.approx(want, rel=1e-14, abs=0)


def test_ball_radius_must_fit_in_box():
    f = make_field([(0, 0, 0)], [1.0])
    with pytest.raises(GeometryError, match="half box side"):
        ball_kernel(f, 1.0)


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
    rng = np.random.default_rng(2)
    box = dims if box is None else box
    F = _norm_grid(box, ps)
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
        space_stats(f, ps, ball=ball_kernel(f, radius))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert norm_peak_bytes(box, ps, radius * f.window.dk) >= peak


def test_slab_working_set_fits_the_cache():
    # the n3 benchmark workload's lambda = 32 field at its first time node:
    # one space_stats call with the ball peaks at 1.2 MiB in slabs of 2^14
    # grid points (3.1 MiB in slabs of 2^16)
    root = Path(__file__).resolve().parents[1]
    cfg = parse_config((root / "perfbench" / "workloads" / "n3.cfg").read_text())
    curve, cutoff, _, f = _cell_setup(cfg, 32.0)
    ts = TimeWindow.short(32.0, cfg.n, m=cfg.time_nodes).nodes
    row = mu_hat_batch(curve, cutoff, ts, f.xi())[0]
    g = f.with_coeffs(f.coeffs * row)
    ball = ball_kernel(f, ball_radius_from(cfg, 32.0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        space_stats(g, (2.0,) + cfg.ps, ball=ball)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2 ** 20


@pytest.mark.parametrize("span, radius", [
    pytest.param((37, 41, 23), 1.0, id="3d"),
    pytest.param((3, 5, 6, 25, 4), 1.0, id="5d"),
    pytest.param((13, 14, 1), 1.0, id="one-point-axis"),
    pytest.param((1, 1, 1), 1.0, id="one-point"),
    pytest.param((300, 300), 5.0, id="2d"),
    # every |q|^2 on the orthant distinct: np.unique's arrays are the peak
    pytest.param((2, 3000), 0.05, id="all-distinct"),
    # a ball near half the box side on a long axis: Gauss-Legendre's
    # companion matrix, 8 bytes per node squared, is most of the build
    pytest.param((2, 400), 9.9, id="long-axis-wide-ball"),
    pytest.param((1, 600), 9.9, id="one-row-wide-ball"),
])
def test_kernel_build_bytes_bounds_measured_peak(span, radius):
    # the kernel's build, alone, stays within its term of norm_peak_bytes
    corners = np.array(list(np.ndindex((2,) * len(span)))) * (np.array(span) - 1)
    f = SpectralField.on_lattice(20.0, corners, np.ones(len(corners), complex))
    assert f.window.dims == span
    ball_kernel(f, radius)   # first-call allocations are not the build's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ball_kernel(f, radius)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    G = _ball_grid(span)
    reach = radius * f.window.dk
    assert averaging._kernel_build_bytes(G, reach) >= peak
    assert norm_peak_bytes(span, P8, reach) >= peak
