import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from curveavg import (CurveSpec, CutoffSpec, DomainError, GeometryError,
                      GridSpec, LatticeWindow, SpectralField, SupportBall,
                      TimeWindow, apply_averaging, direct_oracle,
                      lp_norm_space, lp_norm_spacetime, mu_hat_batch,
                      norm_peak_bytes, space_stats)

CURVE = CurveSpec.moment(3)
CHI = CutoffSpec(delta=0.25)


def make_field(modes, amps, N=8, L=2.0):
    """Fixed-grid field with the given lattice modes declared as one support ball."""
    window = GridSpec(n=3, L=L, N=N).window()
    fhat = np.zeros(window.dims, dtype=complex)
    flats = []
    for k, a in zip(modes, amps):
        idx = tuple(np.asarray(k) - np.asarray(window.k0))
        fhat[idx] = a
        flats.append(np.ravel_multi_index(idx, window.dims))
    ball = SupportBall(nu=0, center=(0.0,) * 3, radius=0.0,
                       flat=np.asarray(sorted(flats), dtype=np.intp))
    return SpectralField(window=window, fhat=fhat, support=(ball,))


# --- time windows -------------------------------------------------------------

def test_full_window_spans_one_to_two():
    w = TimeWindow.full(m=9)
    assert w.nodes[0] == 1.0 and w.nodes[-1] == 2.0
    assert len(w.nodes) == 9


def test_short_window_width_is_lambda_root():
    w = TimeWindow.short(64.0, 3, m=5)
    assert w.nodes[-1] - w.nodes[0] == pytest.approx(64.0 ** (-1 / 3), rel=1e-14)


def test_window_needs_five_nodes():
    with pytest.raises(DomainError, match="at least 5"):
        TimeWindow.full(m=4)


def test_trapezoid_weights_sum_to_span():
    for w in (TimeWindow.full(m=7), TimeWindow.short(32.0, 3, m=11)):
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
    assert out.fhat[idx] == pytest.approx((2.0 - 1.0j) * mu, rel=1e-12)
    only = np.flatnonzero(out.fhat)
    assert len(only) == 1


def test_zero_mode_scales_by_cutoff_mass():
    # mu_hat_t(0) = integral of chi, independent of t.
    f = make_field([(0, 0, 0)], [1.0])
    for t in (1.0, 1.5, 2.0):
        out = apply_averaging(f, CURVE, CHI, t)
        assert out.fhat[4, 4, 4] == pytest.approx(CHI.integral, rel=1e-8)


def test_support_is_preserved():
    f = make_field([(1, 0, 0), (0, 2, -1)], [1.0, 1.0j])
    out = apply_averaging(f, CURVE, CHI, 1.7)
    assert out.support == f.support
    assert set(np.flatnonzero(out.fhat)) <= set(f.support_flat())


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
    flat = out.support_flat()
    xis = out.window.xi_of_flat(flat)
    coeffs = out.fhat.ravel()[flat] / out.L ** 3
    got = np.exp(1j * pts @ xis.T) @ coeffs
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
    # f == c/L^n, so ||f||_p = |c| L^{n/p - n} for every p, and inf-norm |c|/L^n.
    c = 3.0 - 4.0j   # |c| = 5
    f = make_field([(0, 0, 0)], [c])
    norms, fraction = space_stats(f, [2.0, 4.0, np.inf])
    L = f.L
    assert norms[2.0] == pytest.approx(5.0 * L ** (3 / 2 - 3), rel=1e-12)
    assert norms[4.0] == pytest.approx(5.0 * L ** (3 / 4 - 3), rel=1e-12)
    assert norms[np.inf] == pytest.approx(5.0 / L ** 3, rel=1e-12)
    assert fraction is None


def test_l2_norm_matches_parseval():
    rng = np.random.default_rng(3)
    modes = [(0, 0, 0), (1, 2, 0), (-1, 0, 3), (2, -2, 1)]
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    f = make_field(modes, amps)
    assert lp_norm_space(f, 2.0) == pytest.approx(f.l2(), rel=1e-12)


def test_ball_fraction_counts_grid_points():
    c = 1.0
    f = make_field([(0, 0, 0)], [c])
    radius = 0.6
    _, fraction = space_stats(f, [2.0], ball_radius=radius)
    # |f| is constant, so the fraction is just the share of grid points in the
    # ball; recount them independently on the same oversampled grid.
    F = 32  # next_pow2(8 * 3)
    x = np.fft.fftfreq(F) * f.L
    d2 = (x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2)
    want = np.count_nonzero(d2 <= radius ** 2) / F ** 3
    assert fraction == pytest.approx(want, rel=1e-12)


def test_ball_radius_must_fit_in_box():
    f = make_field([(0, 0, 0)], [1.0])
    with pytest.raises(GeometryError, match="half box side"):
        space_stats(f, [2.0], ball_radius=1.0)


def test_streamed_norms_match_dense():
    rng = np.random.default_rng(11)
    modes = [(1, 0, 0), (0, -2, 1), (3, 1, -1), (0, 0, 0)]
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    f = make_field(modes, amps)
    dense, frac_d = space_stats(f, [2.0, 6.0, np.inf], ball_radius=0.5)
    # force the chunked 3-d path (F = 32^3 needs 512 KiB > 100 KB cap)
    lean, frac_s = space_stats(f, [2.0, 6.0, np.inf], ball_radius=0.5,
                               chunk_bytes=100_000)
    for p in dense:
        assert lean[p] == pytest.approx(dense[p], rel=1e-11)
    assert frac_s == pytest.approx(frac_d, rel=1e-11)


def test_lp_norm_space_rejects_bad_exponent():
    f = make_field([(0, 0, 0)], [1.0])
    with pytest.raises(DomainError):
        lp_norm_space(f, 0.5)


def test_spacetime_norm_of_steady_family():
    # constant-in-t norms: the t-integral contributes span^{1/p}
    w = TimeWindow.full(m=9)
    v = 2.5
    got = lp_norm_spacetime([v] * 9, 4.0, w)
    assert got == pytest.approx(v * 1.0 ** (1 / 4), rel=1e-12)

    short = TimeWindow.short(8.0, 3, m=5)
    got = lp_norm_spacetime([v] * 5, 4.0, short)
    span = 8.0 ** (-1 / 3)
    assert got == pytest.approx(v * span ** (1 / 4), rel=1e-12)


def test_spacetime_norm_accepts_fields():
    f = make_field([(0, 0, 0)], [2.0])
    w = TimeWindow.full(m=5)
    got = lp_norm_spacetime([f] * 5, 2.0, w)
    assert got == pytest.approx(f.l2(), rel=1e-10)


def test_spacetime_norm_checks_node_count():
    w = TimeWindow.full(m=9)
    with pytest.raises(DomainError, match="time nodes"):
        lp_norm_spacetime([1.0] * 5, 2.0, w)


def test_peak_bytes_reports_streaming_break():
    small = norm_peak_bytes((8, 8, 8))
    big = norm_peak_bytes((256, 256, 256))
    assert small == 3.5 * 16 * 32 ** 3   # three complex grids + the |x|^2 grid
    assert big < 3 * 16 * 1024 ** 3  # streaming keeps it far below the dense cost


@pytest.mark.parametrize("dims, chunk_bytes", [
    pytest.param((16, 32, 32), 2e8, id="memory-3d"),
    pytest.param((8, 16, 8), 2e8, id="memory-3d-small"),
    pytest.param((64, 32), 2e8, id="memory-2d"),
    pytest.param((8, 16, 8), 2e5, id="stream-6-rows"),
    pytest.param((16, 32, 32), 1e5, id="stream-1-row-over-chunk"),
    pytest.param((64, 8, 8), 1, id="stream-axis0-dominates"),
])
def test_peak_bytes_bounds_measured_peak(dims, chunk_bytes):
    rng = np.random.default_rng(2)
    fhat = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    window = LatticeWindow(L=20.0, dims=dims, k0=tuple(-m // 2 for m in dims))
    f = SpectralField(window=window, fhat=fhat, support=())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        space_stats(f, [2.0, 4.0, 6.0, 8.0, np.inf], ball_radius=1.0,
                    chunk_bytes=chunk_bytes)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert norm_peak_bytes(dims, chunk_bytes=chunk_bytes) >= peak
