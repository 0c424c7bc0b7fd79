from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from curveavg import (ApertureError, ConeChart, ConfigError,
                      CounterexampleSpec, CurveSpec, CutoffSpec, DomainError,
                      GridError, LatticeWindow, build_f, cell_field,
                      cell_plan, estimate_field_bytes, frequency_centers,
                      parse_config, radial_bump, windowed_lattice)
from curveavg import config, sweep

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"


@pytest.fixture(scope="module")
def chart():
    return ConeChart(curve=CurveSpec.moment(3), aperture=0.95)


@pytest.fixture(scope="module")
def chi():
    return CutoffSpec(delta=0.9)


def spec_for(lam, chart, chi, rho=1.0, c0=0.7):
    return CounterexampleSpec(lam=lam, chart=chart, cutoff=chi, rho=rho, c0=c0)


# --- grids and windows -------------------------------------------------------

def test_window_frequencies():
    w = LatticeWindow(L=2.0, dims=(4, 4, 4), k0=(-2, -2, -2))
    xi = w.xi_of_flat(np.array([0]))
    assert_allclose(xi[0], [-2 * np.pi, -2 * np.pi, -2 * np.pi])


def test_parseval(chart, chi):
    spec = spec_for(32.0, chart, chi)
    window = windowed_lattice(spec)
    f = build_f(spec, window)
    # samples of f on its window's own grid (the support's box), up to a
    # unimodular modulation: enough points per axis for the Riemann sum of
    # |f|^2
    vals = np.fft.ifftn(f.dense(), norm="forward") / f.L ** 3
    cell = (f.window.L / np.array(f.window.dims)).prod()
    space_l2 = np.sqrt((np.abs(vals) ** 2).sum() * cell)
    power = (np.abs(f.coeffs) ** 2).sum()
    assert space_l2 == pytest.approx(np.sqrt(power / f.L ** 3), rel=1e-12)


# --- the counterexample family ----------------------------------------------

def test_frequency_centers_closed_form(chart, chi):
    # lambda * Gamma(nu lambda^{-1/3}); at lambda = 4096, nu = 1:
    # tau = 1/16, center = 4096 * (tau^2/2, tau, 1) = (8, 256, 4096)
    spec = spec_for(4096.0, chart, chi, rho=1.0, c0=0.07)
    centers = frequency_centers(spec)
    nus = spec.nu_values()
    row = centers[np.nonzero(nus == 1)[0][0]]
    assert_allclose(row, [8.0, 256.0, 4096.0], rtol=1e-12)


def test_nu_count(chart, chi):
    # floor(c0 lambda^{1/3}) = floor(4) -> nu in -4..4
    spec = spec_for(4096.0, chart, chi, rho=0.25, c0=0.25)
    assert list(spec.nu_values()) == list(range(-4, 5))
    assert len(frequency_centers(spec)) == 9


def test_center_overlap_rejected(chart, chi):
    # at lambda = 16 the fattened balls of rho = 1 collide
    spec = spec_for(16.0, chart, chi, rho=1.0, c0=0.7)
    with pytest.raises(ConfigError, match="overlap"):
        frequency_centers(spec)


def test_rho_range_guard(chart, chi):
    with pytest.raises(ConfigError, match="rho"):
        spec_for(64.0, chart, chi, rho=1.5)


@pytest.mark.parametrize("lam, c0, error", [
    (np.nan, 0.7, DomainError), (np.inf, 0.7, DomainError),
    (-64.0, 0.7, DomainError), (64.0, np.nan, ConfigError),
    (64.0, np.inf, ConfigError)],
    ids=["nan-lambda", "infinite-lambda", "negative-lambda", "nan-c0",
         "infinite-c0"])
def test_spec_needs_positive_finite_constants(chart, chi, lam, c0, error):
    # nu_values floors c0 lambda^{1/n}, which a NaN or an infinity cannot
    with pytest.raises(error, match="positive and finite"):
        spec_for(lam, chart, chi, c0=c0)


def test_build_f_support_structure(chart, chi):
    spec = spec_for(64.0, chart, chi)
    window = windowed_lattice(spec)
    f = build_f(spec, window)
    assert len(f.support) == len(spec.nu_values())
    assert f.window.L == window.L
    for ball in f.support:
        xi = f.window.xi_of_flat(ball.flat)
        d = np.linalg.norm(xi - np.array(ball.center), axis=1)
        assert d.max() <= spec.radius + 1e-9
        # support points live where the inner bump is nonzero
        assert np.all(np.abs(f.coeffs[ball.rows]) > 0)
        assert np.array_equal(f.flat[ball.rows], ball.flat)
    # the balls' rows tile the field's vectors in order, on distinct points
    assert [b.rows.start for b in f.support[1:]] == [
        b.rows.stop for b in f.support[:-1]]
    assert f.support[0].rows.start == 0
    assert f.support[-1].rows.stop == len(f.coeffs) == len(np.unique(f.flat))


def test_piece_amplitude_and_phase(chart, chi):
    # coefficients are lambda^{1/n} e^{i phi(xi)} eta(|xi - center|/r): the
    # modulus must match the bump profile and the phase must match phi
    spec = spec_for(64.0, chart, chi)
    window = windowed_lattice(spec)
    f = build_f(spec, window)
    ball = f.support[len(f.support) // 2]   # nu = 0, the middle piece
    xi = f.window.xi_of_flat(ball.flat)
    vals = f.coeffs[ball.rows]
    phi, _ = chart.phi_un_batch(xi)
    phase = np.exp(1j * phi)
    ratio = vals / (64.0 ** (1 / 3) * phase)
    assert np.max(np.abs(ratio.imag)) < 1e-12   # modulus is real after unwind
    assert np.all(ratio.real > 0)
    assert np.max(ratio.real) <= 1.0 + 1e-12


def test_narrow_aperture_rejected(chi):
    tight = ConeChart(curve=CurveSpec.moment(3), aperture=0.3)
    spec = CounterexampleSpec(lam=64.0, chart=tight, cutoff=chi, rho=1.0,
                              c0=0.7)
    with pytest.raises(ApertureError):
        build_f(spec, windowed_lattice(spec))


class _LastBallOutside(ConeChart):
    """A chart whose aperture holds the frequencies with xi_{n-1} < 24: at
    lambda = 64 every ball but the last's (nu = 2, xi_{n-1} in (28, 36))."""

    def in_cone(self, xi):
        return np.asarray(xi)[..., -2] < 24.0


@pytest.mark.parametrize("chart_type, nu", [(ConeChart, -2),
                                            (_LastBallOutside, 2)],
                         ids=["outer-balls-cross", "last-ball-outside"])
def test_aperture_error_names_the_piece(chi, chart_type, nu):
    # at c = 0.52 every center of lambda = 64 (nu = -2..2, |tau| <= 0.5)
    # lies inside the aperture and the outer balls cross it; the error
    # names the first piece, in order, with a support point outside, also
    # when that point is the piece's first row
    chart = chart_type(curve=CurveSpec.moment(3), aperture=0.52)
    spec = CounterexampleSpec(lam=64.0, chart=chart, cutoff=chi, rho=1.0,
                              c0=0.7)
    lattice = windowed_lattice(spec)
    assert list(spec.nu_values()) == [-2, -1, 0, 1, 2]
    with pytest.raises(ApertureError, match=f"piece nu={nu} exits"):
        build_f(spec, lattice)


def test_windowed_lattice_geometry(chart, chi):
    spec = spec_for(128.0, chart, chi)
    w = windowed_lattice(spec, points_per_radius=4)
    # spacing h = radius / 4, so L = 2 pi / h
    assert w.L == pytest.approx(2 * np.pi * 4 / spec.radius)
    # one ball per piece, in order, around its center, its rows tiling the
    # lattice's, carrying the piece's bump there
    assert len(w.support) == len(spec.nu_values())
    centers = frequency_centers(spec)
    for ball, center in zip(w.support, centers):
        assert np.array_equal(ball.center, center)
        dist = np.linalg.norm(w.window.xi_of_flat(ball.flat) - center, axis=1)
        assert_allclose(w.coeffs[ball.rows], radial_bump(dist / spec.radius),
                        rtol=1e-15, atol=0)
    assert [b.rows.start for b in w.support] == [0] + [
        b.rows.stop for b in w.support[:-1]]
    assert w.support[-1].rows.stop == len(w.coeffs)
    # the field built on it lies on it: the same window and support
    f = build_f(spec, w)
    assert f.window == w.window and np.array_equal(f.flat, w.flat)
    assert [b.rows for b in f.support] == [b.rows for b in w.support]
    with pytest.raises(GridError, match="2 lattice points"):
        windowed_lattice(spec, points_per_radius=1)


def test_each_cell_enumerates_its_support_once(monkeypatch):
    # per cell, the memory gate and `cell_field` each solve every center
    # once, through the same `windowed_lattice` call, and `build_f` runs
    # one phase solve over all the pieces
    calls, lattices = Counter(), []
    for name in ("solve_gamma", "phi_un_batch"):
        def counted(self, *args, _name=name, _fn=getattr(ConeChart, name)):
            calls[_name] += 1
            return _fn(self, *args)
        monkeypatch.setattr(ConeChart, name, counted)

    def recorded(spec, **kwargs):
        lattices.append((spec, kwargs))
        return windowed_lattice(spec, **kwargs)

    monkeypatch.setattr(config, "windowed_lattice", recorded)
    monkeypatch.setattr(sweep, "windowed_lattice", recorded)
    for name, lam in (("n2", 128.0), ("n3", 32.0)):
        cfg = parse_config((WORKLOADS / f"{name}.cfg").read_text())
        plan = cell_plan(cfg, lam)
        pieces = len(plan.spec.nu_values())
        calls.clear()
        estimate_field_bytes(cfg, lam)
        assert calls == {"solve_gamma": pieces}, (name, calls)
        calls.clear()
        f = cell_field(cfg, plan)
        assert calls == {"solve_gamma": pieces, "phi_un_batch": 1}, (name,
                                                                     calls)
        assert len(f.support) == pieces
        gate, cell = lattices[-2:]
        assert gate == cell, name


def test_l2_norm_scaling(chart, chi):
    # ||f_nu||_2 = lambda^{1/n} ||g_nu||_2 piecewise, by Parseval on the
    # piece's coefficients: g_nu is the bump, and the phase is unimodular
    spec = spec_for(64.0, chart, chi)
    window = windowed_lattice(spec)
    f = build_f(spec, window)
    ball = f.support[len(f.support) // 2 + 1]   # nu = 1
    dist = np.linalg.norm(f.window.xi_of_flat(ball.flat) - ball.center, axis=1)
    g = radial_bump(dist / spec.radius)
    g_l2 = np.sqrt((g ** 2).sum() / window.L ** 3)
    f_l2 = np.sqrt((np.abs(f.coeffs[ball.rows]) ** 2).sum() / window.L ** 3)
    assert f_l2 == pytest.approx(64.0 ** (1 / 3) * g_l2, rel=1e-13)



def _field(case, chart, chi):
    """The field of a pinned acceptance cell, or of a benchmark workload's."""
    name, lam = case
    if name == "pinned":
        spec = spec_for(lam, chart, chi)
        return build_f(spec, windowed_lattice(spec))
    cfg = parse_config((WORKLOADS / f"{name}.cfg").read_text())
    return cell_field(cfg, cell_plan(cfg, lam))


@pytest.mark.parametrize("case", [("pinned", 32.0), ("pinned", 256.0),
                                  ("n2", 64.0), ("n3", 4.0)],
                         ids=lambda c: f"{c[0]}-{c[1]:g}")
def test_window_is_the_support_box(case, chart, chi):
    # the field's window is its support's bounding box: a support point
    # lies on both faces of every axis
    f = _field(case, chart, chi)
    idx = np.stack(np.unravel_index(f.flat, f.window.dims), axis=-1)
    assert np.array_equal(idx.min(axis=0), np.zeros(f.window.n))
    assert np.array_equal(idx.max(axis=0) + 1, f.window.dims)
