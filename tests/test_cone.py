import numpy as np
import pytest
from numpy.testing import assert_allclose

from curveavg import (ApertureError, ConeChart, CurveSpec, moment_gamma_seed)


@pytest.fixture
def chart3():
    return ConeChart(curve=CurveSpec.moment(3), aperture=0.95)


@pytest.fixture
def chart4():
    return ConeChart(curve=CurveSpec.moment(4), aperture=0.95)


def test_moment_gamma_seed_closed_form():
    xi, s = moment_gamma_seed(3, 0.4)
    assert_allclose(xi, [0.08, 0.4, 1.0])
    assert s == -0.4
    xi4, s4 = moment_gamma_seed(4, 0.3)
    assert_allclose(xi4, [0.3**3 / 6, 0.045, 0.3, 1.0])
    assert s4 == -0.3


def test_theta_matches_linear_root(chart3):
    # for the moment curve <gamma^(n-1)(s), xi> = xi_{n-1} + s xi_n, so
    # theta(xi) = -xi_{n-1}/xi_n exactly -- an independent closed form
    rng = np.random.default_rng(3)
    for _ in range(50):
        xi = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5), 1.0])
        xi *= rng.uniform(0.5, 100.0)
        assert chart3.solve_theta(xi) == pytest.approx(-xi[1] / xi[2],
                                                       abs=1e-12)


def test_theta_on_generating_curve_n4(chart4):
    for tau in np.linspace(-0.5, 0.5, 21):
        xi, _ = moment_gamma_seed(4, tau)
        assert chart4.solve_theta(xi) == pytest.approx(-tau, abs=1e-12)


def test_theta_perturbed_against_root_formula():
    # gamma = (s + 0.08 s^3, s^2/2, s^3/6), so gamma'' = (0.48 s, 1, s) and
    # <gamma''(s), xi> = xi_1 + s (xi_2 + 0.48 xi_0): the root is explicit
    curve = CurveSpec.perturbed_moment(3, ((1, (0.0, 0.0, 0.0, 0.08)),))
    chart = ConeChart(curve=curve, aperture=0.95)
    rng = np.random.default_rng(11)
    for _ in range(25):
        xi = np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.4, 0.4), 1.0])
        expected = -xi[1] / (xi[2] + 0.48 * xi[0])
        assert chart.solve_theta(xi) == pytest.approx(expected, abs=1e-12)


def test_theta_homogeneous_degree_zero(chart3):
    xi = np.array([0.03, -0.2, 1.0]) * 17.0
    t0 = chart3.solve_theta(xi)
    for a in (2.0, 64.0, 4096.0):
        assert chart3.solve_theta(a * xi) == pytest.approx(t0, abs=1e-13)


def test_phi_homogeneous_degree_one(chart3):
    xi = np.array([0.05, 0.3, 1.0])
    p0 = chart3.phase_phi(xi)
    for a in (2.0, 1024.0):
        assert chart3.phase_phi(a * xi) == pytest.approx(a * p0, rel=1e-12)


def test_phi_un_closed_forms_on_cone(chart3):
    # on the generating curve: phi(Gamma(tau)) = -tau^n/n!, u_n = xi_n = 1
    for tau in np.linspace(-0.4, 0.4, 9):
        xi, _ = moment_gamma_seed(3, tau)
        assert chart3.phase_phi(xi) == pytest.approx(-tau**3 / 6, abs=1e-14)
        assert chart3.phi_un_batch(xi)[1][0] == pytest.approx(1.0, rel=1e-13)


def test_phi_un_batch_matches_scalar(chart3):
    xis = np.array([moment_gamma_seed(3, t)[0] for t in (-0.3, 0.0, 0.25)]) * 40.0
    phi, un = chart3.phi_un_batch(xis)
    for i, xi in enumerate(xis):
        assert phi[i] == pytest.approx(chart3.phase_phi(xi), rel=1e-12, abs=1e-15)
        assert un[i] == pytest.approx(chart3.phi_un_batch(xi)[1][0], rel=1e-12)


def test_solve_gamma_closed_form(chart3, chart4):
    for tau in (-0.35, 0.1, 0.45):
        for chart in (chart3, chart4):
            xi, s = chart.solve_gamma(tau)
            want_xi, want_s = moment_gamma_seed(chart.n, tau)
            assert_allclose(xi, want_xi, atol=1e-12)
            assert s == pytest.approx(want_s, abs=1e-12)


def test_solve_gamma_perturbed_satisfies_defining_equations():
    curve = CurveSpec.perturbed_moment(3, ((1, (0.0, 0.0, 0.0, 0.05)),))
    chart = ConeChart(curve=curve, aperture=0.95)
    tau = 0.3
    xi, s = chart.solve_gamma(tau)
    assert xi[-2] == tau and xi[-1] == 1.0
    for j in (1, 2):
        assert abs(float(curve.derivative(j, s) @ xi)) < 1e-12


def test_aperture_guard(chart3):
    assert chart3.in_cone(np.array([0.1, 0.2, 1.0]))
    assert not chart3.in_cone(np.array([1.0, 0.4, 1.0]))
    with pytest.raises(ApertureError):
        chart3.solve_theta(np.array([1.0, 0.4, 1.0]))


def test_batched_theta_matches_scalar(chart3):
    taus = np.linspace(-0.4, 0.4, 7)
    xis = np.array([moment_gamma_seed(3, t)[0] for t in taus]) * 8.0
    out = chart3.solve_theta_batch(xis)
    assert_allclose(out, -taus, atol=1e-12)
