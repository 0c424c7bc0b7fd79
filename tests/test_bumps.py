import numpy as np
import pytest
from numpy.testing import assert_allclose

from curveavg import CutoffSpec, DomainError, radial_bump, smooth_step


def test_smooth_step_boundary_values():
    s = smooth_step(np.array([-1.0, 0.0, 0.5, 1.0, 2.0]))
    assert_allclose(s, [0.0, 0.0, 0.5, 1.0, 1.0], atol=0)
    # midpoint is exact by the h(x)/(h(x)+h(1-x)) symmetry, not approximate
    assert smooth_step(0.5) == 0.5


def test_smooth_step_monotone_and_smooth():
    x = np.linspace(-0.5, 1.5, 4001)
    y = smooth_step(x)
    assert np.all(np.diff(y) >= 0)
    # all one-sided difference quotients stay bounded: no kink at 0 or 1
    dq = np.diff(y) / np.diff(x)
    assert dq.max() < 4.0


def test_radial_bump_plateau_and_support():
    r = np.linspace(0, 2, 801)
    v = radial_bump(r)
    assert np.all(v[r <= 0.5] == 1.0)
    assert np.all(v[r >= 1.0] == 0.0)
    assert np.all((v >= 0) & (v <= 1))
    assert np.all(np.diff(v) <= 1e-12)   # nonincreasing in radius


def test_cutoff_profile_normalization():
    chi = CutoffSpec(delta=0.25)
    assert chi(0.0) == pytest.approx(1.0)
    assert chi(0.25) == 0.0
    assert chi(-0.3) == 0.0
    s = np.linspace(-0.24, 0.24, 97)
    assert np.all(chi(s) > 0)


def test_cutoff_integral_frozen_values():
    # 64-panel Gauss-Legendre; cross-checked against scipy.integrate.quad
    # (abs err < 1e-9) and against the exact dilation identity below
    assert CutoffSpec(delta=0.25).integral == pytest.approx(
        0.30172508060946857, rel=1e-13)
    assert CutoffSpec(delta=0.9).integral == pytest.approx(
        1.0862102901940868, rel=1e-13)


def test_cutoff_integral_scales_linearly_in_delta():
    # chi_delta(s) = chi_1(s/delta), so the integral is delta * integral(chi_1)
    base = CutoffSpec(delta=1.0).integral
    for delta in (0.25, 0.5, 0.9):
        assert CutoffSpec(delta=delta).integral == pytest.approx(
            delta * base, rel=1e-12)


def test_cutoff_integral_against_adaptive_quadrature():
    quad = pytest.importorskip("scipy.integrate").quad
    chi = CutoffSpec(delta=0.9)
    ref, err = quad(lambda s: float(chi(s)), -0.9, 0.9, limit=200)
    assert err < 1e-9
    assert chi.integral == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize("delta", [0.0, -0.1, 1.5])
def test_cutoff_rejects_bad_delta(delta):
    with pytest.raises(DomainError):
        CutoffSpec(delta=delta)


def test_cutoff_vectorized_shape():
    chi = CutoffSpec(delta=0.5)
    out = chi(np.zeros((4, 5)))
    assert out.shape == (4, 5)
