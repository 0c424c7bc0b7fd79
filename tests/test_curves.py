import numpy as np
import pytest
from numpy.testing import assert_allclose

from curveavg import (CurveSpec, DomainError, model_class_report,
                      nondegeneracy_margin)


@pytest.fixture
def moment3():
    return CurveSpec.moment(3)


def test_moment_curve_values(moment3):
    s = np.array([0.0, 0.5, -1.0])
    g = moment3.derivative(0, s)
    assert_allclose(g[0], [0.0, 0.0, 0.0], atol=0)
    assert_allclose(g[1], [0.5, 0.125, 0.5**3 / 6])
    assert_allclose(g[2], [-1.0, 0.5, -1.0 / 6])
    assert_allclose(moment3.derivative(1, 0.3), [1.0, 0.3, 0.045])
    # order n+1 of the moment curve is identically zero, and the last carried
    assert_allclose(moment3.derivative(4, s), 0.0, atol=0)
    with pytest.raises(DomainError):
        moment3.derivative(5, s)


def test_moment_curve_anchoring_is_exact(moment3):
    # gamma(0) = 0 and gamma^(j)(0) = e_j must hold to the last bit: the
    # derivative tables are built from exact rational coefficients
    for j in range(1, 4):
        ej = np.zeros(3)
        ej[j - 1] = 1.0
        assert np.array_equal(moment3.derivative(j, 0.0), ej)
    assert np.array_equal(moment3.derivative(0, 0.0), np.zeros(3))


def test_derivatives_against_finite_differences(moment3):
    rng = np.random.default_rng(7)
    s = rng.uniform(-0.8, 0.8, size=12)
    h = 1e-5
    for order in (1, 2, 3):
        fd = (moment3.derivative(order - 1, s + h)
              - moment3.derivative(order - 1, s - h)) / (2 * h)
        assert_allclose(moment3.derivative(order, s), fd, atol=1e-8, rtol=1e-7)


def test_nondegeneracy_margin_moment():
    # det(gamma', gamma'', gamma''') == 1 identically for the moment curve
    assert nondegeneracy_margin(CurveSpec.moment(3)) == pytest.approx(1.0)
    assert nondegeneracy_margin(CurveSpec.moment(4)) == pytest.approx(1.0)


def test_perturbed_curve_stays_nondegenerate():
    # s^4 perturbation in the first coordinate: anchoring (orders <= n at 0)
    # is untouched, the C^{n+1} distance is 24 * 0.02 = 0.48
    curve = CurveSpec.perturbed_moment(3, ((1, (0.0, 0.0, 0.0, 0.0, 0.02)),))
    report = model_class_report(curve, delta=0.9)
    assert report.anchored
    assert report.distance == pytest.approx(0.48)
    assert report.member
    assert nondegeneracy_margin(curve) > 0.5


def test_model_class_rejects_large_perturbation():
    curve = CurveSpec.perturbed_moment(3, ((2, (0.0, 0.0, 0.0, 0.0, 0.9)),))
    report = model_class_report(curve, delta=0.1)
    assert report.anchored          # s^4 terms vanish at 0 through order 3
    assert not report.member        # but the C^{n+1} distance is 21.6


def test_low_order_perturbation_breaks_anchoring():
    # an s^1 term moves gamma'(0) off e_1; construction is legal but the
    # model-class report must flag it
    curve = CurveSpec.perturbed_moment(3, ((1, (0.0, 0.1)),))
    assert not model_class_report(curve, delta=0.9).anchored

