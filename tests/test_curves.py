from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from numpy.testing import assert_allclose

from curveavg import CurveSpec, DomainError
from curveavg.verify import model_class_report, nondegeneracy_margin


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
    # gamma(0) = 0 and gamma^(j)(0) = e_j must hold to the last bit: every
    # coefficient of the derivative tables is one correctly rounded float
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



def test_reciprocal_factorials_are_the_rounded_rationals():
    # 1/k! by float division is the correctly rounded rational 1/k!
    for k in range(21):
        assert 1 / factorial(k) == float(Fraction(1, factorial(k)))


def _polyval_oracle(curve, order, s):
    """gamma^(order)(s) per component by numpy.polynomial: the moment
    curve's coefficients as rounded rationals plus the perturbation
    differentiated by polyder, each component evaluated by polyval."""
    out = np.empty(np.shape(s) + (curve.n,))
    extra = dict(curve.perturbation)
    for k in range(1, curve.n + 1):
        base = np.zeros(max(k - order, 0) + 1)
        if order <= k:
            base[k - order] = float(Fraction(1, factorial(k - order)))
        c = np.asarray(extra.get(k, (0.0,)), dtype=float)
        for _ in range(order):
            c = P.polyder(c) if c.size > 1 else np.zeros(1)
        merged = np.zeros(max(base.size, c.size))
        merged[:base.size] += base
        merged[:c.size] += c
        out[..., k - 1] = P.polyval(s, merged)
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("perturbed", [False, True], ids=["moment", "perturbed"])
def test_derivative_is_polyval_bit_for_bit(n, perturbed):
    # one Horner loop over the zero-padded table gives each component's
    # polyval value exactly, at every order the curve carries
    curve = CurveSpec.moment(n)
    if perturbed:
        curve = CurveSpec.perturbed_moment(n, {
            1: (0.0, 0.0, 0.0, 0.03, -0.011),
            n: (0.0,) * (n + 1) + (0.007, 0.0, -0.0013)})
    s = np.concatenate(([-1.0, -0.5, 0.0, 0.3, 1.0],
                        np.random.default_rng(n).uniform(-1, 1, 40)))
    for order in range(n + 2):
        assert np.array_equal(curve.derivative(order, s),
                              _polyval_oracle(curve, order, s)), order
        assert np.array_equal(curve.derivative(order, 0.25),
                              _polyval_oracle(curve, order, 0.25)), order
