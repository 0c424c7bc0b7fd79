import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from curveavg import DomainError, GL16_NODES, GL16_WEIGHTS, gauss_legendre


def test_tabulated_rule_is_leggauss_bit_for_bit():
    # the multiplier, the direct oracle and the cutoff's integral share this
    # table, so their values are those of numpy's rule to the last bit
    nodes, weights = leggauss(16)
    assert np.array_equal(GL16_NODES, nodes)
    assert np.array_equal(GL16_WEIGHTS, weights)
    assert not GL16_NODES.flags.writeable and not GL16_WEIGHTS.flags.writeable


@pytest.mark.parametrize("m", [1, 2, 16, 64, 385])
def test_nodes_match_leggauss(m):
    nodes, weights = gauss_legendre(m)
    want, _ = leggauss(m)
    assert nodes.shape == weights.shape == (m,)
    assert np.abs(nodes - want).max() <= 1e-15
    assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)


@pytest.mark.parametrize("m", [1, 2, 16, 64, 385])
def test_monomials_below_degree_2m_are_exact(m):
    nodes, weights = gauss_legendre(m)
    for k in range(2 * m):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(weights @ nodes ** k - exact) <= 1e-14, k


def test_odd_rules_have_the_origin_as_a_node():
    nodes, weights = gauss_legendre(5)
    assert nodes[2] == 0.0
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(weights, weights[::-1])


def test_rejects_an_empty_rule():
    with pytest.raises(DomainError):
        gauss_legendre(0)
