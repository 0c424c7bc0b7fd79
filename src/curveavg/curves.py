"""Curve definitions with exact derivative evaluation.

Curves are polynomial: the canonical curve gamma(s) = (s, s^2/2, ..., s^n/n!)
or polynomial perturbations of it. Derivatives are analytic everywhere:
differentiation happens on power-basis coefficients, never by finite
differences, and every coefficient is a correctly rounded float (1/k! and
j c_j are single roundings), so that the anchoring identities gamma(0)=0,
gamma^(j)(0)=e_j hold *exactly* in floating point and downstream Newton
solvers get full-accuracy Jacobians.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import DomainError

__all__ = ["DOMAIN", "CurveSpec"]

# the parameter interval I of every curve: the paper averages over [-1, 1]
DOMAIN = (-1.0, 1.0)


def _coefficient_tables(n, perturbation):
    """Power-basis coefficients of gamma^(order), order 0 ... n + 1: per
    order a zero-padded (degree + 1) x n table whose row i holds the
    coefficients of s^i. The moment curve's are 1/(k - order)!, each one
    correctly rounded division, so that e.g. the constant term of
    gamma_j^(j) is the float 1.0 exactly; a perturbation's are added to its
    component's column, and differentiated as j c_j."""
    extra = [(comp - 1, np.asarray(c, dtype=float)) for comp, c in perturbation]
    tables = []
    for order in range(n + 2):
        rows = max([n - order + 1, 1] + [len(c) for _, c in extra])
        table = np.zeros((rows, n))
        for k in range(max(order, 1), n + 1):   # component k holds s^k / k!
            table[k - order, k - 1] = 1 / factorial(k - order)
        for col, c in extra:
            table[:len(c), col] += c
        tables.append(table)
        extra = [(col, c[1:] * np.arange(1, len(c)) if len(c) > 1
                  else np.zeros(1)) for col, c in extra]
    return tables


@dataclass(frozen=True)
class CurveSpec:
    """A smooth curve I = DOMAIN -> R^n with derivative evaluation up to
    order n+1.

    The moment curve plus `perturbation`, a polynomial added per component
    (none for the moment curve itself). Use the constructors `moment` and
    `perturbed_moment`.
    """

    n: int
    perturbation: tuple = ()   # ((component_1based, coeff_tuple), ...)

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"curve dimension must be >= 2, got {self.n}")
        object.__setattr__(self, "_dtab",
                           _coefficient_tables(self.n, self.perturbation))

    @classmethod
    def moment(cls, n):
        return cls(n=n)

    @classmethod
    def perturbed_moment(cls, n, perturbation):
        """perturbation: {component (1-based): power-basis coefficients to add}."""
        pert = tuple(sorted((int(k), tuple(float(c) for c in v))
                            for k, v in dict(perturbation).items()))
        for k, _ in pert:
            if not 1 <= k <= n:
                raise DomainError(f"perturbed component {k} outside 1..{n}")
        return cls(n=n, perturbation=pert)

    def derivative(self, order, s):
        """gamma^(order)(s), vectorized: returns shape s.shape + (n,).

        One Horner loop over the order's coefficient table, every component
        at once; its zero padding leaves each component's value bit for bit
        that of Horner on its own coefficients."""
        if not 0 <= order <= self.n + 1:
            raise DomainError(
                f"derivative order {order} unsupported (curve carries 0..{self.n + 1})")
        table = self._dtab[order]
        s = np.asarray(s, dtype=float)[..., None]
        out = np.empty(s.shape[:-1] + (self.n,))
        out[...] = table[-1]
        for row in table[-2::-1]:
            out *= s
            out += row
        return out
