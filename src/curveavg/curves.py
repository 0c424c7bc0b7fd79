"""Curve definitions with exact derivative evaluation.

Curves are polynomial: the canonical curve gamma(s) = (s, s^2/2, ..., s^n/n!)
or polynomial perturbations of it. Derivatives are analytic everywhere:
differentiation happens on coefficients in exact rational arithmetic, never by
finite differences, so that the anchoring identities gamma(0)=0,
gamma^(j)(0)=e_j hold *exactly* in floating point and downstream Newton
solvers get full-accuracy Jacobians.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import DomainError

__all__ = ["CurveSpec", "ModelClassReport", "nondegeneracy_margin",
           "model_class_report"]


def _moment_coeff_table(n, max_order):
    """Power-basis coefficients of each derivative of the moment curve.

    table[j][k] is the coefficient array of gamma_k^(j) (component k, 0-based).
    Built with Fractions so that e.g. the constant term of gamma_j^(j) is the
    float 1.0 exactly, not round(1/j!)*j!.
    """
    table = []
    for j in range(max_order + 1):
        comps = []
        for k in range(1, n + 1):  # component k holds s^k / k!
            if j > k:
                comps.append(np.zeros(1))
            else:
                c = np.zeros(k - j + 1)
                c[k - j] = float(Fraction(1, factorial(k - j)))
                comps.append(c)
        table.append(comps)
    return table


def _polyder_table(coeffs, max_order):
    """Derivative coefficient arrays for a float polynomial, orders 0..max_order."""
    table = [np.asarray(coeffs, dtype=float)]
    for _ in range(max_order):
        prev = table[-1]
        table.append(P.polyder(prev) if prev.size > 1 else np.zeros(1))
    return table


@dataclass(frozen=True)
class CurveSpec:
    """A smooth curve I -> R^n with derivative evaluation up to order n+1.

    The moment curve plus `perturbation`, a polynomial added per component
    (none for the moment curve itself). Use the constructors `moment` and
    `perturbed_moment`.
    """

    n: int
    domain: tuple = (-1.0, 1.0)
    perturbation: tuple = ()   # ((component_1based, coeff_tuple), ...)

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"curve dimension must be >= 2, got {self.n}")
        if self.domain[0] >= self.domain[1]:
            raise DomainError(f"empty parameter interval {self.domain}")
        object.__setattr__(self, "_dtab", self._build_tables())

    @classmethod
    def moment(cls, n, domain=(-1.0, 1.0)):
        return cls(n=n, domain=domain)

    @classmethod
    def perturbed_moment(cls, n, perturbation, domain=(-1.0, 1.0)):
        """perturbation: {component (1-based): power-basis coefficients to add}."""
        pert = tuple(sorted((int(k), tuple(float(c) for c in v))
                            for k, v in dict(perturbation).items()))
        for k, _ in pert:
            if not 1 <= k <= n:
                raise DomainError(f"perturbed component {k} outside 1..{n}")
        return cls(n=n, domain=domain, perturbation=pert)

    def _build_tables(self):
        max_order = self.n + 1
        tab = _moment_coeff_table(self.n, max_order)
        for comp, coeffs in self.perturbation:
            for j, dc in enumerate(_polyder_table(coeffs, max_order)):
                base = tab[j][comp - 1]
                m = max(base.size, dc.size)
                merged = np.zeros(m)
                merged[:base.size] += base
                merged[:dc.size] += dc
                tab[j][comp - 1] = merged
        return tab

    def derivative(self, order, s):
        """gamma^(order)(s), vectorized: returns shape s.shape + (n,)."""
        if not 0 <= order <= self.n + 1:
            raise DomainError(
                f"derivative order {order} unsupported (curve carries 0..{self.n + 1})")
        s = np.asarray(s, dtype=float)
        out = np.empty(s.shape + (self.n,))
        for k in range(self.n):
            out[..., k] = P.polyval(s, self._dtab[order][k])
        return out


def nondegeneracy_margin(curve, samples=2048):
    """min over a uniform grid of |det(gamma'(s), ..., gamma^(n)(s))|.

    A strictly positive value on a fine grid certifies the working hypothesis
    that the first n derivatives stay linearly independent. Returns 0.0 for
    degenerate curves; never raises.
    """
    if samples < 2:
        raise DomainError("need at least 2 sample points")
    s = np.linspace(curve.domain[0], curve.domain[1], samples)
    mats = np.stack([curve.derivative(j, s) for j in range(1, curve.n + 1)], axis=-2)
    return float(np.abs(np.linalg.det(mats)).min())


@dataclass(frozen=True)
class ModelClassReport:
    delta: float
    anchored: bool
    distance: float
    member: bool


def model_class_report(curve, delta, samples=2048):
    """Membership in the model class around the moment curve.

    Checks the anchoring gamma(0)=0, gamma^(j)(0)=e_j (1<=j<=n) exactly at
    s=0, and the C^{n+1} distance max_{1<=j<=n+1} sup_{[-1,1]} |gamma^(j) -
    gamma_o^(j)| (Euclidean norm per point, maximized over a dense grid).
    Membership requires both anchoring and distance <= delta.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must be in (0,1), got {delta}")
    if curve.domain[0] > -1.0 or curve.domain[1] < 1.0:
        raise DomainError(f"curve domain {curve.domain} must cover [-1, 1]")
    ref = CurveSpec.moment(curve.n)

    anchored = bool(np.all(curve.derivative(0, 0.0) == 0.0))
    eye = np.eye(curve.n)
    for j in range(1, curve.n + 1):
        anchored &= bool(np.all(curve.derivative(j, 0.0) == eye[j - 1]))

    s = np.linspace(-1.0, 1.0, samples)
    distance = 0.0
    for j in range(1, curve.n + 2):
        gap = curve.derivative(j, s) - ref.derivative(j, s)
        distance = max(distance, float(np.linalg.norm(gap, axis=-1).max()))

    return ModelClassReport(delta=float(delta), anchored=anchored,
                            distance=distance,
                            member=anchored and distance <= delta)
