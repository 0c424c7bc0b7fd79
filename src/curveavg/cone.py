"""The worst-decay cone: theta(xi), the generating curve Gamma(tau), phase phi, u_n.

For a frequency xi in the aperture region Xi = {|xi'| <= c |xi_n|}, theta(xi)
is the parameter where <gamma^(n-1)(s), xi> vanishes; the cone is swept by
Gamma(tau), the solution of <gamma^(j)(s), xi> = 0 for j = 1..n-1 normalized
by xi_{n-1} = tau, xi_n = 1. Both are solved by Newton with analytic
Jacobians, seeded from the moment-curve closed form Gamma_i(tau) =
tau^{n-i}/(n-i)!, s = -tau (which is exact for the moment curve and inside
the contraction basin for perturbations of it).

phi(xi) = <gamma(theta(xi)), xi> is the phase whose graph is the cone;
u_n(xi) = <gamma^(n)(theta(xi)), xi> is the curvature-scale pairing entering
the multiplier's leading decay (t*u_n)^(-1/n).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .curves import DOMAIN, CurveSpec
from .errors import ApertureError, ConvergenceError

__all__ = ["ConeChart", "moment_gamma_seed"]

# Newton stops at a residual of _NEWTON_TOL (relative to |xi| for theta) and
# fails after _MAX_ITERATIONS steps
_NEWTON_TOL = 1e-12
_MAX_ITERATIONS = 60


def moment_gamma_seed(n, tau):
    """Closed-form cone curve of the moment curve: xi_i = tau^{n-i}/(n-i)!, s=-tau."""
    xi = np.array([1 / factorial(n - i) * tau ** (n - i)
                   for i in range(1, n + 1)])
    return xi, -float(tau)


@dataclass(frozen=True)
class ConeChart:
    """Cone solver bound to a curve and an aperture c."""

    curve: CurveSpec
    aperture: float = 0.25

    @property
    def n(self):
        return self.curve.n

    def in_cone(self, xi):
        """|xi'| <= c |xi_n|, vectorized over leading axes."""
        xi = np.asarray(xi, dtype=float)
        head = np.linalg.norm(xi[..., :-1], axis=-1)
        return head <= self.aperture * np.abs(xi[..., -1])

    def solve_theta_batch(self, xis):
        """Newton from s=0 on <gamma^(n-1)(s), xi> for a batch of frequencies."""
        xis = np.atleast_2d(np.asarray(xis, dtype=float))
        if not np.all(np.abs(xis[:, -1]) > 0.0):
            raise ApertureError("xi_n = 0: frequency outside every aperture")
        bad = ~self.in_cone(xis)
        if np.any(bad):
            raise ApertureError(
                f"{int(bad.sum())} frequencies outside Xi "
                f"(|xi'| > {self.aperture}*|xi_n|), first: {xis[bad][0]}")
        n = self.n
        scale = np.linalg.norm(xis, axis=1)
        s = np.zeros(len(xis))
        for _ in range(_MAX_ITERATIONS):
            g = np.einsum("ij,ij->i", self.curve.derivative(n - 1, s), xis)
            if np.all(np.abs(g) <= _NEWTON_TOL * scale):
                break
            gp = np.einsum("ij,ij->i", self.curve.derivative(n, s), xis)
            if np.any(gp == 0.0):
                raise ConvergenceError("vanishing Newton slope in theta solve")
            s = s - g / gp
        else:
            raise ConvergenceError(
                f"theta Newton did not reach {_NEWTON_TOL} "
                f"in {_MAX_ITERATIONS} iterations (aperture too large?)")
        a, b = DOMAIN
        if np.any((s < a) | (s > b)):
            raise ConvergenceError(
                "theta left the parameter interval; the frequency is too far "
                "from the cone for this aperture")
        return s

    def solve_theta(self, xi):
        return float(self.solve_theta_batch(np.asarray(xi, dtype=float)[None])[0])

    def solve_gamma(self, tau):
        """Solve the cone system at xi_{n-1} = tau, xi_n = 1.

        Unknowns (xi_1..xi_{n-2}, s); equations <gamma^(j)(s), xi> = 0 for
        j = 1..n-1. Returns (xi, s) with residual max-norm <= _NEWTON_TOL.
        """
        tau = float(tau)
        if not abs(tau) <= self.aperture:
            raise ApertureError(f"|tau| = {abs(tau)} outside aperture {self.aperture}")
        n = self.n
        xi, s = moment_gamma_seed(n, tau)
        xi[n - 2], xi[n - 1] = tau, 1.0  # normalization is exact, not solved for
        for _ in range(_MAX_ITERATIONS):
            D = [self.curve.derivative(j, s) for j in range(1, n + 1)]
            F = np.array([D[j - 1] @ xi for j in range(1, n)])
            if np.abs(F).max() <= _NEWTON_TOL:
                return xi, float(s)
            J = np.empty((n - 1, n - 1))
            for j in range(1, n):
                J[j - 1, :n - 2] = D[j - 1][:n - 2]
                J[j - 1, n - 2] = D[j] @ xi
            step = np.linalg.solve(J, -F)
            xi[:n - 2] += step[:n - 2]
            s += step[n - 2]
        raise ConvergenceError(
            f"cone-system Newton stalled at tau={tau} "
            f"(residual {np.abs(F).max():.2e} > {_NEWTON_TOL})")

    def phase_phi(self, xi):
        """phi(xi) = <gamma(theta(xi)), xi>; homogeneous of degree 1."""
        return float(self.phi_un_batch(np.asarray(xi, dtype=float)[None])[0][0])

    def phi_un_batch(self, xis):
        """(phi(xi), u_n(xi)) for a batch, sharing one theta solve."""
        return self.phi_un_at(xis, self.solve_theta_batch(xis))

    def phi_un_at(self, xis, theta):
        """(<gamma(theta), xi>, <gamma^(n)(theta), xi>) per frequency: phi
        and u_n when theta is `solve_theta_batch(xis)`, for callers that
        need theta too and solve it once."""
        xis = np.atleast_2d(np.asarray(xis, dtype=float))
        phi = np.einsum("ij,ij->i", self.curve.derivative(0, theta), xis)
        un = np.einsum("ij,ij->i", self.curve.derivative(self.n, theta), xis)
        return phi, un
