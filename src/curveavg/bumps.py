"""Compactly supported smooth profiles: the cutoff weight and the radial bump.

All profiles here are classical C^infinity constructions with *exact* support:
the cutoff chi(s) = exp(1 - 1/(1-(s/delta)^2)) on (-delta, delta), and the
radial plateau bump glued with the smooth step h(x)/(h(x)+h(1-x)),
h(x)=exp(-1/x).
Exact support matters: frequency-side constructions rely on coefficients being
*identically* zero outside declared balls, not merely small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .legendre import panel_rule

__all__ = ["CutoffSpec", "smooth_step", "radial_bump"]


def _h(x):
    # exp(-1/x) for x>0, 0 otherwise; written to avoid overflow warnings at x->0+
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def smooth_step(x):
    """C^infinity step: 0 for x <= 0, 1 for x >= 1, strictly increasing between.

    step(x) = h(x) / (h(x) + h(1-x)) with h(x) = exp(-1/x). Symmetric:
    step(x) + step(1-x) = 1, hence step(1/2) = 1/2 exactly.
    """
    x = np.asarray(x, dtype=float)
    a = _h(x)
    b = _h(1.0 - x)
    out = np.zeros_like(x)
    inside = (x > 0) & (x < 1)
    out[inside] = a[inside] / (a[inside] + b[inside])
    out[x >= 1] = 1.0
    return out if out.ndim else float(out)


def radial_bump(x):
    """Radial plateau bump evaluated at radius x >= 0: 1 on [0, 1/2], 0 on
    [1, inf). The ramp is the smooth_step glue, so the profile is
    C^infinity."""
    x = np.asarray(x, dtype=float)
    out = smooth_step((1.0 - x) / 0.5)
    return out if np.ndim(x) else float(out)


@dataclass(frozen=True)
class CutoffSpec:
    """The curve-parameter weight chi with support exactly [-delta, delta].

    chi(s) = exp(1 - 1/(1 - (s/delta)^2)) inside, 0 outside; chi(0) = 1.
    `integral` is computed by (non-oscillatory) Gauss-Legendre quadrature;
    it scales linearly in delta.
    """

    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta <= 1.0:
            raise DomainError(f"cutoff delta must be in (0, 1], got {self.delta}")

    def __call__(self, s):
        u = np.asarray(s, dtype=float) / self.delta
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
        return out if out.ndim else float(out)

    @property
    def integral(self):
        # 64 panels x 16 nodes resolves the bump to machine precision
        s, w = panel_rule(64, self.delta)
        return float(w @ self(s))
