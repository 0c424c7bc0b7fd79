"""Gauss-Legendre rules on [-1, 1].

`gauss_legendre(m)` finds the nodes by Newton's method on the three-term
recurrence (2k + 1) x P_k = (k + 1) P_{k+1} + k P_{k-1}, from Tricomi's
asymptotic guesses, in O(m) memory and O(m^2) time (Hale & Townsend, "Fast
and accurate computation of Gauss-Legendre and Gauss-Jacobi quadrature
nodes and weights", SIAM J. Sci. Comput. 35, 2013). The tabulated 16-point
rule `GL16_NODES`, `GL16_WEIGHTS` has the literals of numpy's
`leggauss(16)` bit for bit. `panel_rule` composes it over equal panels of
[-delta, delta]: the multiplier takes it one node block at a time, the
direct oracle and the cutoff's integral whole.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = ["GL16_NODES", "GL16_WEIGHTS", "gauss_legendre", "panel_rule"]

# the 16-point rule's nodes x > 0, ascending, with their weights; the rule
# is symmetric about 0
_GL16_POSITIVE = (
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
)
# Newton stops once no node moves by more than this: converging
# quadratically, the next step is at round-off
_NEWTON_STEP = 1e-10
_MAX_ITERATIONS = 20

GL16_NODES = np.array([-x for x, _ in reversed(_GL16_POSITIVE)]
                      + [x for x, _ in _GL16_POSITIVE])
GL16_WEIGHTS = np.array([w for _, w in reversed(_GL16_POSITIVE)]
                        + [w for _, w in _GL16_POSITIVE])
GL16_NODES.flags.writeable = GL16_WEIGHTS.flags.writeable = False


def panel_rule(panels, delta, lo=0, hi=None):
    """Nodes lo ... hi - 1 (all by default) of the composite 16-point rule
    on `panels` equal panels of [-delta, delta]: the nodes s and weights w,
    node j being Gauss node j % 16 of panel j // 16.

    Only the edges of the panels that the nodes fall in are built, bit for
    bit those of np.linspace(-delta, delta, panels + 1), so a block of
    nodes holds no array that grows with the panel count, and the blocks of
    a rule give its nodes and weights to the last bit.
    """
    size = GL16_NODES.size
    panel, node = np.divmod(np.arange(lo, panels * size if hi is None else hi),
                            size)
    first = _edges(0, 1, panels, delta)
    half = (first[1] - first[0]) / 2
    edges = _edges(panel[0], panel[-1] + 1, panels, delta)
    mid = edges[:-1] + edges[1:]
    mid /= 2
    return (mid[panel - panel[0]] + half * GL16_NODES[node],
            GL16_WEIGHTS[node] * half)


def _edges(first, last, panels, delta):
    """Edges first ... last of `panels` equal panels on [-delta, delta], bit
    for bit np.linspace(-delta, delta, panels + 1)[first:last + 1]: edge i
    is i * (2 delta / panels) - delta, and the last edge is delta."""
    edges = np.arange(first, last + 1, dtype=float) * (2 * delta / panels)
    edges -= delta
    if last == panels:
        edges[-1] = delta
    return edges


def _legendre(m, x):
    """P_m(x) and P_{m-1}(x) by the three-term recurrence."""
    prev, cur = np.ones_like(x), x.copy()
    for k in range(1, m):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return cur, prev


def gauss_legendre(m):
    """The m-point Gauss-Legendre rule on [-1, 1]: nodes ascending and
    weights, as numpy's `leggauss(m)` orders them.

    Only the nodes x > 0 are solved for, from Tricomi's guesses
    (1 - (m - 1)/(8 m^3)) cos(pi (k - 1/4)/(m + 1/2)), k = 1 ... m // 2, by
    Newton's method with P'_m(x) = m (P_{m-1}(x) - x P_m(x)) / (1 - x^2);
    the rest are their mirror images, and x = 0 for odd m. The weight
    2 / ((1 - x^2) P'_m(x)^2) is taken at the last Newton iterate x and
    carried to the root x - dx to first order, by the factor
    1 + 2 x dx / (1 - x^2) (at a root, P'' = 2 x P' / (1 - x^2)): near
    +-1 the weights are small, and a node's last bit moves them most.
    Every array has at most m entries.
    """
    if m < 1:
        raise DomainError(f"a Gauss-Legendre rule needs m >= 1 nodes, got {m}")
    k = np.arange(1, m // 2 + 1)
    x = (1 - (m - 1) / (8 * m ** 3)) * np.cos(np.pi * (k - 0.25) / (m + 0.5))
    if m % 2:
        x = np.append(x, 0.0)
    for _ in range(_MAX_ITERATIONS):
        dx = _newton(m, x)[0]
        x -= dx
        if np.abs(dx).max() <= _NEWTON_STEP:
            break
    else:
        raise ConvergenceError(
            f"Gauss-Legendre nodes not converged in {_MAX_ITERATIONS} steps (m = {m})")
    dx, dp, one_minus_x2 = _newton(m, x)
    w = 2 / (one_minus_x2 * dp * dp) * (1 + 2 * x * dx / one_minus_x2)
    x -= dx
    h = m // 2
    return (np.concatenate((-x[:h], x[h:], x[:h][::-1])),
            np.concatenate((w[:h], w[h:], w[:h][::-1])))


def _newton(m, x):
    """At each x: the Newton step P_m(x) / P'_m(x), P'_m(x), and 1 - x^2."""
    p, q = _legendre(m, x)
    one_minus_x2 = (1 - x) * (1 + x)
    dp = m * (q - x * p) / one_minus_x2
    return p / dp, dp, one_minus_x2
