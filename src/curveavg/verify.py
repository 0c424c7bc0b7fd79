"""Verification: the oracles, the verify commands and the snapshot format.

No sweep runs any of it. `direct_oracle`, `multiplier_sample` and
`derivative_bound_check` check the multiplier that the sweep's slopes rest
on, `critical_exponent` is the exponent they force, and
`nondegeneracy_margin` and `model_class_report` check a curve against the
paper's hypotheses; `save_snapshot` and `load_snapshot` are the snapshot
format's writer and reader; `cone_verify`, `multiplier_verify` and
`synthesize` are the commands of those names, each (cfg, outdir) -> (exit
status, written paths). `cli` imports this module inside those commands
only, and the package's `__init__` not at all, so a sweep never loads it.

A field snapshot is an .npz archive of what a `SpectralField` holds, so its
size follows the support. Its zip entries carry their write time: compare
snapshots through `load_snapshot`, not byte for byte.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import prod
from pathlib import Path

import numpy as np

from .averaging import space_stats
from .cone import moment_gamma_seed
from .curves import DOMAIN, CurveSpec
from .config import cell_plan, chart_from, cutoff_from, enforce_memory_cap
from .errors import DomainError, GridError, QuadratureError, ResolutionError
from .fields import SpectralField
from .legendre import panel_rule
from .multiplier import alpha_n, cone_decay, leading_constant, mu_hat_batch
from .reporting import write_csv
from .sweep import cell_field

__all__ = ["direct_oracle", "MultiplierSample", "multiplier_sample",
           "derivative_bound_check", "critical_exponent",
           "nondegeneracy_margin", "ModelClassReport", "model_class_report",
           "save_snapshot", "load_snapshot", "cone_verify",
           "multiplier_verify", "synthesize"]

# the panel count at which direct_oracle gives up
_ORACLE_MAX_PANELS = 4096
_SNAP_VERSION = 1
_SNAP_KEYS = ("version", "L", "lam", "dims", "k0", "flat", "coeffs")
# points of the uniform grids on I that the curve diagnostics maximize over
_SAMPLES = 2048


def direct_oracle(field, curve, cutoff, t, points, rel_tol=1e-9):
    """Quadrature of s -> f(x - t gamma(s)) chi(s) at each requested point.

    f is evaluated by exact trigonometric summation over the field's support,
    so this is a multiplier-free reference for the spectral average, the
    coefficients times `mu_hat_batch` on the support. Panel count follows
    the oscillation budget of the support's frequencies, with a doubling
    (Richardson) accuracy check on the returned values.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    xis = field.xi()
    coeffs = field.coeffs / field.L ** field.window.n

    def level(panels):
        s, w = panel_rule(panels, cutoff.delta)
        w *= cutoff(s)
        shift = np.exp(-1j * t * (curve.derivative(0, s) @ xis.T))  # (S, modes)
        out = np.empty(len(points), dtype=complex)
        step = max(1, int(4e6 // max(len(xis), 1)))
        for j in range(0, len(points), step):
            basis = np.exp(1j * (points[j:j + step] @ xis.T))  # (P, modes)
            # f(x - t gamma(s)) = basis @ (coeffs * shift_s), summed over s with weights
            out[j:j + step] = (basis @ (coeffs[None, :] * shift).T) @ w
        return out

    sweep = float(np.abs(curve.derivative(1, np.linspace(
        -cutoff.delta, cutoff.delta, 33)) @ xis.T).max()) if len(xis) else 0.0
    panels = min(max(2, int(t * sweep * 2 * cutoff.delta / (2 * np.pi) * 12 / 16) + 1),
                 _ORACLE_MAX_PANELS)
    coarse = level(panels)
    while True:
        fine = level(2 * panels)
        scale = max(float(np.abs(fine).max()), 1e-300)
        if float(np.abs(fine - coarse).max()) <= rel_tol * scale:
            return fine
        panels *= 2
        if panels > _ORACLE_MAX_PANELS:
            raise QuadratureError(
                f"direct oracle not converged at {panels} panels "
                f"({len(xis)} modes, {len(points)} points)")
        coarse = fine


@dataclass(frozen=True)
class MultiplierSample:
    """One multiplier evaluation against its cone asymptotics: reference is
    alpha_n chi(theta(xi)) (t u_n(xi))^{-1/n}, leading carries
    `leading_constant` in place of alpha_n and is what m converges to."""

    xi: tuple
    t: float
    mu_hat: complex
    m: complex
    reference: complex
    deficit: float
    leading: complex
    deficit_leading: float


def multiplier_sample(curve, cutoff, chart, t, xi):
    xi = np.asarray(xi, dtype=float)
    phi, scale = (float(v[0]) for v in cone_decay(chart, cutoff, t, xi))
    mh = complex(mu_hat_batch(curve, cutoff, [t], xi[None])[0, 0])
    m = complex(np.exp(1j * t * phi) * mh)
    reference = complex(alpha_n(curve.n) * scale)
    leading = complex(leading_constant(curve.n) * scale)
    return MultiplierSample(
        xi=tuple(xi), t=float(t), mu_hat=mh, m=m,
        reference=reference, deficit=abs(m - reference),
        leading=leading, deficit_leading=abs(m - leading))


def derivative_bound_check(curve, cutoff, chart, t, xi):
    """Central differences of m_t against lambda^{-(1+|alpha|)/n}, |alpha| <= 2.

    The step is h = lambda^{1/n} / 256 per axis: the difference of alpha
    (its axes) is the signed sum over the corners xi + h sum_k s_k
    e_{alpha_k}, s in {1, -1}^{|alpha|}, over (2h)^{|alpha|}, and every
    corner is evaluated in one quadrature batch. Returns a list of
    (alpha, |d^alpha m_t|, bound, ratio) rows; the interesting assertion — the
    ratios carry no growth trend in lambda — belongs to the caller, since one
    lambda alone cannot show a trend.
    """
    xi = np.asarray(xi, dtype=float)
    lam = float(np.linalg.norm(xi))
    if lam < 64.0:
        raise DomainError(f"|xi| = {lam:.3g} < 64: below the asymptotic window")
    n = curve.n
    h = lam ** (1.0 / n) / 256.0
    if h <= lam * 1e-14:
        raise ResolutionError(f"difference step {h:.3g} underflows at |xi| = {lam:.3g}")

    # a corner's weights merge where it first shows: f(2h) - 2f(0) + f(-2h)
    alphas = [a for k in range(3) for a in combinations_with_replacement(range(n), k)]
    stencils = [{} for _ in alphas]
    for a, weights in zip(alphas, stencils):
        for signs in product((1, -1), repeat=len(a)):
            corner = tuple(sum(s for ax, s in zip(a, signs) if ax == i)
                           for i in range(n))
            weights[corner] = weights.get(corner, 0) + prod(signs)
    corners = sorted(set().union(*stencils))
    pts = xi + h * np.array(corners, dtype=float)
    phis, _ = chart.phi_un_batch(pts)
    at = dict(zip(corners, mu_hat_batch(curve, cutoff, [t], pts)[0]
                  * np.exp(1j * t * phis)))
    rows = []
    for a, weights in zip(alphas, stencils):
        fd = float(abs(sum(w * at[c] for c, w in weights.items()))) / (2 * h) ** len(a)
        bound = lam ** (-(1.0 + len(a)) / n)
        rows.append((tuple(a.count(i) for i in range(n)), fd, bound, fd / bound))
    return rows


def critical_exponent(p, n):
    """The critical smoothing index min{1/n, (1/n)(1/2 + 2/p), 2/p}.

    Piecewise: 1/n on 2 <= p <= 4, (1/n)(1/2 + 2/p) on 4 <= p <= 4(n-1),
    2/p beyond; the pieces agree at both breakpoints. Exact Fractions come
    back for int/Fraction input, floats for float input.
    """
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {n}")
    if not (p == np.inf or p >= 2):
        raise DomainError(f"p must be >= 2, got {p}")
    if isinstance(p, (int, Fraction)) and not isinstance(p, bool):
        p = Fraction(p)
        return min(Fraction(1, n), (Fraction(1, 2) + 2 / p) / n, 2 / p)
    if p == np.inf:
        return 0.0
    return min(1.0 / n, (0.5 + 2.0 / p) / n, 2.0 / p)


def nondegeneracy_margin(curve):
    """min over a uniform grid on I of |det(gamma'(s), ..., gamma^(n)(s))|.

    A strictly positive value on a fine grid certifies the working hypothesis
    that the first n derivatives stay linearly independent. Returns 0.0 for
    degenerate curves; never raises.
    """
    s = np.linspace(*DOMAIN, _SAMPLES)
    mats = np.stack([curve.derivative(j, s) for j in range(1, curve.n + 1)], axis=-2)
    return float(np.abs(np.linalg.det(mats)).min())


@dataclass(frozen=True)
class ModelClassReport:
    delta: float
    anchored: bool
    distance: float
    member: bool


def model_class_report(curve, delta):
    """Membership in the model class around the moment curve.

    Checks the anchoring gamma(0)=0, gamma^(j)(0)=e_j (1<=j<=n) exactly at
    s=0, and the C^{n+1} distance max_{1<=j<=n+1} sup_{[-1,1]} |gamma^(j) -
    gamma_o^(j)| (Euclidean norm per point, maximized over a dense grid).
    Membership requires both anchoring and distance <= delta.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must be in (0,1), got {delta}")
    ref = CurveSpec.moment(curve.n)

    anchored = bool(np.all(curve.derivative(0, 0.0) == 0.0))
    eye = np.eye(curve.n)
    for j in range(1, curve.n + 1):
        anchored &= bool(np.all(curve.derivative(j, 0.0) == eye[j - 1]))

    s = np.linspace(*DOMAIN, _SAMPLES)
    distance = 0.0
    for j in range(1, curve.n + 2):
        gap = curve.derivative(j, s) - ref.derivative(j, s)
        distance = max(distance, float(np.linalg.norm(gap, axis=-1).max()))

    return ModelClassReport(delta=float(delta), anchored=anchored,
                            distance=distance,
                            member=anchored and distance <= delta)


def save_snapshot(path, field, lam):
    """An uncompressed .npz archive: the format version, L, lambda, the
    window's `dims` and `k0`, the support's flat window indices `flat` and
    their coefficients `coeffs`."""
    win = field.window
    with open(path, "wb") as fh:
        np.savez(fh, version=np.int64(_SNAP_VERSION), L=np.float64(win.L),
                 lam=np.float64(lam), dims=np.array(win.dims, dtype=np.int64),
                 k0=np.array(win.k0, dtype=np.int64), flat=field.flat,
                 coeffs=field.coeffs)
    return Path(path)


def load_snapshot(path):
    """Inverse of save_snapshot; returns (SpectralField, lambda). The field
    declares no balls, and its window is its support's box. A file that is
    not a snapshot archive of this format version, whose L or lambda is not
    a finite and positive real scalar, whose window is not an integer
    vector pair, whose coefficients are not numeric, or whose indices leave
    its window, repeat or are none, raises GridError."""
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("a bare .npy array, not an archive")
            with archive:
                a = {key: archive[key] for key in _SNAP_KEYS}
        except (EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
            raise GridError(f"snapshot {path} is not a readable snapshot "
                            f"archive: {exc}") from exc
    if a["version"].tolist() != _SNAP_VERSION:
        raise GridError(f"snapshot {path} has format version "
                        f"{a['version'].tolist()}, not {_SNAP_VERSION}")
    if any(a[key].shape or a[key].dtype.kind not in "iuf"
           for key in ("L", "lam")):
        raise GridError(f"snapshot {path}: L and lambda must be real scalars")
    L, lam = float(a["L"]), float(a["lam"])
    if not (0.0 < L < np.inf and 0.0 < lam < np.inf):
        raise GridError(f"snapshot {path}: L = {L:g} and lambda = {lam:g} "
                        f"must both be finite and positive")
    dims, k0, flat, coeffs = a["dims"], a["k0"], a["flat"], a["coeffs"]
    if (dims.ndim != 1 or k0.shape != dims.shape
            or dims.dtype.kind != "i" or k0.dtype.kind != "i"
            or np.any(dims < 1) or flat.ndim != 1 or flat.dtype.kind != "i"
            or np.any(flat < 0) or np.any(flat >= np.prod(dims))):
        raise GridError(f"snapshot {path}: malformed window, or support "
                        f"indices outside it")
    if coeffs.dtype.kind not in "iufc":
        raise GridError(f"snapshot {path}: coefficients of dtype "
                        f"{coeffs.dtype}, not numeric")
    if len(np.unique(flat)) < len(flat):
        raise GridError(f"snapshot {path}: repeated support indices")
    k = np.stack(np.unravel_index(flat, tuple(dims)), axis=-1) + k0
    return SpectralField.on_lattice(L, k, coeffs), lam


def _tau_max(aperture, n):
    # largest tau with |Gamma(tau)'| components inside the cone, with margin
    t = aperture
    for _ in range(20):
        g = sum(moment_gamma_seed(n, t)[0][:-1] ** 2)
        t = aperture / np.sqrt(g / t ** 2)
    return 0.9 * t


def cone_verify(cfg, outdir):
    """cone.csv: Newton residual, homogeneity and, on the moment curve, the
    closed form's error of theta along 17 rays; status 1 above 1e-12."""
    chart = chart_from(cfg)
    curve, n = chart.curve, cfg.n
    tmax = _tau_max(cfg.aperture, n)
    rows, worst = [], 0.0
    for tau in np.linspace(-tmax, tmax, 17):
        xi = moment_gamma_seed(n, tau)[0]
        theta = chart.solve_theta(xi)
        res = abs(float(curve.derivative(n - 1, theta) @ xi)) / np.linalg.norm(xi)
        closed = "" if cfg.perturbation else abs(theta - (-tau))
        phi1 = chart.phase_phi(xi)
        for scale in (2.0, 4.0):
            hom_theta = abs(chart.solve_theta(scale * xi) - theta)
            hom_phi = abs(chart.phase_phi(scale * xi) - scale * phi1) / (
                abs(scale * phi1) + 1e-30)
            rows.append((float(tau), scale, float(theta), res, hom_theta,
                         hom_phi, closed))
            worst = max(worst, res, hom_theta, hom_phi,
                        closed if closed != "" else 0.0)
    path = write_csv(outdir / "cone.csv",
                     ("tau", "scale", "theta", "theta_residual",
                      "theta_homogeneity", "phi_homogeneity",
                      "closed_form_error"), rows)
    print(f"cone-verify: 17 rays, worst residual {worst:.3e} -> {path}")
    return (0 if worst <= 1e-12 else 1), [path]


def multiplier_verify(cfg, outdir):
    """multiplier.csv: |mu_hat|, its gap to the leading term
    (`MultiplierSample.deficit_leading`) and |mu_hat| (1 + lambda)^{1/n}
    per lambda, t in {1, 1.5, 2} and three cone rays."""
    chart, cutoff = chart_from(cfg), cutoff_from(cfg)
    curve, n = chart.curve, cfg.n
    tmax = _tau_max(cfg.aperture, n)
    taus = (-0.5 * tmax, 0.0, 0.5 * tmax)
    rows = []
    for lam in cfg.lambdas:
        for t in (1.0, 1.5, 2.0):
            for tau in taus:
                direction = moment_gamma_seed(n, tau)[0]
                direction /= np.linalg.norm(direction)
                s = multiplier_sample(curve, cutoff, chart, t,
                                      float(lam) * direction)
                rows.append((float(lam), t,
                             ";".join(f"{v:.9g}" for v in direction),
                             abs(s.mu_hat), s.deficit_leading,
                             abs(s.mu_hat) * (1.0 + lam) ** (1.0 / n)))
    path = write_csv(outdir / "multiplier.csv",
                     ("lambda", "t", "direction", "|mu_hat|",
                      "deficit_leading", "ratio_to_rate"), rows)
    print(f"multiplier-verify: {len(rows)} samples -> {path}")
    return 0, [path]


def synthesize(cfg, outdir):
    """One snapshot per lambda, field_lambda{lambda}.bin, and norms.csv:
    the input norm per lambda and p."""
    enforce_memory_cap(cfg)
    paths, rows = [], []
    for lam in cfg.lambdas:
        plan = cell_plan(cfg, float(lam))
        f = cell_field(cfg, plan)
        norms = space_stats(f, plan.ps)
        rows += [(float(lam), p, norms[p]) for p in plan.ps]
        # an integer lambda by its digits, any other by its shortest
        # round-trip repr: one name per distinct lambda
        name = int(lam) if float(lam).is_integer() else repr(float(lam))
        snap = save_snapshot(outdir / f"field_lambda{name}.bin", f, float(lam))
        paths.append(snap)
        print(f"synthesize: lambda={lam:g} pieces={len(f.support)} "
              f"dims={f.window.dims} -> {snap.name}")
    paths.append(write_csv(outdir / "norms.csv",
                           ("lambda", "p", "input_norm"), rows))
    return 0, paths
