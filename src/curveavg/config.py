"""Run configuration: sectioned key-value text, validated in one pass.

The format is INI (configparser) with sections [curve], [construction],
[grid], [experiment], [output]. Validation is aggregating: every unknown key
(with a nearest-name suggestion) and every range violation is collected and
reported together, not just the first. The memory gate runs up front: a run
whose per-field estimate exceeds the cap is rejected before any work starts.
The CSL_MEMORY_CAP environment variable overrides the configured cap.

The curve is perturbed exactly when ``perturb<i>`` keys are present; ``[curve]
kind`` may only restate that. ``policy``, ``oversample``, ``window`` and
``snapshots`` accept only ``windowed``, ``3``, ``short`` and ``off``, and store
nothing.
"""

from __future__ import annotations

import difflib
import os
from configparser import ConfigParser
from dataclasses import dataclass, field, fields as dc_fields, replace
from itertools import product

import numpy as np

from .averaging import TimeWindow, norm_peak_bytes
from .bumps import CutoffSpec
from .cone import ConeChart
from .curves import CurveSpec
from .errors import ConfigError
from .fields import (CounterexampleSpec, frequency_centers, piece_boxes,
                     windowed_lattice)
from .multiplier import (_GL_NODES, _distinct_steps, _panel_start,
                         quadrature_peak_bytes)

__all__ = ["RunConfig", "parse_config", "parse_memory_size", "curve_from",
           "cutoff_from", "chart_from", "ball_radius_from",
           "estimate_field_bytes"]

_GIB = 1 << 30
_KNOWN_CHECKS = ("orthogonality", "slopes", "floor", "concentration")


@dataclass(frozen=True)
class RunConfig:
    n: int = 3
    perturbation: tuple = ()          # ((component, (coeffs...)), ...); () = moment
    rho: float = 0.25
    c0: float = 0.25
    delta: float = 0.25
    aperture: float = 0.25
    points_per_radius: int = 4
    memory_cap: int = 8 * _GIB
    lambdas: tuple = (32.0, 64.0, 128.0, 256.0)
    ps: tuple = (4.0, 6.0, 8.0)
    time_nodes: int = 9
    epsilon: float = 0.3
    checks: tuple = ("orthogonality", "slopes")
    piece_floor: float = 0.0          # > 0 exactly when 'floor' is in checks
    outdir: str = "out"
    svg: bool = True
    jobs: int = 1

    def echo(self):
        """Plain-dict dump of the resolved configuration (for manifests/reports)."""
        out = {}
        for f in dc_fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


def parse_memory_size(text):
    """'8GiB', '512 MiB', '1073741824' -> bytes."""
    s = str(text).strip()
    for suffix, mult in (("gib", _GIB), ("mib", 1 << 20), ("kib", 1 << 10), ("b", 1)):
        if s.lower().endswith(suffix):
            return int(float(s[:-len(suffix)].strip()) * mult)
    return int(float(s))


def _floats(text):
    return tuple(float(v) for v in str(text).replace(",", " ").split())


def _bool(text):
    s = str(text).strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# section -> key -> (config attr, parser)
_SCHEMA = {
    "curve": {
        "n": ("n", int),
        "kind": ("kind", str),        # checked against perturb<i>, not stored
    },
    "construction": {
        "rho": ("rho", float),
        "c0": ("c0", float),
        "delta": ("delta", float),
        "aperture": ("aperture", float),
    },
    "grid": {
        "points_per_radius": ("points_per_radius", int),
        "memory_cap": ("memory_cap", parse_memory_size),
    },
    "experiment": {
        "lambdas": ("lambdas", _floats),
        "ps": ("ps", _floats),
        "time_nodes": ("time_nodes", int),
        "epsilon": ("epsilon", float),
        "checks": ("checks", lambda s: tuple(str(s).replace(",", " ").split())),
        "piece_floor": ("piece_floor", float),
    },
    "output": {
        "directory": ("outdir", str),
        "svg": ("svg", _bool),
    },
}

# (section, key) -> (parser, the one legal value, message for any other)
_PINNED = {
    ("grid", "policy"): (
        str, "windowed", "grid policy must be windowed, got {!r}"),
    ("experiment", "window"): (
        str, "short", "window must be short (the sweep measures "
                      "[1, 1 + lambda^(-1/n)] only), got {!r}"),
    ("grid", "oversample"): (
        int, 3, "oversample must be 3, got {!r}: the concentration fraction "
                "is exact and samples no oversampled grid"),
    ("output", "snapshots"): (
        _bool, False, "snapshots must be off, got {!r}: the sweep writes no "
                      "field snapshots; `curveavg synthesize` writes them"),
}


def _range_violations(cfg):
    bad = []

    def check(cond, msg):
        if not cond:
            bad.append(msg)

    check(2 <= cfg.n <= 6, f"n must lie in 2..6, got {cfg.n}")
    check(0.0 < cfg.rho <= 1.0, f"rho must lie in (0, 1], got {cfg.rho}")
    check(0.0 < cfg.c0 <= 1.0, f"c0 must lie in (0, 1], got {cfg.c0}")
    check(0.0 < cfg.delta <= 1.0, f"delta must lie in (0, 1], got {cfg.delta}")
    check(0.0 < cfg.aperture < 2.0, f"aperture must lie in (0, 2), got {cfg.aperture}")
    check(cfg.points_per_radius >= 2,
          f"points_per_radius must be >= 2, got {cfg.points_per_radius}")
    check(cfg.memory_cap >= 1 << 20,
          f"memory cap below 1 MiB is unusable, got {cfg.memory_cap}")
    check(len(cfg.lambdas) >= 1 and all(v >= 4 for v in cfg.lambdas),
          f"lambdas must all be >= 4, got {list(cfg.lambdas)}")
    dyadic = all(float(v).is_integer() and (int(v) & (int(v) - 1)) == 0
                 for v in cfg.lambdas)
    check(dyadic, f"lambdas must be dyadic (powers of two), got {list(cfg.lambdas)}")
    check(all(v >= 2 and v % 2 == 0 for v in cfg.ps),
          f"every p must be an even integer >= 2, got {list(cfg.ps)}")
    check(cfg.time_nodes >= 5, f"time_nodes must be >= 5, got {cfg.time_nodes}")
    check(0.0 < cfg.epsilon <= 1.0,
          f"epsilon must lie in (0, 1], got {cfg.epsilon}")
    unknown = [c for c in cfg.checks if c not in _KNOWN_CHECKS]
    check(not unknown,
          f"unknown checks {unknown}; valid: {', '.join(_KNOWN_CHECKS)}")
    check(cfg.piece_floor >= 0, f"piece_floor must be >= 0, got {cfg.piece_floor}")
    floor = "floor" in cfg.checks
    check(not floor or cfg.piece_floor > 0,
          "the floor check needs piece_floor > 0")
    check(floor or cfg.piece_floor <= 0,
          f"piece_floor = {cfg.piece_floor} is read only by the floor check; "
          "add floor to checks")
    check(cfg.jobs >= 1, f"jobs must be >= 1, got {cfg.jobs}")
    return bad


def parse_config(text):
    """Parse and fully validate sectioned key-value text into a RunConfig.

    Raises ConfigError carrying *all* problems: unknown sections/keys (with
    nearest-name suggestions) and every range violation.
    """
    parser = ConfigParser()
    parser.read_string(text)
    problems = []
    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            hint = difflib.get_close_matches(section, _SCHEMA.keys(), n=1)
            problems.append(f"unknown section [{section}]"
                            + (f", did you mean [{hint[0]}]?" if hint else ""))
            continue
        schema = _SCHEMA[section]
        for key, raw in parser.items(section):
            if section == "curve" and key.startswith("perturb"):
                try:
                    comp = int(key[len("perturb"):])
                    values.setdefault("perturbation", []).append(
                        (comp, _floats(raw)))
                except ValueError:
                    problems.append(f"[curve] {key}: expected perturb<component>"
                                    " = coefficient list")
                continue
            pinned = _PINNED.get((section, key))
            if key not in schema and not pinned:
                names = list(schema) + [k for s, k in _PINNED if s == section]
                hint = difflib.get_close_matches(key, names, n=1)
                problems.append(f"unknown key '{key}' in [{section}]"
                                + (f", did you mean '{hint[0]}'?" if hint else ""))
                continue
            conv = pinned[0] if pinned else schema[key][1]
            try:
                value = conv(raw)
            except (ValueError, ConfigError) as exc:
                problems.append(f"[{section}] {key}: {exc}")
                continue
            if not pinned:
                values[schema[key][0]] = value
            elif value != pinned[1]:
                problems.append(pinned[2].format(raw))

    # the curve is perturbed exactly when perturb<i> keys are present
    perturbed = "perturbation" in values
    if perturbed:
        values["perturbation"] = tuple(sorted(values["perturbation"]))
    derived = "perturbed-moment" if perturbed else "moment"
    kind = values.pop("kind", derived)
    if kind != derived:
        problems.append(f"curve kind must be {derived} when perturb<i> keys "
                        f"are {'' if perturbed else 'not '}given, got {kind!r}")

    env_cap = os.environ.get("CSL_MEMORY_CAP")
    if env_cap:
        try:
            values["memory_cap"] = parse_memory_size(env_cap)
        except ValueError:
            problems.append(f"CSL_MEMORY_CAP: cannot parse {env_cap!r}")

    cfg = RunConfig(**values) if not problems else None
    if cfg is not None:
        problems.extend(_range_violations(cfg))
        bad_comp = [c for c, _ in cfg.perturbation if not 1 <= c <= cfg.n]
        if bad_comp:
            problems.append(f"perturbed components {bad_comp} outside 1..{cfg.n}")
    if problems:
        raise ConfigError(problems)
    return cfg


def curve_from(cfg):
    """The moment curve, or its perturbation when cfg.perturbation is set."""
    if not cfg.perturbation:
        return CurveSpec.moment(cfg.n)
    return CurveSpec.perturbed_moment(cfg.n, dict(cfg.perturbation))


def cutoff_from(cfg):
    return CutoffSpec(delta=cfg.delta)


def chart_from(cfg):
    return ConeChart(curve=curve_from(cfg), aperture=cfg.aperture)


def ball_radius_from(cfg, lam):
    """Radius lambda^{-(1 - epsilon)/n} of the concentration ball."""
    return lam ** (-(1.0 - cfg.epsilon) / cfg.n)


def estimate_field_bytes(cfg, lam):
    """Peak memory of one lambda cell: the multiplier quadrature plus one
    norm evaluation with the ball and its kernel."""
    return sum(_estimate_terms(cfg, lam))


def _estimate_terms(cfg, lam):
    """The norm evaluation's and the quadrature's terms of
    estimate_field_bytes.

    The support box lies in the `windowed_lattice` block, the span of the
    pieces' boxes (`piece_boxes`, the ones `build_f` enumerates): each piece
    lies in its own, which bounds the support size, its distinct leading
    (n-1)-tuples and, per axis, its distinct coordinates, by the span and by
    the sum of the pieces' extents. The quadrature's node count is that of
    the first fine level of its panel ladder started at the block's corners:
    the phase rate <gamma'(s), xi> is linear in xi, so its maximum over the
    block sits at a corner. The ladder may run further; only the nodes' own
    arrays grow with it, as the quadrature walks its nodes in blocks of
    bounded size. No field is built and no quadrature runs.
    """
    spec = CounterexampleSpec(lam=lam, chart=chart_from(cfg),
                              cutoff=cutoff_from(cfg), rho=cfg.rho, c0=cfg.c0)
    window = windowed_lattice(spec, points_per_radius=cfg.points_per_radius)
    span, k0 = window.dims, np.asarray(window.k0)
    norm = norm_peak_bytes(span, (2.0,) + cfg.ps,
                           ball_radius_from(cfg, lam) * window.dk)

    lo, hi = piece_boxes(frequency_centers(spec), spec.radius, window.dk)
    piece = hi - lo + 1
    corners = np.array(list(product(*zip(k0, k0 + span - 1))))
    ts = TimeWindow.short(lam, cfg.n, m=cfg.time_nodes).nodes
    panels = _panel_start(spec.chart.curve, spec.cutoff, ts, corners * window.dk)
    quad = quadrature_peak_bytes(
        nodes=2 * panels * _GL_NODES.size,
        coords=tuple(int(v) for v in np.minimum(span, piece.sum(axis=0))),
        leading=int(piece[:, :-1].prod(axis=1).sum()),
        modes=int(piece.prod(axis=1).sum()), times=cfg.time_nodes,
        steps=_distinct_steps(ts))
    return norm, quad


def enforce_memory_cap(cfg):
    """Reject up front any lambda whose field estimate exceeds the cap."""
    over = []
    for lam in cfg.lambdas:
        est = estimate_field_bytes(cfg, lam)
        if est > cfg.memory_cap:
            over.append(f"lambda={lam:g} needs ~{est / _GIB:.2f} GiB "
                        f"> cap {cfg.memory_cap / _GIB:.2f} GiB")
    if over:
        raise ConfigError(over)


def with_overrides(cfg, jobs=None, outdir=None, lambda_max=None):
    """CLI-level overrides applied after parsing.

    Returns (config, dropped) where dropped says whether --lambda-max removed
    any cells; the sweep widens its slope tolerances in that case, since fits
    over a shorter dyadic range carry more preasymptotic bias. A jobs count
    is checked as the config key is: ConfigError below 1.
    """
    out, dropped = cfg, False
    if jobs is not None:
        out = replace(out, jobs=int(jobs))
        problems = _range_violations(out)
        if problems:
            raise ConfigError(problems)
    if outdir is not None:
        out = replace(out, outdir=str(outdir))
    if lambda_max is not None:
        kept = tuple(v for v in out.lambdas if v <= float(lambda_max))
        dropped = len(kept) < len(out.lambdas)
        out = replace(out, lambdas=kept)
    return out, dropped
