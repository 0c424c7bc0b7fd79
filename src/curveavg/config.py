"""Run configuration: sectioned key-value text, validated in one pass.

The format is INI (configparser) with sections [curve], [construction],
[grid], [experiment], [output]. Validation is aggregating: every unknown key
(with a nearest-name suggestion) and every range violation is collected and
reported together, not just the first. The memory gate runs up front: a run
whose per-field estimate exceeds the cap is rejected before any work starts.
The CSL_MEMORY_CAP environment variable overrides the configured cap.
"""

from __future__ import annotations

import difflib
import os
from configparser import ConfigParser
from dataclasses import dataclass, field, fields as dc_fields, replace

import numpy as np

from .bumps import CutoffSpec
from .cone import ConeChart
from .curves import CurveSpec
from .errors import ConfigError

__all__ = ["RunConfig", "parse_config", "parse_memory_size",
           "curve_from", "cutoff_from", "chart_from", "estimate_field_bytes"]

_GIB = 1 << 30
_KNOWN_CHECKS = ("orthogonality", "slopes", "floor", "concentration")


@dataclass(frozen=True)
class RunConfig:
    n: int = 3
    curve_kind: str = "moment"
    perturbation: tuple = ()          # ((component, (coeffs...)), ...)
    rho: float = 0.25
    c0: float = 0.25
    delta: float = 0.25
    aperture: float = 0.25
    grid_policy: str = "windowed"
    box_side: float = 2.0             # fixed policy only
    points_per_radius: int = 4
    oversample: int = 3
    memory_cap: int = 8 * _GIB
    lambdas: tuple = (32.0, 64.0, 128.0, 256.0)
    ps: tuple = (4.0, 6.0, 8.0)
    window_kind: str = "short"       # the sweep measures [1, 1 + lambda^{-1/n}] only
    time_nodes: int = 9
    epsilon: float = 0.3
    checks: tuple = ("orthogonality", "slopes")
    piece_floor: float = 0.0          # asserted by the 'floor' check when > 0
    outdir: str = "out"
    svg: bool = True
    snapshots: bool = False
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
        "kind": ("curve_kind", str),
    },
    "construction": {
        "rho": ("rho", float),
        "c0": ("c0", float),
        "delta": ("delta", float),
        "aperture": ("aperture", float),
    },
    "grid": {
        "policy": ("grid_policy", str),
        "box_side": ("box_side", float),
        "points_per_radius": ("points_per_radius", int),
        "oversample": ("oversample", int),
        "memory_cap": ("memory_cap", parse_memory_size),
    },
    "experiment": {
        "lambdas": ("lambdas", _floats),
        "ps": ("ps", _floats),
        "window": ("window_kind", str),
        "time_nodes": ("time_nodes", int),
        "epsilon": ("epsilon", float),
        "checks": ("checks", lambda s: tuple(str(s).replace(",", " ").split())),
        "piece_floor": ("piece_floor", float),
    },
    "output": {
        "directory": ("outdir", str),
        "svg": ("svg", _bool),
        "snapshots": ("snapshots", _bool),
    },
}


def _range_violations(cfg):
    bad = []

    def check(cond, msg):
        if not cond:
            bad.append(msg)

    check(2 <= cfg.n <= 6, f"n must lie in 2..6, got {cfg.n}")
    check(cfg.curve_kind in ("moment", "perturbed-moment"),
          f"curve kind must be moment or perturbed-moment, got {cfg.curve_kind!r}")
    check(0.0 < cfg.rho <= 1.0, f"rho must lie in (0, 1], got {cfg.rho}")
    check(0.0 < cfg.c0 <= 1.0, f"c0 must lie in (0, 1], got {cfg.c0}")
    check(0.0 < cfg.delta <= 1.0, f"delta must lie in (0, 1], got {cfg.delta}")
    check(0.0 < cfg.aperture < 2.0, f"aperture must lie in (0, 2), got {cfg.aperture}")
    check(cfg.grid_policy in ("fixed", "windowed"),
          f"grid policy must be fixed or windowed, got {cfg.grid_policy!r}")
    check(cfg.box_side > 0, f"box side must be positive, got {cfg.box_side}")
    check(cfg.points_per_radius >= 2,
          f"points_per_radius must be >= 2, got {cfg.points_per_radius}")
    check(1 <= cfg.oversample <= 8,
          f"oversample must lie in 1..8, got {cfg.oversample}")
    check(cfg.memory_cap >= 1 << 20,
          f"memory cap below 1 MiB is unusable, got {cfg.memory_cap}")
    check(len(cfg.lambdas) >= 1 and all(v >= 4 for v in cfg.lambdas),
          f"lambdas must all be >= 4, got {list(cfg.lambdas)}")
    dyadic = all(float(v).is_integer() and (int(v) & (int(v) - 1)) == 0
                 for v in cfg.lambdas)
    check(dyadic, f"lambdas must be dyadic (powers of two), got {list(cfg.lambdas)}")
    check(all(v >= 1 for v in cfg.ps), f"every p must be >= 1, got {list(cfg.ps)}")
    check(cfg.window_kind == "short",
          f"window must be short (the sweep measures [1, 1 + lambda^(-1/n)] "
          f"only), got {cfg.window_kind!r}")
    check(cfg.time_nodes >= 5, f"time_nodes must be >= 5, got {cfg.time_nodes}")
    check(0.0 < cfg.epsilon <= 1.0,
          f"epsilon must lie in (0, 1], got {cfg.epsilon}")
    unknown = [c for c in cfg.checks if c not in _KNOWN_CHECKS]
    check(not unknown,
          f"unknown checks {unknown}; valid: {', '.join(_KNOWN_CHECKS)}")
    check(cfg.piece_floor >= 0, f"piece_floor must be >= 0, got {cfg.piece_floor}")
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
            if key not in schema:
                hint = difflib.get_close_matches(key, schema.keys(), n=1)
                problems.append(f"unknown key '{key}' in [{section}]"
                                + (f", did you mean '{hint[0]}'?" if hint else ""))
                continue
            attr, conv = schema[key]
            try:
                values[attr] = conv(raw)
            except (ValueError, ConfigError) as exc:
                problems.append(f"[{section}] {key}: {exc}")

    if "perturbation" in values:
        values["perturbation"] = tuple(sorted(values["perturbation"]))
        values.setdefault("curve_kind", "perturbed-moment")

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
    if cfg.curve_kind == "moment" and not cfg.perturbation:
        return CurveSpec.moment(cfg.n)
    return CurveSpec.perturbed_moment(cfg.n, dict(cfg.perturbation))


def cutoff_from(cfg):
    return CutoffSpec(delta=cfg.delta)


def chart_from(cfg):
    return ConeChart(curve=curve_from(cfg), aperture=cfg.aperture)


def estimate_field_bytes(cfg, lam):
    """Per-field memory estimate for the configured grid policy at one lambda.

    Fixed policy: 2 * 16 * N^n with N from the Nyquist rule. Windowed policy:
    the streaming-norm peak for the actual window the construction would use.
    """
    from .averaging import norm_peak_bytes  # local: avoid import cycle
    from .fields import CounterexampleSpec, GridSpec, windowed_lattice

    if cfg.grid_policy == "fixed":
        N = GridSpec.for_lambda(cfg.n, lam, rho=cfg.rho, L=cfg.box_side).N
        return 2 * 16 * N ** cfg.n
    spec = CounterexampleSpec(lam=lam, chart=chart_from(cfg),
                              cutoff=cutoff_from(cfg), rho=cfg.rho, c0=cfg.c0)
    window = windowed_lattice(spec, points_per_radius=cfg.points_per_radius)
    return norm_peak_bytes(window.dims, oversample=cfg.oversample)


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
    over a shorter dyadic range carry more preasymptotic bias.
    """
    out, dropped = cfg, False
    if jobs is not None:
        out = replace(out, jobs=int(jobs))
    if outdir is not None:
        out = replace(out, outdir=str(outdir))
    if lambda_max is not None:
        kept = tuple(v for v in out.lambdas if v <= float(lambda_max))
        dropped = len(kept) < len(out.lambdas)
        out = replace(out, lambdas=kept)
    return out, dropped
