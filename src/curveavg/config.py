"""Run configuration: sectioned key-value text, validated in one pass.

The format is INI (configparser) with sections [curve], [construction],
[grid], [experiment], [output]. A `RunConfig` checks its own values however
it is built. Validation is aggregating: every unknown section and key (with
a nearest-name suggestion) and every range violation is reported together,
unless a value fails to parse. The memory gate runs up front: a cell whose
estimate exceeds the cap, or whose ball does not fit its box, stops the run
before any work starts. The estimate counts each cell's support as
`windowed_lattice` enumerates it for `build_f`, and no more. CSL_MEMORY_CAP
overrides the configured cap.

The curve is perturbed exactly when ``perturb<i>`` keys are present; ``[curve]
kind`` may only restate that. ``policy``, ``oversample``, ``window`` and
``snapshots`` accept only ``windowed``, ``3``, ``short`` and ``off``, and store
nothing.
"""

from __future__ import annotations

import os
from configparser import ConfigParser, Error as ParserError
from dataclasses import dataclass, fields as dc_fields, replace
from math import isfinite

from .averaging import TimeWindow, norm_peak_bytes, pair_peak_bytes
from .bumps import CutoffSpec
from .cone import ConeChart
from .curves import CurveSpec
from .errors import ConfigError, GeometryError
from .fields import CounterexampleSpec, windowed_lattice
from .multiplier import quadrature_peak_bytes

__all__ = ["RunConfig", "CellPlan", "parse_config", "parse_memory_size",
           "cutoff_from", "chart_from", "cell_plan", "estimate_field_bytes"]

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

    def __post_init__(self):
        if problems := _range_violations(self):
            raise ConfigError(problems)

    def echo(self):
        """Plain-dict dump of the resolved configuration (for manifests/reports)."""
        values = ((f.name, getattr(self, f.name)) for f in dc_fields(self))
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values}


def parse_memory_size(text):
    """'8GiB', '512 MiB', '1073741824' -> bytes; ValueError for text that is
    not a finite size ('inf', 'nan', '1e400')."""
    s, mult = str(text).strip(), 1
    for suffix, scale in (("gib", _GIB), ("mib", 1 << 20), ("kib", 1 << 10), ("b", 1)):
        if s.lower().endswith(suffix):
            s, mult = s[:-len(suffix)].strip(), scale
            break
    size = float(s) * mult
    if not isfinite(size):
        raise ValueError(f"not a finite size: {text!r}")
    return int(size)


def _floats(text):
    return tuple(float(v) for v in str(text).replace(",", " ").split())


def _perturb(key, text):
    """perturb<i> = 'c_1 c_2 ...' -> (i, coefficients), all finite."""
    try:
        comp, coeffs = int(key[len("perturb"):]), _floats(text)
    except ValueError:
        raise ValueError("expected perturb<component> = coefficient list") from None
    if not all(map(isfinite, coeffs)):
        raise ValueError(f"coefficients must be finite, got {text!r}")
    return comp, coeffs


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
    """The message of every value rule that cfg breaks."""
    unknown = [c for c in cfg.checks if c not in _KNOWN_CHECKS]
    floor = "floor" in cfg.checks
    outside = [c for c, _ in cfg.perturbation if not 1 <= c <= cfg.n]
    rules = [
        (2 <= cfg.n <= 6, f"n must lie in 2..6, got {cfg.n}"),
        (0.0 < cfg.rho <= 1.0, f"rho must lie in (0, 1], got {cfg.rho}"),
        (0.0 < cfg.c0 <= 1.0, f"c0 must lie in (0, 1], got {cfg.c0}"),
        (0.0 < cfg.delta <= 1.0, f"delta must lie in (0, 1], got {cfg.delta}"),
        (0.0 < cfg.aperture < 2.0, f"aperture must lie in (0, 2), got {cfg.aperture}"),
        (cfg.points_per_radius >= 2,
         f"points_per_radius must be >= 2, got {cfg.points_per_radius}"),
        (cfg.memory_cap >= 1 << 20,
         f"memory cap below 1 MiB is unusable, got {cfg.memory_cap}"),
        (len(cfg.lambdas) >= 1, "no lambda left to run: lambdas is empty"),
        (all(v >= 4 for v in cfg.lambdas),
         f"lambdas must all be >= 4, got {list(cfg.lambdas)}"),
        (all(isfinite(v) for v in cfg.lambdas),
         f"lambdas must be finite, got {list(cfg.lambdas)}"),
        (len(set(cfg.lambdas)) == len(cfg.lambdas),
         f"lambdas must be distinct, got {list(cfg.lambdas)}"),
        (all(v >= 2 and v % 2 == 0 for v in cfg.ps),
         f"every p must be an even integer >= 2, got {list(cfg.ps)}"),
        (cfg.time_nodes >= 5, f"time_nodes must be >= 5, got {cfg.time_nodes}"),
        (0.0 < cfg.epsilon <= 1.0,
         f"epsilon must lie in (0, 1], got {cfg.epsilon}"),
        (not unknown,
         f"unknown checks {unknown}; valid: {', '.join(_KNOWN_CHECKS)}"),
        (cfg.piece_floor >= 0, f"piece_floor must be >= 0, got {cfg.piece_floor}"),
        (not floor or cfg.piece_floor > 0,
         "the floor check needs piece_floor > 0"),
        (floor or cfg.piece_floor <= 0,
         f"piece_floor = {cfg.piece_floor} is read only by the floor check; "
         "add floor to checks"),
        (cfg.jobs >= 1, f"jobs must be >= 1, got {cfg.jobs}"),
        (not outside, f"perturbed components {outside} outside 1..{cfg.n}"),
        (all(isfinite(c) for _, coeffs in cfg.perturbation for c in coeffs),
         "perturbation coefficients must be finite, got "
         f"{list(cfg.perturbation)}"),
    ]
    return [msg for ok, msg in rules if not ok]


def _did_you_mean(word, names, quote):
    """', did you mean <the closest of names>?' for a misspelt word, quoted
    by `quote`, or ''. difflib is imported here, on the error path alone."""
    import difflib
    hint = difflib.get_close_matches(word, names, n=1)
    return f", did you mean {quote % hint[0]}?" if hint else ""


def parse_config(text):
    """Parse sectioned key-value text into a RunConfig.

    Raises ConfigError carrying *all* problems: unknown sections/keys (with
    nearest-name suggestions) and every range violation the RunConfig finds,
    unless a value fails to parse (its key would be checked at its default);
    or, for text that is not sectioned key-value text (no section header, a
    duplicate key or section), the parser's one complaint. Values are taken
    literally: '%' interpolates nothing.
    """
    parser = ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except ParserError as exc:
        raise ConfigError([f"malformed config text: {exc}"]) from None
    problems, values, unparsed, perturbed = [], {}, False, False
    for section in parser.sections():
        if section not in _SCHEMA:
            problems.append(f"unknown section [{section}]"
                            + _did_you_mean(section, _SCHEMA, "[%s]"))
            continue
        schema = _SCHEMA[section]
        for key, raw in parser.items(section):
            perturb = section == "curve" and key.startswith("perturb")
            perturbed |= perturb
            pinned = _PINNED.get((section, key))
            if key not in schema and not pinned and not perturb:
                names = list(schema) + [k for s, k in _PINNED if s == section]
                problems.append(f"unknown key '{key}' in [{section}]"
                                + _did_you_mean(key, names, "'%s'"))
                continue
            conv = (lambda s: _perturb(key, s)) if perturb else (
                pinned[0] if pinned else schema[key][1])
            try:
                value = conv(raw)
            except ValueError as exc:
                problems.append(f"[{section}] {key}: {exc}")
                unparsed = True
                continue
            if perturb:
                values.setdefault("perturbation", []).append(value)
            elif not pinned:
                values[schema[key][0]] = value
            elif value != pinned[1]:
                problems.append(pinned[2].format(raw))

    # the curve is perturbed exactly when perturb<i> keys are present
    if "perturbation" in values:
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
            unparsed = True

    try:
        cfg = None if unparsed else RunConfig(**values)
    except ConfigError as exc:
        problems += exc.violations
    if problems:
        raise ConfigError(problems)
    return cfg


def chart_from(cfg):
    """The cone chart of the configured curve: the moment curve, or its
    perturbation when cfg.perturbation is set (`chart.curve`)."""
    curve = (CurveSpec.perturbed_moment(cfg.n, dict(cfg.perturbation))
             if cfg.perturbation else CurveSpec.moment(cfg.n))
    return ConeChart(curve=curve, aperture=cfg.aperture)


def cutoff_from(cfg):
    return CutoffSpec(delta=cfg.delta)


@dataclass(frozen=True)
class CellPlan:
    """Every choice a run makes for its cell at one lambda.

    `spec` is the construction: its chart carries the curve, its cutoff is
    chi. `ps` are the measured exponents with 2 added, for the L^2
    diagnostics, in increasing order. `short` is the time window
    [1, 1 + lambda^{-1/n}] on cfg.time_nodes nodes, and `ball_radius` is
    lambda^{-(1 - epsilon)/n}, the concentration ball's radius.
    """

    spec: CounterexampleSpec
    ps: tuple
    short: TimeWindow
    ball_radius: float


def cell_plan(cfg, lam):
    """The `CellPlan` of cfg's cell at lambda; it builds no field."""
    return CellPlan(
        spec=CounterexampleSpec(lam=lam, chart=chart_from(cfg),
                                cutoff=cutoff_from(cfg), rho=cfg.rho, c0=cfg.c0),
        ps=tuple(sorted({2.0, *(float(p) for p in cfg.ps)})),
        short=TimeWindow.short(lam, cfg.n, m=cfg.time_nodes),
        ball_radius=lam ** (-(1.0 - cfg.epsilon) / cfg.n))


def estimate_field_bytes(cfg, lam):
    """Peak memory of one lambda cell: one norm evaluation, the multiplier
    quadrature and the concentration ball's pair table with one share."""
    return sum(_estimate_terms(cfg, lam))


def _estimate_terms(cfg, lam):
    """The norm evaluation's, the quadrature's and the pair table's terms
    of estimate_field_bytes, on the support `build_f` puts f on: the
    `windowed_lattice` of `sweep.cell_field`, with its balls. No
    coefficient, cone phase or quadrature is computed."""
    plan = cell_plan(cfg, lam)
    lattice = windowed_lattice(plan.spec,
                               points_per_radius=cfg.points_per_radius)
    return (norm_peak_bytes(lattice.dims, plan.ps),
            quadrature_peak_bytes(lattice.xi(), plan.short.nodes),
            pair_peak_bytes(lattice, plan.ball_radius))


def enforce_memory_cap(cfg):
    """Reject up front each lambda over the cap or whose ball exceeds its box."""
    over = []
    for lam in cfg.lambdas:
        try:
            est = estimate_field_bytes(cfg, lam)
        except GeometryError as exc:
            over.append(f"lambda={lam:g}: {exc}")
            continue
        if est > cfg.memory_cap:
            over.append(f"lambda={lam:g} needs ~{est / _GIB:.2f} GiB "
                        f"> cap {cfg.memory_cap / _GIB:.2f} GiB")
    if over:
        raise ConfigError(over)


def with_overrides(cfg, jobs=None, outdir=None, lambda_max=None):
    """CLI-level overrides applied after parsing.

    Returns (config, dropped) where dropped says whether --lambda-max removed
    any cells; the sweep widens its slope tolerances in that case, since fits
    over a shorter lambda range carry more preasymptotic bias. The result
    checks itself as every RunConfig does: ConfigError for a jobs count
    below 1 or a --lambda-max below every lambda.
    """
    kept = cfg.lambdas if lambda_max is None else tuple(
        v for v in cfg.lambdas if v <= float(lambda_max))
    out = replace(cfg, lambdas=kept, jobs=cfg.jobs if jobs is None else int(jobs),
                  outdir=cfg.outdir if outdir is None else str(outdir))
    return out, len(out.lambdas) < len(cfg.lambdas)
