import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import ACCEPTANCE_CONFIG
from curveavg import (ConeChart, ConfigError, RunConfig, cell_field, cell_plan,
                      cell_support, enforce_memory_cap, estimate_field_bytes,
                      mu_hat_batch, parse_config, parse_memory_size,
                      radial_bump, run_cell, windowed_lattice, with_overrides)
from curveavg import config, multiplier
from curveavg.config import _estimate_terms
from curveavg.multiplier import _frequencies

GOOD = """
[curve]
n = 3
kind = moment

[construction]
rho = 1.0
c0 = 0.7
delta = 0.9
aperture = 0.95

[grid]
policy = windowed
points_per_radius = 4
oversample = 3

[experiment]
lambdas = 32 64 128
ps = 4, 6, 8
window = short
time_nodes = 9
epsilon = 0.3
checks = orthogonality slopes floor
piece_floor = 1.0

[output]
directory = out
svg = yes
snapshots = off
"""

# the keys of the benchmark's planar workload (perfbench/workloads/n2.cfg)
PLANAR = """
[curve]
n = 2
kind = moment

[construction]
rho = 0.3
c0 = 0.7
delta = 0.9
aperture = 0.95

[grid]
policy = windowed
points_per_radius = 4
oversample = 3

[experiment]
lambdas = 64 128 256
ps = 4 6 8
time_nodes = 9
epsilon = 0.3
checks = orthogonality
"""


def test_defaults():
    cfg = RunConfig()
    # the pinned acceptance construction: a config without these keys runs
    assert (cfg.rho, cfg.c0, cfg.delta, cfg.aperture) == (1.0, 0.7, 0.9, 0.95)
    assert cfg.perturbation == ()          # the moment curve
    assert cfg.lambdas == (32.0, 64.0, 128.0, 256.0)
    # keys with one legal value, and the curve kind, store nothing
    names = {f.name for f in fields(RunConfig)}
    assert len(names) == 17
    assert not names & {"curve_kind", "grid_policy", "oversample",
                        "window_kind", "snapshots"}


def test_parse_full_file():
    cfg = parse_config(GOOD)
    assert cfg.n == 3
    assert cfg.rho == 1.0 and cfg.c0 == 0.7
    assert cfg.lambdas == (32.0, 64.0, 128.0)
    assert cfg.ps == (4.0, 6.0, 8.0)
    assert cfg.checks == ("orthogonality", "slopes", "floor")
    assert cfg.svg is True and cfg.outdir == "out"


def test_unknown_key_suggests_nearest():
    broken = GOOD.replace("aperture = 0.95", "apertur = 0.95")
    with pytest.raises(ConfigError) as err:
        parse_config(broken)
    assert "did you mean 'aperture'" in str(err.value)


def test_unknown_section_suggests_nearest():
    with pytest.raises(ConfigError) as err:
        parse_config(GOOD + "\n[experimnet]\nfoo = 1\n")
    assert "did you mean [experiment]" in str(err.value)


def test_violations_are_aggregated():
    broken = (GOOD.replace("rho = 1.0", "rho = 3.0")
                  .replace("epsilon = 0.3", "epsilon = 0.0")
                  .replace("lambdas = 32 64 128", "lambdas = 2 64 128"))
    with pytest.raises(ConfigError) as err:
        parse_config(broken)
    msg = str(err.value)
    assert "rho" in msg and "epsilon" in msg and ">= 4" in msg


@pytest.mark.parametrize("lambdas", ["4 32 inf", "32 1e400", "nan 64"])
def test_lambdas_must_be_finite(lambdas):
    # an infinite lambda has no lattice (its side would be 0); it is
    # reported with the other violations, before the memory gate runs
    broken = (GOOD.replace("rho = 1.0", "rho = 3.0")
                  .replace("lambdas = 32 64 128", f"lambdas = {lambdas}"))
    with pytest.raises(ConfigError) as err:
        parse_config(broken)
    msg = str(err.value)
    assert "lambdas must be finite" in msg and "rho" in msg


def test_lambdas_must_be_distinct():
    # a repeated lambda would run its cell twice and weigh it twice in
    # every slope fit; it is reported with the other violations
    for lambdas in ("4 4 4", "32 64 32.0"):
        with pytest.raises(ConfigError, match="lambdas must be distinct"):
            parse_config(GOOD.replace("lambdas = 32 64 128",
                                      f"lambdas = {lambdas}"))
    broken = (GOOD.replace("rho = 1.0", "rho = 3.0")
                  .replace("lambdas = 32 64 128", "lambdas = 32 2 32"))
    with pytest.raises(ConfigError) as err:
        parse_config(broken)
    msg = str(err.value)
    assert "rho" in msg and ">= 4" in msg and "distinct" in msg


def test_ps_must_be_distinct():
    # a repeated p would write its rows and fit its slopes twice
    for ps in ("4 4", "4 6 4.0"):
        with pytest.raises(ConfigError, match="ps must be distinct"):
            parse_config(GOOD.replace("ps = 4, 6, 8", f"ps = {ps}"))


def test_perturbation_keys():
    cfg = parse_config(GOOD.replace("kind = moment",
                                    "kind = perturbed-moment\nperturb2 = 0 0 0 0.1"))
    assert cfg.perturbation == ((2, (0.0, 0.0, 0.0, 0.1)),)


@pytest.mark.parametrize("kind, perturb, error", [
    ("moment", "", None),
    ("perturbed-moment", "\nperturb1 = 0 0 0 0 0.02", None),
    ("moment", "\nperturb1 = 0 0 0 0 0.02", "must be perturbed-moment when"),
    ("perturbed-moment", "", "must be moment when perturb<i> keys are not"),
    ("helix", "", "must be moment when perturb<i> keys are not"),
])
def test_curve_kind_must_agree_with_perturb_keys(kind, perturb, error):
    # the curve is perturbed exactly when perturb<i> keys are present; kind
    # may only restate that
    text = GOOD.replace("kind = moment", f"kind = {kind}{perturb}")
    if error:
        with pytest.raises(ConfigError, match=error):
            parse_config(text)
    else:
        assert bool(parse_config(text).perturbation) == bool(perturb)


# the value rules a RunConfig checks however it is built: (the fields that
# break one, what its message says)
BROKEN_VALUES = [
    (dict(checks=("orthogonalty", "slopes")), r"unknown checks \['orthogonalty'\]"),
    (dict(piece_floor=5.0), "add floor to checks"),
    (dict(jobs=0), "jobs must be >= 1, got 0"),
    (dict(perturbation=((4, (0.0, 0.1)),)), r"perturbed components \[4\] outside 1..3"),
    (dict(perturbation=((1, (0.0, 1.0)), (1, (0.0, 2.0)))),
     r"perturbed components \[1\] given more than once"),
    (dict(perturbation=((1, (float("nan"),)),)),
     "perturbation coefficients must be finite"),
    (dict(lambdas=()), "lambdas is empty"),
]


@pytest.mark.parametrize("build", ["constructor", "replace"])
@pytest.mark.parametrize("changes, rule", BROKEN_VALUES,
                         ids=["misspelt-check", "orphan-floor", "jobs",
                              "component", "repeated-component",
                              "nan-coefficient", "no-lambda"])
def test_every_construction_checks_the_values(build, changes, rule):
    # a config built in code obeys the rules a parsed one does: a misspelt
    # check would otherwise run no check, an orphan piece_floor read nothing
    with pytest.raises(ConfigError, match=rule) as err:
        RunConfig(**changes) if build == "constructor" else replace(
            RunConfig(), **changes)
    assert len(err.value.violations) == 1


def test_range_violations_come_with_unknown_keys():
    # no value failed to parse, so the range rules run beside the key check
    broken = (GOOD.replace("rho = 1.0", "rho = 5")
                  .replace("epsilon = 0.3", "epsilon = 0.3\nseed = 1"))
    with pytest.raises(ConfigError) as err:
        parse_config(broken)
    assert err.value.violations == ["unknown key 'seed' in [experiment]",
                                    "rho must lie in (0, 1], got 5.0"]


def test_a_value_that_fails_to_parse_is_reported_alone():
    # unparsed, piece_floor would be checked at its default 0 against the
    # floor check; only the text problems are reported
    broken = (GOOD.replace("piece_floor = 1.0", "piece_floor = high")
                  .replace("epsilon = 0.3", "epsilon = 0.3\nseed = 1"))
    with pytest.raises(ConfigError) as err:
        parse_config(broken)
    assert err.value.violations == [
        "unknown key 'seed' in [experiment]",
        "[experiment] piece_floor: could not convert string to float: 'high'"]


def test_perturbed_component_range_checked():
    with pytest.raises(ConfigError, match="outside 1..3"):
        parse_config(GOOD.replace("kind = moment",
                                  "kind = perturbed-moment\nperturb5 = 0.1"))


def test_perturbed_component_given_once():
    # perturb1 and perturb01 both name component 1: the curve could carry
    # only one of them, while the config echo would carry both
    with pytest.raises(ConfigError,
                       match=r"perturbed components \[1\] given more than once"):
        parse_config(GOOD.replace(
            "kind = moment", "kind = perturbed-moment\n"
            "perturb1 = 0 0 0 0 0.02\nperturb01 = 0 0 0 0 0.5"))


@pytest.mark.parametrize("text, complaint", [
    ("n = 3\n", "no section headers"),
    ("[curve]\nn = 3\nn = 4\n", "option 'n' in section 'curve' already exists"),
    ("[curve]\nn = 3\n[curve]\nkind = moment\n",
     "section 'curve' already exists"),
], ids=["no-header", "duplicate-key", "duplicate-section"])
def test_malformed_text_is_a_config_error(text, complaint):
    # text the INI parser itself rejects is a configuration error, not a
    # parser traceback
    with pytest.raises(ConfigError, match="malformed config text") as err:
        parse_config(text)
    assert complaint in str(err.value)


def test_percent_is_taken_literally():
    # no value interpolates: '%' is an ordinary character
    cfg = parse_config(GOOD.replace("directory = out", "directory = out%1"))
    assert cfg.outdir == "out%1"


def test_memory_sizes():
    assert parse_memory_size("8GiB") == 8 << 30
    assert parse_memory_size("512 MiB") == 512 << 20
    assert parse_memory_size("1073741824") == 1 << 30
    assert parse_memory_size("2.5 KiB") == 2560


@pytest.mark.parametrize("size", ["inf", "1e400", "nan", "-inf MiB",
                                  "1e300 GiB"])
def test_memory_size_must_be_finite(size, monkeypatch):
    # int(float('inf')) would escape as an OverflowError
    with pytest.raises(ValueError, match="not a finite size"):
        parse_memory_size(size)
    text = GOOD.replace("oversample = 3", f"oversample = 3\nmemory_cap = {size}")
    with pytest.raises(ConfigError, match=r"\[grid\] memory_cap: not a finite"):
        parse_config(text)
    monkeypatch.setenv("CSL_MEMORY_CAP", size)
    with pytest.raises(ConfigError, match="CSL_MEMORY_CAP"):
        parse_config(GOOD)


@pytest.mark.parametrize("key, coeffs", [("perturb1", "nan"),
                                         ("perturb2", "0 0 1e400"),
                                         ("perturb3", "0 -inf")])
def test_perturbation_must_be_finite(key, coeffs):
    # caught at parse time, not as a quadrature or Newton failure later
    text = GOOD.replace("kind = moment",
                        f"kind = perturbed-moment\n{key} = {coeffs}")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.violations == [
        f"[curve] {key}: coefficients must be finite, got {coeffs!r}"]


def test_env_cap_override(monkeypatch):
    monkeypatch.setenv("CSL_MEMORY_CAP", "64MiB")
    assert parse_config(GOOD).memory_cap == 64 << 20
    monkeypatch.setenv("CSL_MEMORY_CAP", "a lot")
    with pytest.raises(ConfigError, match="CSL_MEMORY_CAP"):
        parse_config(GOOD)


def test_windowed_estimate_hits_cap():
    # the pinned construction at lambda = 256 needs more than 1 MiB
    cfg = parse_config(GOOD.replace("lambdas = 32 64 128", "lambdas = 256")
                           .replace("oversample = 3",
                                    "oversample = 3\nmemory_cap = 1 MiB"))
    assert estimate_field_bytes(cfg, 256.0) > 1 << 20
    with pytest.raises(ConfigError, match="GiB > cap"):
        enforce_memory_cap(cfg)


# The cells on which the memory gate is checked: a small n = 3 config, and
# the planar config of the benchmark's quadrature-bound workload, whose peak
# is the quadrature's (lambda = 256 is its largest cell, 177 distinct
# coordinates on axis 0); with 17 time nodes at these lambdas the short
# window has 3 distinct float steps, and the quadrature keeps one table set
# per step; and coarse n = 4 and n = 5 cells.
_SMALL = GOOD.replace("rho = 1.0", "rho = 0.5").replace(
    "points_per_radius = 4", "points_per_radius = 3")
_NODES17 = ("time_nodes = 9", "time_nodes = 17")
_COARSE = GOOD.replace("points_per_radius = 4", "points_per_radius = 2"
                       ).replace("ps = 4, 6, 8", "ps = 4 6")
GATE_CASES = ((_SMALL, (4.0, 32.0)), (PLANAR, (64.0, 128.0, 256.0)),
              (_SMALL.replace(*_NODES17), (16.0,)),
              (PLANAR.replace(*_NODES17), (8.0,)),
              (_COARSE.replace("\nn = 3\n", "\nn = 4\n"), (32.0,)),
              (_COARSE.replace("\nn = 3\n", "\nn = 5\n"), (16.0,)))


def test_gate_box_holds_the_support():
    # each piece's rows are the lattice points of its box, its center +- r
    # rounded inward, where its bump is nonzero, in C order, carrying the
    # bump's value: a box one index wider on each side finds no other; and
    # the gate's lattice is the support `build_f` puts f on, ball for ball
    for text, lams in GATE_CASES:
        cfg = parse_config(text)
        for lam in lams:
            plan = cell_plan(cfg, lam)
            spec, f = plan.spec, cell_field(plan)
            lattice = windowed_lattice(spec, points_per_radius=cfg.points_per_radius)
            assert lattice.window == f.window
            assert np.array_equal(lattice.flat, f.flat)
            assert len(f.support) == len(lattice.support) == len(
                spec.nu_values())
            dk, k0 = lattice.window.dk, np.asarray(f.window.k0)
            for i, (ball, built) in enumerate(zip(lattice.support, f.support)):
                assert (ball.center, ball.rows) == (built.center, built.rows)
                center = np.asarray(ball.center)
                low = np.ceil((center - spec.radius) / dk).astype(int)
                high = np.floor((center + spec.radius) / dk).astype(int)
                axes = [np.arange(a - 1, b + 2) for a, b in zip(low, high)]
                k = np.stack(np.meshgrid(*axes, indexing="ij"),
                             axis=-1).reshape(-1, cfg.n)
                bump = radial_bump(
                    np.linalg.norm(k * dk - center, axis=1) / spec.radius)
                k = k[bump > 0]
                assert len(k) and np.all(k >= low) and np.all(k <= high), (
                    cfg.n, lam, i)
                rows = np.stack(np.unravel_index(built.flat, f.dims),
                                axis=1) + k0
                assert np.array_equal(rows, k), (cfg.n, lam, i)
                assert np.array_equal(lattice.coeffs[ball.rows],
                                      bump[bump > 0]), (cfg.n, lam, i)


def test_gate_support_is_the_built_support(monkeypatch):
    # the gate charges the quadrature on the built field's frequencies,
    # index for index, the norms on its support box and the pair table on
    # its balls, on the gate's cells and the pinned lambda = 256 and 1024
    charged = {}
    quad, norm = config.quadrature_peak_bytes, config.norm_peak_bytes
    pairs = config.pair_peak_bytes

    def recorded_quad(xis, ts):
        charged["xis"] = xis
        return quad(xis, ts)

    def recorded_norm(span, ps):
        charged["span"] = span
        return norm(span, ps)

    def recorded_pairs(field, radius):
        charged["balls"] = [ball.flat for ball in field.support]
        return pairs(field, radius)

    monkeypatch.setattr(config, "quadrature_peak_bytes", recorded_quad)
    monkeypatch.setattr(config, "norm_peak_bytes", recorded_norm)
    monkeypatch.setattr(config, "pair_peak_bytes", recorded_pairs)
    for text, lams in GATE_CASES + ((ACCEPTANCE_CONFIG, (256.0, 1024.0)),):
        cfg = parse_config(text)
        for lam in lams:
            plan = cell_plan(cfg, lam)
            _estimate_terms(plan)
            f = cell_field(plan)
            assert np.array_equal(charged["xis"], f.xi()), (cfg.n, lam)
            assert charged["span"] == f.window.dims, (cfg.n, lam)
            assert len(charged["balls"]) == len(f.support) > 1
            assert all(np.array_equal(a, b.flat)
                       for a, b in zip(charged["balls"], f.support))
            gate, built = (_frequencies(xis) for xis in (charged["xis"], f.xi()))
            assert [len(c) for c in gate.coords] == [len(c) for c in built.coords]
            assert len(gate.lead[0]) == len(built.lead[0]), (cfg.n, lam)


def test_gate_computes_no_phase_and_no_quadrature(monkeypatch):
    # the gate's premise: it counts the support without its coefficients,
    # so neither the cone phase nor the multiplier runs
    def refuse(*args, **kwargs):
        raise AssertionError("the memory gate ran a phase or a quadrature")

    monkeypatch.setattr(ConeChart, "phi_un_batch", refuse)
    monkeypatch.setattr(multiplier, "mu_hat_batch", refuse)
    enforce_memory_cap(parse_config(ACCEPTANCE_CONFIG))


def test_estimate_bounds_measured_peak():
    # the gate's estimate, made without building a field or running the
    # quadrature, bounds the peak of the whole cell on the real fields
    for text, lams in GATE_CASES:
        cfg = parse_config(text)
        for lam in lams:
            tracemalloc.start()
            try:
                cell = run_cell(cfg, lam)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert cfg.time_nodes == 9 or cell["quadrature"]["steps"] == 3
            assert estimate_field_bytes(cfg, lam) >= peak, (cfg.n, lam,
                                                            cfg.time_nodes)


# (config, lambda, final panels, ladder levels, node blocks of the final level)
QUADRATURE_CASES = (
    # n2 at lambda = 256: 3072 nodes walked in 18 blocks
    (PLANAR, 256.0, 192, 2, 18),
    # n2 at lambda = 128, two float steps and so three table sets: 1536
    # nodes walked in 9 blocks of 177
    (PLANAR, 128.0, 96, 2, 9),
    # n3 at lambda = 4 (the keys of perfbench/workloads/n3.cfg): the ladder
    # runs 3 -> 6 -> 12 -> 24 panels
    (_SMALL.replace("time_nodes = 9", "time_nodes = 5"), 4.0, 24, 4, 2),
)


@pytest.mark.parametrize("text, lam, panels, levels, blocks", QUADRATURE_CASES,
                         ids=["n2-lambda256", "n2-lambda128", "n3-lambda4"])
def test_quadrature_estimate_bounds_its_peak(text, lam, panels, levels, blocks):
    # the gate's quadrature term bounds the peak of mu_hat_batch however
    # far the ladder runs: only the nodes' own arrays grow with it
    cfg = parse_config(text)
    cell = cell_support(cell_plan(cfg, lam))
    spec, xis = cell.plan.spec, cell.field.xi()
    stats = {}
    tracemalloc.start()
    try:
        mu = mu_hat_batch(spec.chart.curve, spec.cutoff, cell.plan.short.nodes,
                          xis, stats=stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(mu, cell.mu) and stats == cell.quadrature
    assert (stats["panels"], stats["levels"], stats["blocks"]) == (
        panels, levels, blocks)
    assert _estimate_terms(cell.plan)[1] >= peak


def test_quadrature_bound_is_independent_of_the_ladder(monkeypatch):
    # a ladder started 8 times higher on the n2 lambda = 256 cell runs 8
    # times the panels, and its peak still lies under the bound, which
    # reads only the frequencies and the time nodes
    cfg = parse_config(PLANAR)
    cell = cell_support(cell_plan(cfg, 256.0))
    spec, xis, ts = cell.plan.spec, cell.field.xi(), cell.plan.short.nodes
    start = multiplier._panel_start
    monkeypatch.setattr(multiplier, "_panel_start",
                        lambda *args: 8 * start(*args))
    stats = {}
    tracemalloc.start()
    try:
        mu_hat_batch(spec.chart.curve, spec.cutoff, ts, xis, stats=stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats["panels"] == 8 * cell.quadrature["panels"]
    assert peak <= multiplier.quadrature_peak_bytes(xis, ts)


def test_windowed_estimate_is_modest():
    cfg = parse_config(GOOD)
    assert estimate_field_bytes(cfg, 128.0) < 1 << 30
    enforce_memory_cap(cfg)   # should be silent


def test_overrides_and_drop_flag():
    cfg = parse_config(GOOD)
    out, dropped = with_overrides(cfg, jobs=4, outdir="elsewhere")
    assert out.jobs == 4 and out.outdir == "elsewhere" and not dropped
    out, dropped = with_overrides(cfg, lambda_max=64)
    assert out.lambdas == (32.0, 64.0) and dropped
    out, dropped = with_overrides(cfg, lambda_max=1024)
    assert out.lambdas == cfg.lambdas and not dropped
    # the final config is checked: no lambda left is an error
    with pytest.raises(ConfigError, match="lambdas is empty"):
        with_overrides(cfg, jobs=2, lambda_max=16)


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_override_is_validated(jobs):
    # --jobs is checked as the config key is, not applied after the check
    with pytest.raises(ConfigError, match=f"jobs must be >= 1, got {jobs}"):
        with_overrides(parse_config(GOOD), jobs=jobs)


def test_full_window_is_rejected():
    # the sweep measures the short window [1, 1 + lambda^(-1/n)] only
    with pytest.raises(ConfigError, match="window must be short"):
        parse_config(GOOD.replace("window = short", "window = full"))


def test_sweep_snapshots_are_rejected():
    # the sweep writes no field snapshots; `curveavg synthesize` does
    with pytest.raises(ConfigError, match="curveavg synthesize"):
        parse_config(GOOD.replace("snapshots = off", "snapshots = on"))
    with pytest.raises(ConfigError, match="not a boolean"):
        parse_config(GOOD.replace("snapshots = off", "snapshots = maybe"))
    with pytest.raises(ConfigError, match="did you mean 'snapshots'"):
        parse_config(GOOD.replace("snapshots = off", "snapshot = off"))


def test_oversample_is_pinned():
    # the concentration fraction is exact: no oversampled grid to size
    assert parse_config(GOOD) == parse_config(GOOD.replace("oversample = 3\n", ""))
    with pytest.raises(ConfigError, match="oversample must be 3, got '2'"):
        parse_config(GOOD.replace("oversample = 3", "oversample = 2"))


def test_floor_check_needs_a_floor():
    # with piece_floor = 0 the floor check would compare against nothing
    with pytest.raises(ConfigError, match="floor check needs piece_floor > 0"):
        parse_config(GOOD.replace("piece_floor = 1.0", "piece_floor = 0"))


def test_floor_needs_the_floor_check():
    # piece_floor is read by the floor check only
    with pytest.raises(ConfigError, match="add floor to checks"):
        parse_config(GOOD.replace("checks = orthogonality slopes floor",
                                  "checks = orthogonality slopes"))


def test_seed_key_is_unknown():
    # the construction is deterministic; there is nothing to seed
    with pytest.raises(ConfigError, match="unknown key 'seed'"):
        parse_config(GOOD.replace("epsilon = 0.3", "epsilon = 0.3\nseed = 1"))


def test_fixed_policy_is_rejected():
    # the windowed lattice is the only grid policy
    with pytest.raises(ConfigError, match="grid policy must be windowed"):
        parse_config(GOOD.replace("policy = windowed", "policy = fixed"))
    with pytest.raises(ConfigError, match="unknown key 'box_side'"):
        parse_config(GOOD.replace("policy = windowed",
                                  "policy = windowed\nbox_side = 2.0"))


@pytest.mark.parametrize("ps", ["4 inf", "3 4", "4 5.5"])
def test_ps_must_be_even_integers(ps):
    # norms are computed exactly for even integer p only
    with pytest.raises(ConfigError, match="every p must be an even integer"):
        parse_config(GOOD.replace("ps = 4, 6, 8", f"ps = {ps}"))
