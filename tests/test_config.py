import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from curveavg import (ConfigError, CounterexampleSpec, RunConfig, TimeWindow,
                      build_f, enforce_memory_cap, estimate_field_bytes,
                      frequency_centers, mu_hat_batch, parse_config,
                      parse_memory_size, piece_boxes, radial_bump, run_cell,
                      windowed_lattice, with_overrides)
from curveavg import config
from curveavg.config import _estimate_terms, chart_from, cutoff_from
from curveavg.sweep import _cell_setup

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
    assert (cfg.rho, cfg.c0, cfg.delta, cfg.aperture) == (0.25,) * 4
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
                  .replace("lambdas = 32 64 128", "lambdas = 32 48 128"))
    with pytest.raises(ConfigError) as err:
        parse_config(broken)
    msg = str(err.value)
    assert "rho" in msg and "epsilon" in msg and "dyadic" in msg


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


def test_perturbed_component_range_checked():
    with pytest.raises(ConfigError, match="outside 1..3"):
        parse_config(GOOD.replace("kind = moment",
                                  "kind = perturbed-moment\nperturb5 = 0.1"))


def test_memory_sizes():
    assert parse_memory_size("8GiB") == 8 << 30
    assert parse_memory_size("512 MiB") == 512 << 20
    assert parse_memory_size("1073741824") == 1 << 30
    assert parse_memory_size("2.5 KiB") == 2560


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
    # each piece's box, rounded inward to the lattice, holds every lattice
    # point where the piece's bump is nonzero: a box one index wider on
    # each side finds no other, and `build_f` keeps exactly those points;
    # the gate's block, the span of those boxes, holds the field's window
    for text, lams in GATE_CASES:
        cfg = parse_config(text)
        for lam in lams:
            spec = CounterexampleSpec(lam=lam, chart=chart_from(cfg),
                                      cutoff=cutoff_from(cfg), rho=cfg.rho,
                                      c0=cfg.c0)
            window = windowed_lattice(spec, points_per_radius=cfg.points_per_radius)
            f = build_f(spec, window)
            lo, hi = piece_boxes(frequency_centers(spec), spec.radius, window.dk)
            assert len(f.support) == len(lo)
            assert window.k0 == tuple(lo.min(axis=0))
            assert window.dims == tuple(hi.max(axis=0) - lo.min(axis=0) + 1)
            k0 = np.asarray(f.window.k0)
            assert np.all(k0 >= window.k0) and np.all(
                k0 + f.window.dims <= np.add(window.k0, window.dims))
            for ball, low, high in zip(f.support, lo, hi):
                axes = [np.arange(a - 1, b + 2) for a, b in zip(low, high)]
                k = np.stack(np.meshgrid(*axes, indexing="ij"),
                             axis=-1).reshape(-1, cfg.n)
                dist = np.linalg.norm(k * window.dk - ball.center, axis=1)
                k = k[radial_bump(dist / spec.radius) > 0]
                assert len(k) and np.all(k >= low) and np.all(k <= high), (
                    cfg.n, lam, ball.nu)
                built = np.stack(np.unravel_index(ball.flat, f.window.dims),
                                 axis=1) + k0
                assert np.array_equal(built, k), (cfg.n, lam, ball.nu)


def test_gate_coordinates_bound_the_built_field(monkeypatch):
    # per axis, the distinct coordinates the gate charges the quadrature
    # (the least of the span and the pieces' summed extents) hold those of
    # the built field's support, on the gate's cells and the pinned
    # lambda = 256 and 1024
    charged = []
    quad = config.quadrature_peak_bytes

    def recorded(**terms):
        charged.append(terms["coords"])
        return quad(**terms)

    monkeypatch.setattr(config, "quadrature_peak_bytes", recorded)
    for text, lams in GATE_CASES + ((GOOD, (256.0, 1024.0)),):
        cfg = parse_config(text)
        for lam in lams:
            _estimate_terms(cfg, lam)
            f = _cell_setup(cfg, lam)[-1]
            built = [len(np.unique(k)) for k in
                     np.unravel_index(f.flat, f.window.dims)]
            assert all(c >= b for c, b in zip(charged[-1], built)), (
                cfg.n, lam, charged[-1], built)


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
    # n3 at lambda = 4 (the keys of perfbench/workloads/n3.cfg): the ladder
    # runs 3 -> 6 -> 12 -> 24 panels, while the gate assumes the 8 of the
    # first fine level of a ladder started at the support box's corners
    (_SMALL.replace("time_nodes = 9", "time_nodes = 5"), 4.0, 24, 4, 2),
)


@pytest.mark.parametrize("text, lam, panels, levels, blocks", QUADRATURE_CASES,
                         ids=["n2-lambda256", "n3-lambda4"])
def test_quadrature_estimate_bounds_its_peak(text, lam, panels, levels, blocks):
    # the gate's quadrature term bounds the peak of mu_hat_batch however
    # far the ladder runs: only the nodes' own arrays grow with it
    cfg = parse_config(text)
    curve, cutoff, _, f = _cell_setup(cfg, lam)
    ts = TimeWindow.short(lam, cfg.n, m=cfg.time_nodes).nodes
    stats = {}
    tracemalloc.start()
    try:
        mu_hat_batch(curve, cutoff, ts, f.xi(), stats=stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (stats["panels"], stats["levels"], stats["blocks"]) == (
        panels, levels, blocks)
    assert _estimate_terms(cfg, lam)[1] >= peak


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
