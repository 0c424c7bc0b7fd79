import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from curveavg import (ConfigError, CounterexampleSpec, RunConfig, build_f,
                      enforce_memory_cap, estimate_field_bytes, parse_config,
                      parse_memory_size, run_cell, windowed_lattice,
                      with_overrides)
from curveavg.config import _piece_boxes, chart_from, cutoff_from

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
# per step. At n = 4 and n = 5 the lattice window holds 2.1e6 and 6.7e7
# points around a support box of 3.2e3 and 9.0e3: no stage may hold
# anything of window size.
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
    # the gate rounds each piece's box inward to the lattice; every index
    # of the piece's support ball must still lie inside it
    for text, lams in GATE_CASES:
        cfg = parse_config(text)
        for lam in lams:
            spec = CounterexampleSpec(lam=lam, chart=chart_from(cfg),
                                      cutoff=cutoff_from(cfg), rho=cfg.rho,
                                      c0=cfg.c0)
            window = windowed_lattice(spec, points_per_radius=cfg.points_per_radius)
            f = build_f(spec, window)
            lo, hi = _piece_boxes(spec, window)
            assert len(f.support) == len(lo)
            for ball, low, high in zip(f.support, lo, hi):
                k = np.stack(np.unravel_index(ball.flat, window.dims), axis=1)
                k += np.asarray(window.k0)
                assert len(k) and np.all(k >= low) and np.all(k <= high), (
                    cfg.n, lam, ball.nu)


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
