import pytest

from curveavg import (ConfigError, RunConfig, enforce_memory_cap,
                      estimate_field_bytes, parse_config, parse_memory_size,
                      with_overrides)

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


def test_defaults():
    cfg = RunConfig()
    assert (cfg.rho, cfg.c0, cfg.delta, cfg.aperture) == (0.25,) * 4
    assert cfg.box_side == 2.0
    assert cfg.grid_policy == "windowed"
    assert cfg.lambdas == (32.0, 64.0, 128.0, 256.0)


def test_parse_full_file():
    cfg = parse_config(GOOD)
    assert cfg.n == 3
    assert cfg.rho == 1.0 and cfg.c0 == 0.7
    assert cfg.lambdas == (32.0, 64.0, 128.0)
    assert cfg.ps == (4.0, 6.0, 8.0)
    assert cfg.checks == ("orthogonality", "slopes", "floor")
    assert cfg.svg is True and cfg.snapshots is False


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


def test_fixed_grid_estimate_hits_cap():
    # n=4 at lambda=256 needs N=256 on the fixed grid: 2 complex copies of
    # 256^4 is 128 GiB, far over the default 8 GiB cap
    cfg = parse_config(GOOD.replace("n = 3", "n = 4")
                           .replace("policy = windowed", "policy = fixed")
                           .replace("lambdas = 32 64 128", "lambdas = 256"))
    est = estimate_field_bytes(cfg, 256.0)
    assert est == 2 * 16 * 256 ** 4
    with pytest.raises(ConfigError, match="GiB > cap"):
        enforce_memory_cap(cfg)


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


def test_seed_key_is_unknown():
    # the construction is deterministic; there is nothing to seed
    with pytest.raises(ConfigError, match="unknown key 'seed'"):
        parse_config(GOOD.replace("epsilon = 0.3", "epsilon = 0.3\nseed = 1"))
