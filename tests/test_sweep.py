import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveavg import (DomainError, RunConfig, critical_exponent,
                      expected_slopes, fit_slope, run_cell, sharpness_sweep)
from curveavg import sweep as sweep_module
from curveavg.averaging import _norm_grid
from curveavg.sweep import _peak_rss_mib, _trend_mostly_decreasing


# --- the critical exponent ----------------------------------------------------

def test_exponent_table_n3():
    # regimes: 1/n up to p=4, the interpolating piece to p=8, then 2/p
    table = {
        2: Fraction(1, 3),
        3: Fraction(1, 3),
        4: Fraction(1, 3),
        5: Fraction(3, 10),
        6: Fraction(5, 18),
        8: Fraction(1, 4),
        10: Fraction(1, 5),
        40: Fraction(1, 20),
    }
    for p, want in table.items():
        got = critical_exponent(p, 3)
        assert got == want and isinstance(got, Fraction)


def test_exponent_table_other_dimensions():
    assert critical_exponent(2, 2) == Fraction(1, 2)
    assert critical_exponent(8, 2) == Fraction(1, 4)
    assert critical_exponent(12, 4) == Fraction(1, 6)
    assert critical_exponent(4, 7) == Fraction(1, 7)


def test_exponent_pieces_agree_at_breakpoints():
    for n in range(2, 7):
        lo = Fraction(1, n)
        assert critical_exponent(4, n) == lo == (Fraction(1, 2) + Fraction(2, 4)) / n
        hi = 4 * (n - 1)
        assert critical_exponent(hi, n) == Fraction(2, hi) \
            == (Fraction(1, 2) + Fraction(2, hi)) / n


def test_exponent_float_and_infinite_p():
    assert critical_exponent(5.0, 3) == pytest.approx(0.3)
    assert isinstance(critical_exponent(5.0, 3), float)
    assert critical_exponent(np.inf, 3) == 0.0


def test_exponent_nonincreasing_in_p():
    sigma = [critical_exponent(p, 3) for p in np.linspace(2.0, 60.0, 200)]
    assert all(a >= b for a, b in zip(sigma, sigma[1:]))


def test_exponent_rejects_bad_arguments():
    with pytest.raises(DomainError):
        critical_exponent(1.5, 3)
    with pytest.raises(DomainError):
        critical_exponent(4, 1)
    with pytest.raises(DomainError):
        critical_exponent(4, 3.0)


def test_expected_slopes_are_consistent():
    for n in (3, 4):
        for p in (4.0, 6.0, 8.0, 12.0):
            s = expected_slopes(p, n)
            assert s["output"] - s["input"] == pytest.approx(s["quotient"], abs=1e-12)
            if 4 <= p <= 4 * (n - 1):   # middle regime: quotient = -sigma(p, n)
                assert s["quotient"] == pytest.approx(-float(critical_exponent(p, n)))


# --- slope fitting --------------------------------------------------------------

def test_fit_recovers_exact_power_law():
    pairs = [(lam, 0.7 * lam ** -0.31) for lam in (8.0, 16.0, 32.0, 64.0)]
    fit = fit_slope(pairs)
    assert set(fit) == {"slope", "intercept", "max_residual"}
    assert fit["slope"] == pytest.approx(-0.31, abs=1e-12)
    assert 2 ** fit["intercept"] == pytest.approx(0.7, rel=1e-12)
    assert fit["max_residual"] < 1e-12


@settings(max_examples=25, deadline=None)
@given(slope=st.floats(-2, 2), scale=st.floats(0.01, 100))
def test_fit_roundtrip_property(slope, scale):
    lams = (4.0, 8.0, 16.0, 32.0, 64.0)
    fit = fit_slope([(lam, scale * lam ** slope) for lam in lams])
    assert fit["slope"] == pytest.approx(slope, abs=1e-9)


def test_fit_needs_three_points():
    with pytest.raises(DomainError, match="need >= 3"):
        fit_slope([(8.0, 1.0), (16.0, 0.5)])


def test_fit_rejects_nonpositive_values():
    with pytest.raises(DomainError):
        fit_slope([(8.0, 1.0), (16.0, 0.0), (32.0, 0.25)])


def test_trend_counter():
    assert _trend_mostly_decreasing([5.0, 4.0, 3.0])
    assert _trend_mostly_decreasing([5.0, 6.0, 4.0, 3.0])      # one inversion ok
    assert not _trend_mostly_decreasing([3.0, 4.0, 5.0])
    assert not _trend_mostly_decreasing([5.0, 6.0, 4.0, 5.0])


# --- a miniature sweep -----------------------------------------------------------

LOOSE = {"input": 1.0, "output": 1.0, "quotient": 1.0}


@pytest.fixture(scope="module")
def tiny_cfg():
    # small lambdas and coarse quadrature: structure checks only, the slopes
    # here are nowhere near asymptotic
    return RunConfig(n=3, rho=1.0, c0=0.7, delta=0.9, aperture=0.95,
                     time_nodes=5,
                     lambdas=(32.0, 45.0, 64.0), ps=(4.0,),
                     checks=("orthogonality", "slopes", "floor"),
                     piece_floor=0.2, epsilon=0.3)


@pytest.fixture(scope="module")
def tiny_report(tiny_cfg):
    return sharpness_sweep(tiny_cfg, slope_tols=LOOSE)


def test_sweep_requires_three_lambdas(tiny_cfg):
    with pytest.raises(DomainError, match="3 lambda"):
        sharpness_sweep(replace(tiny_cfg, lambdas=(32.0, 64.0)))


def test_sweep_cell_structure(tiny_report):
    assert [c["lam"] for c in tiny_report["cells"]] == [32.0, 45.0, 64.0]
    # the cells ran in this process, in lambda order, so their peak RSS is
    # its running maximum, in MiB
    peaks = [c["peak_rss_mib"] for c in tiny_report["cells"]]
    assert 1 < peaks[0] and peaks == sorted(peaks)
    assert peaks[-1] <= _peak_rss_mib() < 1 << 20
    for c in tiny_report["cells"]:
        assert c["nnu"] == 2 * int(0.7 * c["lam"] ** (1 / 3)) + 1
        assert set(c["norms_in"]) == {"2.0", "4.0"}   # 2.0 always measured
        assert len(c["t_nodes_short"]) == 5
        assert len(c["piece_min_by_nu"]) == c["nnu"]
        assert len(c["piece_reference"]) == c["nnu"]
        assert c["piece_min"] == min(c["piece_min_by_nu"]) > 0.2
        assert all(r > 0 for r in c["piece_reference"])
        assert c["runtime_s"] > 0
        assert "out_full" not in c   # the sweep measures the short window only
        quad = c["quadrature"]
        assert set(quad) == {"panels", "nodes", "residual", "steps", "levels",
                             "blocks", "exponentials"}
        assert quad["nodes"] == 16 * quad["panels"]
        assert quad["levels"] >= 2 and quad["exponentials"] > 0
        assert 1 <= quad["blocks"] <= quad["panels"]
        assert quad["steps"] == len(set(np.diff(c["t_nodes_short"])))
        assert 0.0 <= quad["residual"] <= 1e-9
        grid = c["grid"]
        assert set(grid) == {"box", "norm_grid", "support"}
        assert grid["norm_grid"] == list(_norm_grid(
            grid["box"], [float(p) for p in c["norms_in"]]))
        assert c["nnu"] <= grid["support"] <= np.prod(grid["box"])
        timings = c["timings"]
        assert set(timings) == {"field_s", "kernel_s", "quadrature_s",
                                "norms_s"}
        assert all(v > 0 for v in timings.values())
        assert sum(timings.values()) <= c["runtime_s"]


def test_sweep_quotient_is_norm_ratio(tiny_report):
    for c in tiny_report["cells"]:
        assert c["quotient"]["4.0"] == pytest.approx(
            c["out_short"]["4.0"] / c["norms_in"]["4.0"], rel=1e-12)


def test_sweep_orthogonality_defect_is_roundoff(tiny_report):
    assert max(c["defect"] for c in tiny_report["cells"]) <= 1e-12


def test_orthogonality_defect_sees_shared_lattice_points(monkeypatch, tiny_cfg):
    # piece 1 reuses the lattice point of piece 0's largest coefficient:
    # scattered into the box, the two coefficients there hold one value, so
    # the pieces' powers no longer add up to ||A_t f||_2^2
    setup = sweep_module._cell_setup

    def overlapping(cfg, lam):
        curve, cutoff, spec, f = setup(cfg, lam)
        rows = f.support[0].rows
        top = rows.start + int(np.argmax(np.abs(f.coeffs[rows])))
        flat = f.flat.copy()
        flat[f.support[1].rows.start] = flat[top]
        return curve, cutoff, spec, replace(f, flat=flat)

    monkeypatch.setattr(sweep_module, "_cell_setup", overlapping)
    assert run_cell(tiny_cfg, 32.0)["defect"] > 1e-10


def test_sweep_fractions_lie_in_unit_interval(tiny_report):
    for c in tiny_report["cells"]:
        assert len(c["fractions"]) == len(c["t_nodes_short"])
        assert all(0.0 < frac < 1.0 for frac in c["fractions"]), c["lam"]


def test_sweep_checks_pass_with_loose_bands(tiny_report):
    names = [c["name"] for c in tiny_report["checks"]]
    assert "orthogonality" in names and "piece-floor" in names
    assert any(name.startswith("slope/quotient") for name in names)
    assert all(c["passed"] for c in tiny_report["checks"])


def test_sweep_report_serializes(tiny_report):
    assert set(tiny_report) == {"n", "ps", "lambdas", "cells", "slopes",
                                "checks", "quotient_monotone", "config"}
    assert set(tiny_report["slopes"]) == {"4"}
    fits = tiny_report["slopes"]["4"]
    assert list(fits) == ["input", "output", "quotient"]
    want = expected_slopes(4.0, 3)
    for which, fit in fits.items():
        assert set(fit) == {"slope", "intercept", "max_residual", "expected",
                            "gap"}
        assert fit["expected"] == want[which]
        assert fit["gap"] == abs(fit["slope"] - want[which])
    assert fits["quotient"]["slope"] == fit_slope(
        [(c["lam"], c["quotient"]["4.0"])
         for c in tiny_report["cells"]])["slope"]
    # everything plain, and keyed as JSON writes it: the payload is its own
    # round trip
    assert json.loads(json.dumps(tiny_report)) == tiny_report
    assert tiny_report["config"]["lambdas"] == [32.0, 45.0, 64.0]


def test_slope_checks_read_the_fits(tiny_report):
    # each slope check reports its fit's own gap and expected exponent
    fits = tiny_report["slopes"]["4"]
    for check in tiny_report["checks"]:
        if check["name"].startswith("slope/"):
            fit = fits[check["name"].split("/")[1]]
            assert f"gap {fit['gap']:.4f}" in check["detail"]
            assert f"expected {fit['expected']:+.4f}" in check["detail"]


def test_sweep_quotient_decreases_even_here(tiny_report):
    # the smoothing gain shows up well before the slopes settle
    q = [c["quotient"]["4.0"] for c in tiny_report["cells"]]
    assert tiny_report["quotient_monotone"]
    assert q[-1] < q[0]


# --- the concentration check -------------------------------------------------------

# short-window fractions of the pinned acceptance sweep (ends of each window)
PINNED_FRACTIONS = {32.0: [0.0893, 0.0892], 64.0: [0.0909, 0.0900],
                    128.0: [0.1319, 0.1310], 256.0: [0.1488, 0.1479]}


def _concentration_report(monkeypatch, tiny_cfg, fractions):
    """sharpness_sweep's 'concentration' check on cells carrying `fractions`."""
    def cell(cfg, lam):
        norms = {str(p): lam ** -0.3 for p in cfg.ps}
        return {"lam": lam, "norms_in": norms, "out_short": norms,
                "quotient": norms, "fractions": fractions[lam]}

    monkeypatch.setattr(sweep_module, "run_cell", cell)
    cfg = replace(tiny_cfg, lambdas=tuple(fractions), checks=("concentration",))
    return sharpness_sweep(cfg)


def test_concentration_check_passes_on_growing_fractions(monkeypatch, tiny_cfg):
    # every fraction is far below 0.5, the lambda -> infinity share
    report = _concentration_report(monkeypatch, tiny_cfg, PINNED_FRACTIONS)
    assert [c["name"] for c in report["checks"]] == [
        "concentration/lambda=64", "concentration/lambda=128",
        "concentration/lambda=256", "concentration/growth/lambda=128",
        "concentration/growth/lambda=256"]
    assert all(c["passed"] for c in report["checks"])


def test_concentration_check_fails_without_growth(monkeypatch, tiny_cfg):
    stalled = {**PINNED_FRACTIONS, 256.0: [0.1400, 0.1300]}
    report = _concentration_report(monkeypatch, tiny_cfg, stalled)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["concentration/growth/lambda=256"]


def test_concentration_check_fails_on_window_variation(monkeypatch, tiny_cfg):
    spread = {**PINNED_FRACTIONS, 256.0: [0.1479, 0.3100]}
    report = _concentration_report(monkeypatch, tiny_cfg, spread)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["concentration/lambda=256"]
