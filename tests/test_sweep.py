import contextlib
import json
import os
import signal
import time
from dataclasses import replace
from fractions import Fraction
from math import factorial, sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveavg import (CurveAvgError, DomainError, RunConfig, alpha_n,
                      cell_field, cell_plan, cell_support, expected_slopes,
                      fit_slope, lp_norm_spacetime, measure, parse_config,
                      sharpness_sweep, space_stats)
from curveavg import sweep as sweep_module
from curveavg.averaging import norm_grid
from curveavg.verify import critical_exponent, multiplier_sample
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


def test_exponent_result_types():
    # exact for Python ints and Fractions; numpy integers, floats and inf
    # take the float path, as numpy scalars do everywhere else
    assert type(critical_exponent(6, 3)) is Fraction
    assert type(critical_exponent(Fraction(13, 2), 3)) is Fraction
    assert critical_exponent(Fraction(13, 2), 3) == Fraction(7, 26)
    assert type(critical_exponent(np.int64(6), 3)) is np.float64
    assert type(critical_exponent(6.0, 3)) is float
    assert type(critical_exponent(np.inf, 3)) is float
    assert critical_exponent(np.int64(6), 3) == critical_exponent(6.0, 3)


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


def test_exponent_rejects_nan_p():
    # p must be >= 2 or infinite: a NaN p is neither, not the p <= 4 piece
    with pytest.raises(DomainError, match="p must be >= 2, got nan"):
        critical_exponent(float("nan"), 3)


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


# log-spaced lambda sets of 3 to 21 points: dyadic, non-dyadic, unevenly
# spaced, and the 2^{k/4} ladder from 32 to 1024
FIT_LAMBDAS = [
    (4.0, 8.0, 16.0),
    (32.0, 45.0, 64.0),
    (4.0, 5.0, 64.0, 1000.0),
    (6.0, 10.0, 12.0, 100.0, 3000.0, 7e4),
    tuple(32.0 * 2 ** (k / 4) for k in range(21)),
]


@pytest.mark.parametrize("lams", FIT_LAMBDAS)
def test_fit_matches_least_squares(lams):
    # the closed form against a rank-2 lstsq on the same logs, with noisy
    # values so that the residuals are not round-off
    rng = np.random.default_rng(len(lams))
    vals = [0.7 * lam ** -0.31 * np.exp(rng.normal(0.0, 0.2)) for lam in lams]
    x, y = np.log2(lams), np.log2(vals)
    design = np.stack([x, np.ones_like(x)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = np.abs(design @ np.array([slope, intercept]) - y).max()
    fit = fit_slope(zip(lams, vals))
    assert fit["slope"] == pytest.approx(slope, rel=1e-13)
    assert fit["intercept"] == pytest.approx(intercept, rel=1e-13)
    assert fit["max_residual"] == pytest.approx(resid, rel=0, abs=1e-13)


def test_fit_needs_three_points():
    with pytest.raises(DomainError, match="need >= 3"):
        fit_slope([(8.0, 1.0), (16.0, 0.5)])


@pytest.mark.parametrize("pair", [(16.0, np.nan), (np.nan, 0.5),
                                  (np.inf, 0.5), (16.0, np.inf),
                                  (16.0, -0.5)],
                         ids=["nan-value", "nan-lambda", "infinite-lambda",
                              "infinite-value", "negative-value"])
def test_fit_needs_positive_finite_points(pair):
    # a NaN would pass a guard for non-positive points and fit a NaN slope
    with pytest.raises(DomainError, match="positive finite"):
        fit_slope([(8.0, 1.0), pair, (32.0, 0.25)])


@pytest.mark.parametrize("count", [3, 4])
def test_fit_needs_two_distinct_lambdas(count):
    with pytest.raises(DomainError, match="2 distinct lambdas"):
        fit_slope([(8.0, float(k + 1)) for k in range(count)])


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
        assert grid["norm_grid"] == list(norm_grid(
            grid["box"], [float(p) for p in c["norms_in"]]))
        assert c["nnu"] <= grid["support"] <= np.prod(grid["box"])
        timings = c["timings"]
        assert set(timings) == {"field_s", "kernel_s", "quadrature_s",
                                "norms_s", "share_s"}
        assert all(v > 0 for v in timings.values())
        assert sum(timings.values()) <= c["runtime_s"]


def test_sweep_quotient_is_norm_ratio(tiny_report):
    for c in tiny_report["cells"]:
        assert c["quotient"]["4.0"] == pytest.approx(
            c["out_short"]["4.0"] / c["norms_in"]["4.0"], rel=1e-12)


def test_sweep_orthogonality_defect_is_roundoff(tiny_report):
    assert max(c["defect"] for c in tiny_report["cells"]) <= 1e-12


def test_piece_reference_is_the_leading_term(tiny_cfg, tiny_report):
    # lambda^{1/n} |the multiplier's leading term at t = 1| at each piece's
    # centre: as multiplier_sample finds it there, and written out as
    # |alpha_n| (n!)^{1/n} chi(theta) u_n^{-1/n}
    n = tiny_cfg.n
    for c in tiny_report["cells"]:
        plan = cell_plan(tiny_cfg, c["lam"])
        chart, chi = plan.spec.chart, plan.spec.cutoff
        centers = [b.center for b in cell_field(tiny_cfg, plan).support]
        _, un = chart.phi_un_batch(centers)
        want = (abs(alpha_n(n)) * factorial(n) ** (1 / n)
                * chi(chart.solve_theta_batch(centers)) * (c["lam"] / un) ** (1 / n))
        assert c["piece_reference"] == pytest.approx(want, rel=1e-14)
        for ref, xi in zip(c["piece_reference"], centers):
            s = multiplier_sample(chart.curve, chi, chart, 1.0, xi)
            assert ref == pytest.approx(c["lam"] ** (1 / n) * abs(s.leading),
                                        rel=1e-15)


def test_piece_ratios_rise_toward_the_reference(acceptance_runs):
    # on the pinned sweep the least piece ratio ||A_t f_nu||_2 / ||g_nu||_2,
    # relative to its piece's stationary-phase reference, rises with lambda
    ratios = [min(r / ref for r, ref in zip(c["piece_min_by_nu"],
                                             c["piece_reference"]))
              for c in acceptance_runs["report"]["cells"]]
    assert ratios == pytest.approx([0.862, 0.915, 0.945, 0.970], abs=1e-3)
    assert all(a < b for a, b in zip(ratios, ratios[1:])) and ratios[-1] < 1


def test_orthogonality_defect_sees_shared_lattice_points(tiny_cfg):
    # piece 1 reuses the lattice point of piece 0's largest coefficient:
    # scattered into the box, the two coefficients there hold one value, so
    # the pieces' powers no longer add up to ||A_t f||_2^2
    cell = cell_support(tiny_cfg, 32.0)
    f = cell.field
    rows = f.support[0].rows
    top = rows.start + int(np.argmax(np.abs(f.coeffs[rows])))
    flat = f.flat.copy()
    flat[f.support[1].rows.start] = flat[top]
    shared = replace(cell, field=replace(f, flat=flat))
    assert measure(shared, f.coeffs)["defect"] > 1e-10


def test_measure_is_homogeneous_in_the_vector(tiny_cfg):
    # scaling the coefficients by c scales every norm by |c|; the quotient,
    # the piece ratios, the defect and the fractions are ratios of norms or
    # powers of the same vector, and stay put
    cell = cell_support(tiny_cfg, 32.0)
    rng = np.random.default_rng(11)
    coeffs = cell.field.coeffs * np.exp(
        2j * np.pi * rng.random(len(cell.field.coeffs)))
    c = -1.5 + 2.0j
    base, scaled = measure(cell, coeffs), measure(cell, c * coeffs)
    for key, factor in (("norms_in", abs(c)), ("out_short", abs(c)),
                        ("quotient", 1.0)):
        assert set(scaled[key]) == set(base[key]) == {"2.0", "4.0"}
        for p, v in base[key].items():
            assert scaled[key][p] == pytest.approx(factor * v, rel=1e-12), (
                key, p)
    assert scaled["piece_min"] == pytest.approx(base["piece_min"], rel=1e-12)
    assert scaled["piece_min_by_nu"] == pytest.approx(base["piece_min_by_nu"],
                                                      rel=1e-12)
    assert scaled["fractions"] == pytest.approx(base["fractions"], rel=1e-12)
    assert scaled["defect"] == pytest.approx(base["defect"], abs=1e-12)


def test_measure_matches_a_scalar_recomputation():
    # the n2 lambda = 64 cell: measure's nodes x pieces table gives, key by
    # key and to the bit, what one pass per node, one piece at a time, gives
    # from the same primitives (space_stats, the shares, lp_norm_spacetime)
    root = Path(__file__).resolve().parents[1]
    cfg = parse_config((root / "perfbench" / "workloads" / "n2.cfg")
                       .read_text())
    cell = cell_support(cfg, 64.0)
    f, ps, lam, n = cell.field, cell.plan.ps, 64.0, cfg.n
    Ln = f.window.L ** n
    g = [float((np.abs(f.coeffs[b.rows] / lam ** (1 / n)) ** 2).sum()) / Ln
         for b in f.support]
    ratios, defect, fractions, node_norms = [], 0.0, [], []
    for row in cell.mu:
        coeff = f.coeffs * row
        powers = [float((np.abs(coeff[b.rows]) ** 2).sum()) / Ln
                  for b in f.support]
        ratios.append([sqrt(pw / gp) for pw, gp in zip(powers, g)])
        norms = space_stats(f.with_coeffs(coeff), ps)
        total = norms[2.0] ** 2
        defect = max(defect, abs(sum(powers) - total) / total)
        fractions.append(cell.pairs.share(coeff))
        node_norms.append(norms)
    norms_in = space_stats(f, ps)
    out = {p: lp_norm_spacetime([nm[p] for nm in node_norms], p,
                                cell.plan.short) for p in ps}
    got = measure(cell, f.coeffs)
    assert got.pop("norms_s") > 0 and got.pop("share_s") > 0
    assert got == {
        "norms_in": {str(p): norms_in[p] for p in ps},
        "out_short": {str(p): out[p] for p in ps},
        "quotient": {str(p): out[p] / norms_in[p] for p in ps},
        "piece_min": min(min(r) for r in ratios),
        "piece_min_by_nu": [min(col) for col in zip(*ratios)],
        "defect": defect,
        "fractions": fractions,
    }
    assert len(fractions) == cfg.time_nodes and len(ratios[0]) > 1


def test_measure_rejects_a_vector_zero_on_a_piece(tiny_cfg):
    # a piece's ratio divides by the vector's power on that piece
    cell = cell_support(tiny_cfg, 32.0)
    coeffs = cell.field.coeffs.copy()
    coeffs[cell.field.support[0].rows] = 0.0
    with pytest.raises(DomainError, match=r"zero on pieces \[0\]$"):
        measure(cell, coeffs)


def test_measure_rejects_the_zero_vector(tiny_cfg):
    # the quotient divides by the vector's norms
    cell = cell_support(tiny_cfg, 32.0)
    with pytest.raises(DomainError, match="the coefficient vector is zero$"):
        measure(cell, np.zeros_like(cell.field.coeffs))


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


def _stub_cell(cfg, lam, **extra):
    """A cell with what the slope fits read, lam^-0.3 for every norm, and
    the `extra` keys."""
    norms = {str(p): lam ** -0.3 for p in cfg.ps}
    return {"lam": lam, "norms_in": norms, "out_short": norms,
            "quotient": norms, **extra}


def _concentration_report(monkeypatch, tiny_cfg, fractions):
    """sharpness_sweep's 'concentration' check on cells carrying `fractions`."""
    def cell(cfg, lam):
        return _stub_cell(cfg, lam, fractions=fractions[lam])

    monkeypatch.setattr(sweep_module, "run_cell", cell)
    cfg = replace(tiny_cfg, lambdas=tuple(fractions),
                  checks=("concentration",), piece_floor=0.0)
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


# --- forked cells (jobs > 1) -----------------------------------------------------

def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _pipe_read_ends():
    """The pipes this process holds open for reading, as /proc names them."""
    ends = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
            with open(f"/proc/self/fdinfo/{fd}") as info:
                flags = next(int(line.split()[1], 8) for line in info
                             if line.startswith("flags:"))
        except FileNotFoundError:   # the listing's own descriptor
            continue
        if target.startswith("pipe:") and flags & os.O_ACCMODE == os.O_RDONLY:
            ends.add(target)
    return ends


def _assert_nothing_left(fds):
    """Every child of the sweep is reaped and every pipe end closed."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


@contextlib.contextmanager
def _deadline(seconds):
    """TimeoutError in this process if the block runs longer than `seconds`
    (a forked child's alarm is cleared at the fork)."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_forked_cell_killed_by_a_signal_names_its_lambda(monkeypatch, tiny_cfg):
    root = os.getpid()

    def cell(cfg, lam):
        if lam == 45.0 and os.getpid() != root:
            os.kill(os.getpid(), signal.SIGKILL)
        return _stub_cell(cfg, lam)

    monkeypatch.setattr(sweep_module, "run_cell", cell)
    fds = _open_fds()
    with _deadline(60), pytest.raises(
            CurveAvgError, match="lambda=45: .* killed by SIGKILL"):
        sharpness_sweep(replace(tiny_cfg, jobs=2, checks=(), piece_floor=0.0))
    _assert_nothing_left(fds)


def test_forked_cell_larger_than_a_pipe_comes_back_whole(monkeypatch, tiny_cfg):
    # 2^19 floats: a 4 MiB list, pickled to 4.5 MB, against a pipe buffer
    # of 64 KiB; three cells on two children. No child holds a read end of
    # the sweep's pipes, its own or a sibling's: were the sweep's process
    # gone, a child's write would fail rather than block
    blob = [float(i) for i in range(1 << 19)]

    def cell(cfg, lam):
        return _stub_cell(cfg, lam, blob=blob, reads=sorted(_pipe_read_ends()))

    monkeypatch.setattr(sweep_module, "run_cell", cell)
    fds, before = _open_fds(), _pipe_read_ends()
    with _deadline(60):
        report = sharpness_sweep(replace(tiny_cfg, jobs=2, checks=(),
                                         piece_floor=0.0))
    assert [c["lam"] for c in report["cells"]] == [32.0, 45.0, 64.0]
    assert all(c["blob"] == blob for c in report["cells"])
    assert all(set(c["reads"]) <= before for c in report["cells"])
    _assert_nothing_left(fds)


def test_forked_cells_come_back_in_lambda_order(monkeypatch, tiny_cfg):
    # two children: lambda = 32, started last, sleeps while 64 and 45 end
    def cell(cfg, lam):
        if lam == 32.0:
            time.sleep(0.5)
        return _stub_cell(cfg, lam, done=time.monotonic())

    monkeypatch.setattr(sweep_module, "run_cell", cell)
    with _deadline(60):
        cells = sharpness_sweep(replace(tiny_cfg, jobs=2, checks=(),
                                        piece_floor=0.0))["cells"]
    assert [c["lam"] for c in cells] == [32.0, 45.0, 64.0]
    assert cells[2]["done"] < cells[0]["done"]


def test_forked_cells_start_largest_lambda_first(monkeypatch, tiny_cfg):
    # two children for three cells: 64 and 45 start at once, 32 only when
    # one of them has ended, a sleep later
    def cell(cfg, lam):
        start = time.monotonic()
        time.sleep(0.2)
        return _stub_cell(cfg, lam, start=start)

    monkeypatch.setattr(sweep_module, "run_cell", cell)
    with _deadline(60):
        cells = sharpness_sweep(replace(tiny_cfg, jobs=2, checks=(),
                                        piece_floor=0.0))["cells"]
    start = {c["lam"]: c["start"] for c in cells}
    assert max(start[64.0], start[45.0]) < start[32.0]
