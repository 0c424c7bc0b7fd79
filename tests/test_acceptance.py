"""Acceptance suite: ten numbered criteria, one test each.

Criteria 6-9 read the cells of the pinned sweep configuration (see
conftest.ACCEPTANCE_CONFIG); criterion 10 compares its serial and parallel
artifacts. Criterion 8 asserts the focusing of A_t f that the pinned lambda
range can show: fractions that grow with lambda and reach the coherent bound
of their frequency support. The 0.5 mass share in the ball is the
lambda -> infinity statement: the half-mass radius of A_1 f stays at
~2.97 lambda^{-1/3}, so that share arrives only near lambda ~ 5e4 (see the
README for the measured numbers).
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from curveavg import (ConeChart, CurveSpec, CutoffSpec, LatticeWindow,
                      SpectralField, SupportBall, alpha_n, apply_averaging,
                      ball_kernel, critical_exponent, derivative_bound_check, direct_oracle,
                      mu_hat, mu_hat_batch, multiplier_sample, space_stats)
from curveavg.sweep import _cell_setup

CURVE = CurveSpec.moment(3)
CHI = CutoffSpec(delta=0.9)
CHART = ConeChart(curve=CURVE, aperture=0.95)
E3 = np.array([0.0, 0.0, 1.0])


def test_criterion_01_exponent_table():
    # hand re-derivation of the staircase: 1/n up to p=4, the interpolating
    # branch up to p=4(n-1), then 2/p
    def staircase(p, n):
        if p <= 4:
            return Fraction(1, n)
        if p <= 4 * (n - 1):
            return (Fraction(1, 2) + Fraction(2) / p) / n
        return Fraction(2) / p

    pairs = [(p, n)
             for n in range(3, 8)
             for p in (Fraction(2), Fraction(5, 2), Fraction(3), Fraction(4),
                       Fraction(9, 2), Fraction(6), Fraction(15, 2),
                       Fraction(4 * (n - 1)), Fraction(4 * (n - 1) + 2),
                       Fraction(25))]
    assert len(set(pairs)) == 50
    for n in range(3, 8):
        assert (Fraction(4), n) in pairs and (Fraction(4 * (n - 1)), n) in pairs

    start = time.perf_counter()
    for p, n in pairs:
        got = critical_exponent(p, n)
        assert isinstance(got, Fraction)
        assert got == staircase(p, n), (p, n)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_cone_closed_forms():
    start = time.perf_counter()
    worst = 0.0
    for tau in np.linspace(-0.25, 0.25, 100):
        closed = np.array([tau ** 2 / 2, tau, 1.0])
        xi, s = CHART.solve_gamma(tau)
        worst = max(worst, float(np.abs(xi - closed).max()), abs(s + tau),
                    abs(CHART.solve_theta(closed) + tau))
    assert worst <= 1e-10
    assert time.perf_counter() - start < 1.0


def test_criterion_03_multiplier_decay():
    # |mu_hat_1(lambda e_3)| * lambda^{1/3} -> |alpha_3| * (3!)^{1/3} * chi(0);
    # the limit was frozen from the quadrature oracle before this test existed
    LIMIT = 2.810514770742616
    assert LIMIT == pytest.approx(abs(alpha_n(3)) * 6.0 ** (1 / 3), rel=1e-12)
    assert CHI(0.0) == 1.0

    start = time.perf_counter()
    devs = []
    for k in range(6, 13):
        lam = float(2 ** k)
        scaled = abs(mu_hat(CURVE, CHI, 1.0, lam * E3)) * lam ** (1 / 3)
        devs.append(abs(scaled - LIMIT))
    assert devs[-1] <= 0.10 * LIMIT
    assert all(a > b for a, b in zip(devs, devs[1:])), devs
    assert time.perf_counter() - start < 60.0


def test_criterion_04_deficit_rate_and_derivative_table():
    start = time.perf_counter()
    for t in (1.0, 1.5, 2.0):
        seq = []
        for k in range(6, 13):
            lam = float(2 ** k)
            s = multiplier_sample(CURVE, CHI, CHART, t, lam * E3)
            seq.append(s.deficit * lam ** (1 / 3))
        assert max(seq) / min(seq) <= 3.0, (t, seq)

    # worst |d^alpha m| / bound ratio per lambda: bounded, and the increments
    # shrink (the sequence settles instead of trending up)
    worst = []
    for k in (6, 9, 12):
        rows = derivative_bound_check(CURVE, CHI, CHART, 1.5, float(2 ** k) * E3)
        assert all(sum(alpha) <= 2 for alpha, *_ in rows)
        worst.append(max(r[3] for r in rows))
    assert max(worst) <= 3.5
    assert worst[2] - worst[1] < worst[1] - worst[0]
    assert worst[2] / worst[0] <= 1.25
    assert time.perf_counter() - start < 300.0


def test_criterion_05_oracle_equivalence():
    start = time.perf_counter()
    window = LatticeWindow(L=2.0, dims=(32,) * 3, k0=(-16,) * 3)
    dk = window.dk
    ks = [k for k in np.ndindex(7, 7, 7)
          if np.linalg.norm((np.array(k) - 3) * dk) <= 1.2 * 8.0]
    rng = np.random.default_rng(5)
    idx = np.array(ks) - 3 - np.array(window.k0)
    flat = np.ravel_multi_index(tuple(idx.T), window.dims)
    coeffs = rng.standard_normal(len(ks)) + 1j * rng.standard_normal(len(ks))
    ball = SupportBall(nu=0, center=(0.0,) * 3,
                       rows=slice(0, len(ks)), flat=flat)
    f = SpectralField(window=window, flat=flat, coeffs=coeffs, support=(ball,))

    t = 1.5
    out = apply_averaging(f, CURVE, CHI, t)
    xs = np.arange(0, 32, 4) * (2.0 / 32)
    pts = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), -1).reshape(-1, 3)
    want = direct_oracle(f, CURVE, CHI, t, pts)

    got = np.exp(1j * pts @ out.xi().T) @ (out.coeffs / out.L ** 3)
    rel = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert rel <= 1e-3, rel
    assert time.perf_counter() - start < 120.0


def _cells(runs, lams):
    by_lam = {c["lam"]: c for c in runs["report"]["cells"]}
    return [by_lam[lam] for lam in lams]


def test_criterion_06_orthogonality(acceptance_runs):
    for cell in _cells(acceptance_runs, (32.0, 64.0, 128.0)):
        assert cell["defect"] <= 1e-10, cell["lam"]


def test_criterion_07_piece_lower_bound(acceptance_runs):
    # floor recorded from the first full run of the pinned config
    # (2026-08, measured min 1.2575 at lambda=32) and asserted since
    FLOOR = 1.0
    worst = min(c["piece_min"] for c in _cells(acceptance_runs,
                                               (32.0, 64.0, 128.0)))
    assert worst >= FLOOR, worst


def _coherent_fractions(cfg, lam, ts):
    """Ball fractions of the field with the moduli |f_hat mu_hat_t| and every
    mode in phase at x = 0, the phase choice that peaks it at the origin; with
    the same ball and kernel as the sweep's cells."""
    curve, cutoff, _, f = _cell_setup(cfg, lam)
    kernel = ball_kernel(f, lam ** (-(1.0 - cfg.epsilon) / cfg.n))
    out = []
    for row in mu_hat_batch(curve, cutoff, ts, f.xi()):
        _, frac = space_stats(f.with_coeffs(np.abs(f.coeffs * row)), [2.0],
                              ball=kernel)
        out.append(frac)
    return out


def test_criterion_08_concentration(acceptance_runs):
    # A_t f focuses at the origin over the short window: the mass share of
    # B(0, lambda^{-(1-eps)/3}) climbs with lambda, and at each lambda it is
    # close to that of the coherent field with the same moduli. The share
    # reaches 0.5 only as lambda -> infinity: the half-mass radius of A_1 f
    # is 2.95-2.98 lambda^{-1/3} at lambda = 64..256, the ball
    # lambda^{eps/3} such units wide, so 0.5 arrives near
    # lambda ~ 2.97^{10} ~ 5e4. No field on this support reaches 0.5 at
    # lambda = 64 or 128 (largest possible share 0.196 and 0.229).
    cells = _cells(acceptance_runs, (64.0, 128.0, 256.0))
    for cell in cells:
        fr = cell["fractions"]
        print(f"lambda={cell['lam']:g}: fractions "
              f"{min(fr):.4f}..{max(fr):.4f} over {len(fr)} nodes")

    # variation over the short window
    for cell in cells[:2]:
        fr = cell["fractions"]
        assert max(fr) - min(fr) <= 0.15, cell["lam"]

    # growth: every fraction above every fraction of the previous lambda
    for prev, cell in zip(cells, cells[1:]):
        assert min(cell["fractions"]) > max(prev["fractions"]), cell["lam"]

    # focus: at both ends of the short window the output reaches >= 0.95 of
    # the coherent reference (measured 0.989-0.999; 0.94 and 0.83 without
    # the e^{i phi} phase correction, 0.68-0.90 for the un-averaged input)
    for cell in cells[:2]:
        ends = [0, len(cell["fractions"]) - 1]
        ts = [cell["t_nodes_short"][i] for i in ends]
        refs = _coherent_fractions(acceptance_runs["config"], cell["lam"], ts)
        for i, t, ref in zip(ends, ts, refs):
            ratio = cell["fractions"][i] / ref
            print(f"lambda={cell['lam']:g} t={t:.4f}: "
                  f"fraction / coherent = {ratio:.4f}")
            assert ratio >= 0.95, (cell["lam"], t, ratio)


def test_criterion_09_scaling_slopes(acceptance_runs):
    assert acceptance_runs[1]["status"] == 0
    # expected slopes pinned by hand; tolerances 0.1 / 0.1 / 0.05
    expected = {
        "4": (Fraction(7, 6), Fraction(5, 6), Fraction(-1, 3)),
        "6": (Fraction(11, 9), Fraction(17, 18), Fraction(-5, 18)),
        "8": (Fraction(5, 4), Fraction(1), Fraction(-1, 4)),
    }
    slopes = acceptance_runs["report"]["slopes"]
    for key, (inp, outp, quot) in expected.items():
        assert abs(slopes[key]["input"]["slope"] - float(inp)) <= 0.1, key
        assert abs(slopes[key]["output"]["slope"] - float(outp)) <= 0.1, key
        assert abs(slopes[key]["quotient"]["slope"] - float(quot)) <= 0.05, key


def test_criterion_10_determinism(acceptance_runs):
    assert acceptance_runs[8]["status"] == 0

    def rows(path):
        lines = path.read_text(encoding="utf-8").splitlines()
        return lines[0], [line.split(",") for line in lines[1:]]

    for name in ("sweep.csv", "slopes.csv"):
        head1, rows1 = rows(acceptance_runs[1]["dir"] / name)
        head8, rows8 = rows(acceptance_runs[8]["dir"] / name)
        assert head1 == head8
        assert len(rows1) == len(rows8)
        for r1, r8 in zip(rows1, rows8):
            for a, b in zip(r1, r8):
                try:
                    fa, fb = float(a), float(b)
                except ValueError:
                    assert a == b
                else:
                    assert np.isclose(fa, fb, rtol=1e-12, atol=1e-15), (a, b)
