import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from curveavg import (ConeChart, CounterexampleSpec, CurveSpec, CutoffSpec,
                      DomainError, TimeWindow, alpha_n, build_f,
                      derivative_bound_check, mu_hat, mu_hat_batch,
                      multiplier_sample, parse_config, windowed_lattice)
from curveavg import multiplier
from curveavg.sweep import _cell_setup


@pytest.fixture(scope="module")
def moment3():
    return CurveSpec.moment(3)


@pytest.fixture(scope="module")
def chi():
    return CutoffSpec(delta=0.9)


@pytest.fixture(scope="module")
def chart(moment3):
    return ConeChart(curve=moment3, aperture=0.95)


def test_alpha_2_is_the_fresnel_integral():
    # int_R e^{i v^2} dv = sqrt(pi/2) (1 + i), the classical Fresnel value
    want = np.sqrt(np.pi / 2) * (1 + 1j)
    assert alpha_n(2) == pytest.approx(want, rel=1e-14)


def test_alpha_3_frozen_value():
    # (2/3) Gamma(1/3) sin(pi/3), evaluated independently with math.gamma
    a = alpha_n(3)
    assert a.imag == 0.0
    assert a.real == pytest.approx(1.5466858841559796, rel=1e-15)


def test_alpha_4_modulus_and_phase():
    a = alpha_n(4)
    assert abs(a) == pytest.approx(1.8128049541109543, rel=1e-13)  # Gamma(1/4)/2
    assert np.angle(a) == pytest.approx(np.pi / 8, rel=1e-13)


def test_mu_hat_at_zero_is_cutoff_mass(moment3, chi):
    # mu_hat_t(0) = integral of chi, for every t
    for t in (1.0, 1.7, 2.0):
        v = mu_hat(moment3, chi, t, np.zeros(3))
        assert v == pytest.approx(chi.integral, rel=1e-8)


def test_mu_hat_conjugate_symmetry(moment3, chi):
    xi = np.array([0.3, -2.0, 11.0])
    a = mu_hat(moment3, chi, 1.3, xi)
    b = mu_hat(moment3, chi, 1.3, -xi)
    assert b == pytest.approx(np.conj(a), rel=1e-12)


def test_mu_hat_batch_matches_scalar(moment3, chi):
    ts = [1.0, 1.5]
    xis = np.array([[0.0, 0.0, 40.0], [1.0, 3.0, 60.0]])
    grid = mu_hat_batch(moment3, chi, ts, xis)
    assert grid.shape == (2, 2)
    for i, t in enumerate(ts):
        for j in range(2):
            # scalar calls size their panel ladder per point, the batch
            # shares one ladder: agreement is at the quadrature tolerance
            assert grid[i, j] == pytest.approx(
                mu_hat(moment3, chi, t, xis[j]), rel=1e-8)


def test_mu_hat_time_guard(moment3, chi):
    with pytest.raises(DomainError):
        mu_hat(moment3, chi, 0.5, np.array([0.0, 0.0, 8.0]))
    with pytest.raises(DomainError):
        mu_hat(moment3, chi, 2.5, np.array([0.0, 0.0, 8.0]))


def _ray(curve, chi, direction, lambdas):
    """|mu_hat_1(lambda * direction)| (1 + lambda)^{1/n} along a ray."""
    lams = np.asarray(lambdas, dtype=float)
    vals = mu_hat_batch(curve, chi, [1.0], lams[:, None] * np.asarray(direction))[0]
    return np.abs(vals) * (1.0 + lams) ** (1.0 / curve.n)


def test_decay_profile_on_cone_limit(moment3, chi):
    """|mu_hat_1(lambda e_3)| (1+lambda)^{1/3} -> |alpha_3| 6^{1/3} chi(0).

    2.810514770742616 was frozen from this quadrature at lambda = 2^21 and
    agrees with the stationary-phase closed form to 7 digits at 2^12.
    """
    vals = _ray(moment3, chi, [0.0, 0.0, 1.0], [2.0**k for k in range(6, 13)])
    assert vals[-1] == pytest.approx(2.810514770742616, rel=1e-3)
    # deviation from the limit shrinks monotonically along the dyadic ray
    dev = np.abs(vals - 2.810514770742616)
    assert np.all(np.diff(dev) < 0)


def test_decay_profile_off_cone_is_faster(moment3, chi):
    on = _ray(moment3, chi, [0.0, 0.0, 1.0], [64.0, 4096.0])
    off = _ray(moment3, chi, [1.0, 0.0, 0.0], [64.0, 4096.0])
    assert off[-1] < 0.05 * on[-1]     # e_1 is not a cone direction
    assert off[-1] < 0.2 * off[0]


def test_multiplier_sample_converges_to_leading(moment3, chi, chart):
    lam = 2.0**12
    s = multiplier_sample(moment3, chi, chart, 1.0, np.array([0.0, 0.0, lam]))
    # m = e^{i t phi} mu_hat tracks `leading`, not the un-normalized reference:
    # the gap to the reference stays at the fixed factor (3!)^{1/3} = 1.817
    assert abs(s.m) * lam ** (1 / 3) == pytest.approx(2.8105, rel=5e-3)
    assert s.deficit_leading < 0.02 * abs(s.m)
    assert s.deficit > 0.4 * abs(s.m)


def test_multiplier_sample_deficit_shrinks(moment3, chi, chart):
    lams = [2.0**8, 2.0**10, 2.0**12]
    gaps = [multiplier_sample(moment3, chi, chart, 1.5,
                              np.array([0.0, 0.0, lam])).deficit_leading
            for lam in lams]
    assert gaps[2] < gaps[1] < gaps[0]


def test_derivative_bound_table(moment3, chi, chart):
    lam = 2.0**8
    rows = derivative_bound_check(moment3, chi, chart, 1.0,
                                  np.array([0.0, 0.0, lam]))
    # multi-indices |alpha| <= 2 in R^3: 1 + 3 + 6
    assert len(rows) == 10
    for alpha, value, bound, ratio in rows:
        assert len(alpha) == 3 and sum(alpha) <= 2
        assert bound == pytest.approx(lam ** (-(1 + sum(alpha)) / 3), rel=1e-12)
        assert ratio == pytest.approx(value / bound, rel=1e-12)
        assert np.isfinite(ratio) and ratio >= 0


def test_derivative_bound_needs_resolvable_lambda(moment3, chi, chart):
    with pytest.raises(DomainError):
        derivative_bound_check(moment3, chi, chart, 1.0,
                               np.array([0.0, 0.0, 16.0]))


# --- the per-axis factorised quadrature sum -----------------------------------

def _direct_sum(curve, cutoff, ts, xis, panels):
    """sum_s w_s e^{-it<gamma(s), xi>} on the composite Gauss-Legendre nodes,
    with the full (nodes x frequencies) phase matrix."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(-cutoff.delta, cutoff.delta, panels + 1)
    half = (edges[1] - edges[0]) / 2
    s = (((edges[:-1] + edges[1:]) / 2)[:, None] + half * nodes).ravel()
    w = cutoff(s) * np.tile(weights * half, panels)
    phase = curve.derivative(0, s) @ np.atleast_2d(xis).T
    return np.array([w @ np.exp(-1j * t * phase) for t in ts])


def _gl_values(curve, cutoff, ts, xis, panels):
    return multiplier._gl_values(curve, cutoff, np.asarray(ts, float),
                                 multiplier._frequencies(xis), panels)


def _assert_matches_direct(curve, cutoff, xis, panels=24, ts=(1.0, 1.37, 2.0)):
    got = _gl_values(curve, cutoff, ts, xis, panels)
    want = _direct_sum(curve, cutoff, ts, xis, panels)
    assert got.shape == (len(ts), len(xis))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    return got


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("repeated", [True, False])
def test_factorised_sum_matches_direct_off_lattice(n, repeated, chi):
    rng = np.random.default_rng(10 * n + repeated)
    if repeated:
        # a few distinct values per axis: shared coordinates and leading tuples
        xis = rng.choice(rng.uniform(-40.0, 40.0, size=5), size=(60, n))
    else:
        xis = rng.uniform(-40.0, 40.0, size=(60, n))
        assert all(len(np.unique(col)) == 60 for col in xis.T)
    _assert_matches_direct(CurveSpec.moment(n), chi, xis)


SINGLE_POINT = np.array([[3.5, -12.25, 30.0]])


@pytest.fixture(scope="module")
def field_support(chi, chart):
    spec = CounterexampleSpec(lam=32.0, chart=chart, cutoff=chi, rho=0.5, c0=0.7)
    f = build_f(spec, windowed_lattice(spec, points_per_radius=3))
    return f.xi()


def test_factorised_sum_single_point(moment3, chi):
    # mu_hat evaluates a batch of one frequency
    _assert_matches_direct(moment3, chi, SINGLE_POINT)


def test_factorised_sum_on_field_support(moment3, chi, field_support):
    _assert_matches_direct(moment3, chi, field_support, panels=26)


# the tables advance from node to node by the step t_k - t_{k-1}
TIME_NODES = {
    "equal-steps": (1.0, 1.25, 1.5, 1.75, 2.0),
    # linspace nodes: two distinct float steps one ulp apart
    "short-window": TimeWindow.short(32.0, 3, m=9).nodes,
    "non-monotone": (1.5, 1.0, 2.0, 1.25),
    "single-t": (1.37,),
}


@pytest.mark.parametrize("inputs", ["off-lattice", "single-point", "field-support",
                                    "long-lattice-axis", "distinct-gaps"])
@pytest.mark.parametrize("nodes", list(TIME_NODES))
def test_table_recurrence_matches_direct(nodes, inputs, moment3, chi, request):
    # rows of a table are running products over the gaps between successive
    # coordinates: rounding could grow along a long axis, and off a lattice
    # every gap is exponentiated on its own
    curve = moment3
    if inputs == "off-lattice":
        xis = np.random.default_rng(31).uniform(-40.0, 40.0, size=(60, 3))
    elif inputs == "single-point":
        xis = SINGLE_POINT
    elif inputs == "field-support":
        xis = request.getfixturevalue("field_support")
    elif inputs == "long-lattice-axis":
        # 2048 coordinates on axis 0 with 12 distinct float gaps, ulps apart
        curve = CurveSpec.moment(2)
        k = np.arange(2048) - 1024
        xis = np.stack([k * 0.0391, np.where(k % 2, 3.7, -1.3)], axis=1)
    else:
        xis = np.random.default_rng(37).uniform(-40.0, 40.0, size=(300, 3))
        assert all(len(np.unique(np.diff(np.sort(col)))) == 299 for col in xis.T)
    _assert_matches_direct(curve, chi, xis, panels=26, ts=TIME_NODES[nodes])


@pytest.mark.parametrize("nodes", list(TIME_NODES))
def test_tables_exponentiated_once_per_distinct_step(nodes, moment3, chi,
                                                     monkeypatch):
    ts = np.asarray(TIME_NODES[nodes])
    calls = []
    tables = multiplier._tables

    def counted(freq, gam, t):
        calls.append(t)
        return tables(freq, gam, t)

    monkeypatch.setattr(multiplier, "_tables", counted)
    _gl_values(moment3, chi, ts, SINGLE_POINT, 8)   # one block of 128 nodes
    steps = multiplier._distinct_steps(ts)
    assert steps == {"equal-steps": 1, "short-window": 2, "non-monotone": 3,
                     "single-t": 0}[nodes]
    assert len(calls) == 1 + steps


def test_factorised_sum_in_ragged_chunks(moment3, chi, monkeypatch):
    # 10 distinct leading tuples over 30 distinct last coordinates: 60 rows
    # per node; 80 nodes per block splits the 192 nodes as 80, 80 and 32
    rng = np.random.default_rng(7)
    lead = rng.uniform(-30.0, 30.0, size=(10, 2))
    xis = np.array([[a, b, c] for a, b in lead
                    for c in rng.uniform(-30.0, 30.0, size=3)])
    monkeypatch.setattr(multiplier, "_BLOCK_ELEMENTS", 60 * 80)
    assert multiplier._block_width(multiplier._frequencies(xis).rows) == 80
    _assert_matches_direct(moment3, chi, xis, panels=12)


# node blocks of _gl_values: the least width, four panels, and a width that
# divides neither node count below (26 panels = 416 nodes, 2 panels = 32
# nodes, one block under either width)
BLOCKINGS = {"four-panel": lambda rows: 1, "ragged": lambda rows: 100 * rows}


@pytest.mark.parametrize("inputs", ["field-support", "planar-lattice",
                                    "single-point"])
@pytest.mark.parametrize("blocking", list(BLOCKINGS))
def test_blocking_moves_only_the_order_of_the_sum(blocking, inputs, moment3,
                                                  chi, request, monkeypatch):
    curve, ts = moment3, TIME_NODES["short-window"]
    if inputs == "field-support":
        xis = request.getfixturevalue("field_support")
    elif inputs == "planar-lattice":
        curve = CurveSpec.moment(2)
        k = np.arange(256) - 128
        xis = np.stack([k * 0.3125, np.where(k % 2, 3.7, -1.3)], axis=1)
    else:
        xis = SINGLE_POINT
    freq = multiplier._frequencies(xis)
    panel_counts = (26, 2)
    default = [_gl_values(curve, chi, ts, xis, panels) for panels in panel_counts]
    monkeypatch.setattr(multiplier, "_BLOCK_ELEMENTS",
                        BLOCKINGS[blocking](freq.rows))
    assert multiplier._block_width(freq.rows) == (64 if blocking == "four-panel"
                                                  else 100)
    for panels, want in zip(panel_counts, default):
        got = _assert_matches_direct(curve, chi, xis, panels=panels, ts=ts)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_block_working_set_fits_the_cache():
    # the n2 benchmark workload's lambda = 128 support on its short window:
    # mu_hat_batch peaks at 2.3 MiB in blocks of 2^15 entries (4.4 MiB in
    # blocks of 2^16)
    root = Path(__file__).resolve().parents[1]
    cfg = parse_config((root / "perfbench" / "workloads" / "n2.cfg").read_text())
    curve, cutoff, _, f = _cell_setup(cfg, 128.0)
    ts = TimeWindow.short(128.0, cfg.n, m=cfg.time_nodes).nodes
    xis = f.xi()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mu_hat_batch(curve, cutoff, ts, xis)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * 2 ** 20


def test_mu_hat_batch_reports_its_ladder(moment3, chi):
    stats = {}
    xis = np.array([[0.0, 0.0, 40.0], [1.0, 3.0, 60.0]])
    vals = mu_hat_batch(moment3, chi, [1.0, 1.5], xis, stats=stats)
    assert set(stats) == {"panels", "nodes", "residual", "steps", "levels",
                          "blocks", "exponentials"}
    assert stats["nodes"] == 16 * stats["panels"]
    width = multiplier._block_width(multiplier._frequencies(xis).rows)
    assert stats["blocks"] == -(-stats["nodes"] // width)
    assert stats["steps"] == 1
    start = multiplier._panel_start(moment3, chi, np.array([1.0, 1.5]), xis)
    assert stats["panels"] == start << (stats["levels"] - 1)
    assert 0.0 <= stats["residual"] <= 1e-9
    # the returned values are the final (fine) level of the ladder
    assert np.array_equal(
        vals, _gl_values(moment3, chi, [1.0, 1.5], xis, stats["panels"]))
    coarse = _gl_values(moment3, chi, [1.0, 1.5], xis, stats["panels"] // 2)
    assert stats["residual"] == np.abs(vals - coarse).max() / np.abs(vals).max()


def test_exponentials_follow_the_distinct_gaps(moment3, chi, monkeypatch):
    # axis 0 has coordinates 0 1 2 4 (gaps 1 and 2), axis 1 one coordinate,
    # axis 2 coordinates 40 60 70 (gaps 20 and 10): 3 + 1 + 3 exponentials
    # per node and table set, whatever the number of points
    xis = np.array([[0.0, 3.0, 40.0], [1.0, 3.0, 60.0], [2.0, 3.0, 70.0],
                    [4.0, 3.0, 40.0], [4.0, 3.0, 70.0]])
    ts = [1.0, 1.25, 1.5, 2.0]      # steps 0.25 and 0.5: 3 table sets a level
    evaluated = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x, *args, **kwargs):
            if np.iscomplexobj(x):
                evaluated.append(np.size(x))
            return np.exp(x, *args, **kwargs)

    monkeypatch.setattr(multiplier, "np", CountingNumpy())
    stats = {}
    mu_hat_batch(moment3, chi, ts, xis, stats=stats)
    panels_run = sum(stats["panels"] >> level for level in range(stats["levels"]))
    assert stats["exponentials"] == 3 * (16 * panels_run) * (3 + 1 + 3)
    assert stats["exponentials"] == sum(evaluated)
