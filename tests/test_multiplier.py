import tracemalloc
from math import factorial
from pathlib import Path

import numpy as np
import pytest

from curveavg import (GL16_NODES, GL16_WEIGHTS, ConeChart, CounterexampleSpec,
                      CurveSpec, CutoffSpec, DomainError, TimeWindow, alpha_n,
                      build_f, cell_field, cell_plan, cone_decay,
                      leading_constant, mu_hat_batch, panel_rule,
                      parse_config, windowed_lattice)
from curveavg import legendre, multiplier
from curveavg.verify import derivative_bound_check, multiplier_sample


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
        v = mu_hat_batch(moment3, chi, [t], np.zeros((1, 3)))[0, 0]
        assert v == pytest.approx(chi.integral, rel=1e-8)


def test_mu_hat_conjugate_symmetry(moment3, chi):
    xi = np.array([0.3, -2.0, 11.0])
    a, b = mu_hat_batch(moment3, chi, [1.3], [xi, -xi])[0]
    assert b == pytest.approx(np.conj(a), rel=1e-12)


def test_mu_hat_batch_matches_scalar(moment3, chi):
    ts = [1.0, 1.5]
    xis = np.array([[0.0, 0.0, 40.0], [1.0, 3.0, 60.0]])
    grid = mu_hat_batch(moment3, chi, ts, xis)
    assert grid.shape == (2, 2)
    for i, t in enumerate(ts):
        for j in range(2):
            # one-row batches size their panel ladder per point, the
            # batch shares one ladder: agreement is at the quadrature
            # tolerance
            assert grid[i, j] == pytest.approx(
                mu_hat_batch(moment3, chi, [t], xis[j:j + 1])[0, 0], rel=1e-8)


def test_mu_hat_time_guard(moment3, chi):
    # a NaN passes no comparison, so the guard asks for every t in [1, 2]
    for ts in ([0.5], [2.5], [np.nan], [1.0, np.nan]):
        with pytest.raises(DomainError, match="t must lie"):
            mu_hat_batch(moment3, chi, ts, [[0.0, 0.0, 8.0]])


@pytest.mark.parametrize("xi", [[0.0, np.nan, 40.0], [0.0, 0.0, np.inf]],
                         ids=["nan", "infinite"])
def test_mu_hat_needs_finite_frequencies(moment3, chi, xi):
    with pytest.raises(DomainError, match="frequencies must be finite"):
        mu_hat_batch(moment3, chi, [1.0], [xi])


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


@pytest.mark.parametrize("t", [1.0, 1.5, 2.0])
def test_multiplier_sample_deficit_shrinks(moment3, chi, chart, t):
    lams = [2.0**8, 2.0**10, 2.0**12]
    gaps = [multiplier_sample(moment3, chi, chart, t,
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


@pytest.mark.parametrize("n", [2, 3])
def test_derivative_rows_are_the_central_differences(n):
    # every row against the textbook difference, written out here over one
    # quadrature batch of the same points: the first and second central
    # differences along an axis and the mixed one of two axes
    curve, chi = CurveSpec.moment(n), CutoffSpec(delta=0.9)
    chart = ConeChart(curve=curve, aperture=0.95)
    xi = np.zeros(n)
    xi[-2:] = (20.0, 2.0 ** 9)
    t, lam = 1.5, np.linalg.norm(xi)
    h = lam ** (1 / n) / 256
    e = np.eye(n, dtype=int)
    offsets = sorted({tuple(a + b) for a in (0 * e[0], *e, *-e)
                      for b in (0 * e[0], *e, *-e)})
    pts = xi + h * np.array(offsets, dtype=float)
    phis, _ = chart.phi_un_batch(pts)
    m = dict(zip(offsets, mu_hat_batch(curve, chi, [t], pts)[0]
                 * np.exp(1j * t * phis)))

    def at(*axes):
        return m[tuple(sum(axes, 0 * e[0]))]

    want = {(0,) * n: abs(at())}
    for i in range(n):
        want[tuple(e[i])] = abs(at(e[i]) - at(-e[i])) / (2 * h)
        want[tuple(2 * e[i])] = abs(at(e[i], e[i]) - 2 * at()
                                    + at(-e[i], -e[i])) / (2 * h) ** 2
        for j in range(i + 1, n):
            want[tuple(e[i] + e[j])] = abs(
                at(e[i], e[j]) - at(e[i], -e[j]) - at(-e[i], e[j])
                + at(-e[i], -e[j])) / (4 * h * h)
    rows = derivative_bound_check(curve, chi, chart, t, xi)
    assert sorted(alpha for alpha, *_ in rows) == sorted(want)
    for alpha, value, bound, ratio in rows:
        assert value == pytest.approx(want[alpha], rel=1e-12)
        assert bound == pytest.approx(lam ** (-(1 + sum(alpha)) / n), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_leading_term_is_written_once(n):
    # multiplier_sample's leading term is leading_constant times cone_decay's
    # chi(theta) (t u_n)^{-1/n}; the constant is alpha_n (n!)^{1/n},
    # conjugated for even n
    curve, chi = CurveSpec.moment(n), CutoffSpec(delta=0.9)
    chart = ConeChart(curve=curve, aperture=0.95)
    a = alpha_n(n)
    want = (a.conjugate() if n % 2 == 0 else a) * factorial(n) ** (1 / n)
    assert leading_constant(n) == pytest.approx(want, rel=1e-15)
    xis = 300.0 * np.array([[0.0] * (n - 2) + [0.1, 1.0],
                            [0.0] * (n - 1) + [1.0]])
    phi, decay = cone_decay(chart, chi, 1.25, xis)
    theta = chart.solve_theta_batch(xis)
    _, un = chart.phi_un_batch(xis)
    assert np.allclose(decay, chi(theta) * (1.25 * un) ** (-1 / n),
                       rtol=1e-15, atol=0)
    for xi, p, d in zip(xis, phi, decay):
        s = multiplier_sample(curve, chi, chart, 1.25, xi)
        assert s.leading == leading_constant(n) * d
        assert s.reference == a * d
        assert s.m == pytest.approx(np.exp(1.25j * p) * s.mu_hat, rel=1e-15)


def test_cone_decay_rejects_non_moment_directions(chi, chart):
    # u_n(xi) < 0 on the reflected cone: no leading term of this form
    with pytest.raises(DomainError, match="u_n"):
        cone_decay(chart, chi, 1.0, [[0.0, 0.0, -64.0]])


@pytest.mark.parametrize("t", [-1.0, 0.0, float("nan"), float("inf")])
def test_cone_decay_needs_a_positive_finite_time(chi, chart, t):
    # (t u_n)^{-1/n} is real and finite only for t > 0 finite: -1 would
    # give a complex decay, 0 a ZeroDivisionError, NaN a NaN
    with pytest.raises(DomainError, match="t must be positive and finite"):
        cone_decay(chart, chi, t, [[0.0, 0.1, 64.0]])


def test_cone_decay_solves_theta_once(monkeypatch, chi, chart):
    # chi(theta) and (phi, u_n) share one Newton solve, with phi as
    # phi_un_batch gives it
    xis = 300.0 * np.array([[0.0, 0.1, 1.0], [0.05, 0.0, 1.0]])
    want_phi, want_un = chart.phi_un_batch(xis)
    solve, calls = ConeChart.solve_theta_batch, []

    def counted(self, points):
        calls.append(len(points))
        return solve(self, points)

    monkeypatch.setattr(ConeChart, "solve_theta_batch", counted)
    phi, decay = cone_decay(chart, chi, 1.25, xis)
    assert calls == [2]
    assert np.array_equal(phi, want_phi)
    assert np.array_equal(chart.phi_un_at(xis, solve(chart, xis)),
                          (want_phi, want_un))


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
    # a batch of one frequency
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

    def counted(freq, gam, t, out, rows):
        calls.append(t)
        return tables(freq, gam, t, out, rows)

    monkeypatch.setattr(multiplier, "_tables", counted)
    _gl_values(moment3, chi, ts, SINGLE_POINT, 8)   # one block of 128 nodes
    steps = multiplier._distinct_steps(ts)
    assert steps == {"equal-steps": 1, "short-window": 2, "non-monotone": 3,
                     "single-t": 0}[nodes]
    assert len(calls) == 1 + steps


def test_factorised_sum_in_ragged_chunks(moment3, chi, monkeypatch):
    # 10 distinct leading tuples over 30 distinct last coordinates, at the
    # default time nodes' two steps: 3 table sets of 10 + 10 + 30 rows and 2
    # leading rows of 10, 170 entries per node; 80 nodes per block splits
    # the 192 nodes as 80, 80 and 32
    rng = np.random.default_rng(7)
    lead = rng.uniform(-30.0, 30.0, size=(10, 2))
    xis = np.array([[a, b, c] for a, b in lead
                    for c in rng.uniform(-30.0, 30.0, size=3)])
    monkeypatch.setattr(multiplier, "_BLOCK_BYTES", 16 * 170 * 80)
    assert multiplier._block_width(multiplier._frequencies(xis),
                                   np.array([1.0, 1.37, 2.0])) == 80
    _assert_matches_direct(moment3, chi, xis, panels=12)


# node blocks of _gl_values, as budgets for a block's entries per node: the
# least width, four panels, and a width that divides neither node count
# below (26 panels = 416 nodes, 2 panels = 32 nodes, one block under either
# width)
BLOCKINGS = {"four-panel": lambda entries: 16,
             "ragged": lambda entries: 16 * 100 * entries}


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
    entries = freq.entries(1 + multiplier._distinct_steps(np.asarray(ts)))
    monkeypatch.setattr(multiplier, "_BLOCK_BYTES", BLOCKINGS[blocking](entries))
    assert multiplier._block_width(freq, np.asarray(ts)) == (
        64 if blocking == "four-panel" else 100)
    for panels, want in zip(panel_counts, default):
        got = _assert_matches_direct(curve, chi, xis, panels=panels, ts=ts)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_block_working_set_fits_the_cache():
    # the n2 benchmark workload's lambda = 128 support on its short window,
    # three table sets: mu_hat_batch peaks at 1.32 MiB in blocks of 1 MiB,
    # allocated once per level (2.3 MiB in blocks of 2^15 entries per table
    # set, allocated per block)
    root = Path(__file__).resolve().parents[1]
    cfg = parse_config((root / "perfbench" / "workloads" / "n2.cfg").read_text())
    plan = cell_plan(cfg, 128.0)
    spec, xis = plan.spec, cell_field(cfg, plan).xi()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mu_hat_batch(spec.chart.curve, spec.cutoff, plan.short.nodes, xis)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 2 ** 20


@pytest.mark.parametrize("nodes", list(TIME_NODES))
def test_block_arrays_fit_the_budget(nodes, moment3, chi, field_support,
                                     monkeypatch):
    # 1 to 4 table sets: the block width is the most nodes whose table sets,
    # leading products and gathered table fit _BLOCK_BYTES; those are what a
    # level allocates with np.empty, beside the rows a table is built from;
    # and the gate's bound holds the whole batch's traced peak
    ts = np.asarray(TIME_NODES[nodes])
    freq = multiplier._frequencies(field_support)
    entries = freq.entries(1 + multiplier._distinct_steps(ts))
    width = multiplier._block_width(freq, ts)
    assert width > multiplier._MIN_BLOCK_NODES
    assert (16 * entries * width <= multiplier._BLOCK_BYTES
            < 16 * entries * (width + 1))
    allocated = []

    class RecordingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, shape, dtype=float):
            allocated.append(np.dtype(dtype).itemsize * np.prod(shape))
            return np.empty(shape, dtype=dtype)

    monkeypatch.setattr(multiplier, "np", RecordingNumpy())
    _gl_values(moment3, chi, ts, field_support, 3 * width // 16)  # 3 blocks
    rows = 16 * width * max(len(exponents) for exponents, _ in freq.gaps)
    assert sum(allocated) - rows == 16 * entries * width
    monkeypatch.undo()
    tracemalloc.start()
    try:
        mu_hat_batch(moment3, chi, ts, field_support)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= multiplier.quadrature_peak_bytes(field_support, ts)


@pytest.mark.parametrize("nodes", list(TIME_NODES))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_quadrature_bound_holds_where_the_nodes_dominate(n, nodes, chi):
    # one frequency far out on the cone: a few table rows, so a block is
    # thousands of nodes wide and its per-node arrays outweigh its tables
    ts = np.asarray(TIME_NODES[nodes])
    xis = np.zeros((1, n))
    xis[0, -1] = 4000.0
    tracemalloc.start()
    try:
        mu_hat_batch(CurveSpec.moment(n), chi, ts, xis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= multiplier.quadrature_peak_bytes(xis, ts)


def test_block_arrays_allocated_once_per_level(moment3, chi, field_support,
                                               monkeypatch):
    # blocks of 80 nodes, five panels: one level's peak does not follow
    # its block count, as every block fills the same arrays
    ts = np.asarray(TIME_NODES["short-window"])
    entries = multiplier._frequencies(field_support).entries(3)
    monkeypatch.setattr(multiplier, "_BLOCK_BYTES", 16 * entries * 80)
    peaks = []
    for panels in (5, 10, 100):          # 1, 2 and 20 blocks
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _gl_values(moment3, chi, ts, field_support, panels)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    assert 16 * entries * 80 > 4 * 64 * 1024
    assert max(peaks) - min(peaks) <= 64 * 1024


def test_mu_hat_batch_reports_its_ladder(moment3, chi):
    stats = {}
    xis = np.array([[0.0, 0.0, 40.0], [1.0, 3.0, 60.0]])
    vals = mu_hat_batch(moment3, chi, [1.0, 1.5], xis, stats=stats)
    assert set(stats) == {"panels", "nodes", "residual", "steps", "levels",
                          "blocks", "exponentials"}
    assert stats["nodes"] == 16 * stats["panels"]
    width = multiplier._block_width(multiplier._frequencies(xis),
                                    np.array([1.0, 1.5]))
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


# --- panel edges per node block ----------------------------------------------

@pytest.mark.parametrize("panels", [2, 3, 52, 192, 1 << 16])
def test_block_centres_are_linspace_bit_for_bit(panels):
    # panel_rule builds only the edges of a block's own panels; they, and
    # the nodes and weights of blocks that split panels too, are those of
    # the whole rule on one np.linspace over the level, to the last bit
    nodes = 16 * panels
    for delta in (0.25, 0.9, 1 / 3):
        edges = np.linspace(-delta, delta, panels + 1)
        assert np.array_equal(legendre._edges(0, panels, panels, delta), edges)
        half = (edges[1] - edges[0]) / 2
        mid = edges[:-1] + edges[1:]
        mid /= 2
        want_s = (mid[:, None] + half * GL16_NODES[None, :]).ravel()
        want_w = np.tile(GL16_WEIGHTS * half, panels)
        for width in sorted({16, 109, nodes // 5 + 1, nodes}):
            if nodes // width > 1 << 12:
                continue
            blocks = [panel_rule(panels, delta, lo, min(lo + width, nodes))
                      for lo in range(0, nodes, width)]
            s, w = (np.concatenate(parts) for parts in zip(*blocks))
            assert np.array_equal(s, want_s) and np.array_equal(w, want_w)
        s, w = panel_rule(panels, delta)
        assert np.array_equal(s, want_s) and np.array_equal(w, want_w)


def test_block_edges_leave_mu_unchanged(monkeypatch):
    # the n2 benchmark workload's lambda = 256 cell: 192 panels in 18 blocks
    # give the values of edges sliced from one np.linspace over the level
    root = Path(__file__).resolve().parents[1]
    cfg = parse_config((root / "perfbench" / "workloads" / "n2.cfg").read_text())
    plan = cell_plan(cfg, 256.0)
    spec, xis = plan.spec, cell_field(cfg, plan).xi()
    args = (spec.chart.curve, spec.cutoff, plan.short.nodes, xis)
    stats = {}
    got = mu_hat_batch(*args, stats=stats)
    assert (stats["panels"], stats["blocks"]) == (192, 18)
    monkeypatch.setattr(
        legendre, "_edges", lambda first, last, panels, delta: np.linspace(
            -delta, delta, panels + 1)[first:last + 1])
    assert np.array_equal(got, mu_hat_batch(*args))
