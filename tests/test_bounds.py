"""Per-cell defect statistics and tail-bound arithmetic."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from shapedist.bounds import (
    _defect,
    _population_defects,
    _raw_defects,
    _sample_defects,
    EVENT_BOUND_RECIP_K,
    bernstein_cell_bound,
    bernstein_residual_bound,
    binomial_cell_bound,
    cell_variance,
    cell_variance_bound,
    cell_variance_report,
    convexity_event_bound,
    interp_gap_report,
    mesh_ratio_check,
    slope_difference_bound,
    trapezoid_remainder_bounds,
)
from shapedist.curves import curve_sub
from shapedist.empirical import (
    EmpiricalData,
    ecdf,
    integrated_ecdf,
    integrated_ecdf_curve,
    _generator,
    sample,
    seed_for,
)
from shapedist.models import KnotMesh, _extreme, knot_mesh_convex, make_model
from shapedist.monotone import broken_line_error_report
from shapedist.spline import (
    complete_spline,
    interp_error_report,
    interp_integrated_cdf,
    interp_integrated_ecdf,
    second_derivative_slopes,
    smooth_interp_error_bounds,
)


def raw_defect_oracle(x, a):
    # direct-sum route: ecdf and integrated ecdf from plain loops.
    n = len(x)
    out = []
    for lo, hi in zip(a[:-1], a[1:]):
        flo = sum(1 for xi in x if xi <= lo) / n
        fhi = sum(1 for xi in x if xi <= hi) / n
        ylo = sum(max(lo - xi, 0.0) for xi in x) / n
        yhi = sum(max(hi - xi, 0.0) for xi in x) / n
        out.append(0.5 * (flo + fhi) * (hi - lo) - (yhi - ylo))
    return np.array(out)


def assert_event_slopes_are_rescaled_defects(spline, T, w):
    """The convexity event's second-derivative slopes equal ``12 T / delta^3``
    up to ``k^2 * 1e-16`` of the scale of the two bracket terms that cancel
    in them, as the ``second_derivative_slopes`` docstring states."""
    s = spline.slopes
    scale = 12.0 / w**3 * (0.5 * np.abs(s[:-1] + s[1:]) * w + np.abs(np.diff(spline.values)))
    np.testing.assert_array_less(np.abs(second_derivative_slopes(spline) - 12.0 * T / w**3),
                                 len(w)**2 * 1e-16 * scale)


def test_quantities_against_independent_routes():
    m = make_model("truncated-exponential", (1.0,))
    mesh = knot_mesh_convex(m, 6)
    d = sample(m, 120, seed_for(80, 120, 0))
    T, R = _sample_defects(d, mesh)
    t, r = _population_defects(m, mesh)
    W, b = (T - t) - (R - r), t - r
    a, w = mesh.knots, mesh.deltas

    # R: direct sums over the sample
    np.testing.assert_allclose(R, raw_defect_oracle(d.x, a), rtol=0.0, atol=1e-12)

    # r: numeric quadrature of the cdf
    r_quad = np.array([
        0.5 * (float(m.F(hi)) + float(m.F(lo))) * (hi - lo)
        - quad(lambda u: float(m.F(u)), lo, hi, epsabs=1e-13, epsrel=1e-12)[0]
        for lo, hi in zip(a[:-1], a[1:])
    ])
    np.testing.assert_allclose(r, r_quad, rtol=0.0, atol=1e-10)

    # b and T - R: half-sum of end slope errors times the width
    s_pop = interp_integrated_cdf(m, mesh).slopes
    e_pop = s_pop - np.asarray(m.F(a), dtype=float)
    np.testing.assert_allclose(b, 0.5 * (e_pop[:-1] + e_pop[1:]) * w, atol=1e-13)
    spline = interp_integrated_ecdf(d, mesh)
    e_emp = spline.slopes - np.asarray(ecdf(d, a), dtype=float)
    np.testing.assert_allclose(T - R, 0.5 * (e_emp[:-1] + e_emp[1:]) * w, atol=1e-13)

    # the decomposition closes
    np.testing.assert_allclose(T - r, (R - r) + W + b, rtol=0.0, atol=1e-13)

    # cross route: the convexity event's slopes are the rescaled spline defects
    assert_event_slopes_are_rescaled_defects(spline, T, w)


@pytest.mark.parametrize("name,params", [
    ("truncated-exponential", (1.0,)), ("beta-like", (2.0,)), ("shifted-power", (3.0, 1.0)),
])
@pytest.mark.parametrize("k", [3, 8, 20])
def test_event_slopes_are_the_rescaled_spline_defects(name, params, k):
    # the same cross route over the models and cell counts the two routes
    # were compared on (their bits differ in nearly every draw)
    m = make_model(name, params)
    mesh = knot_mesh_convex(m, k)
    for n in (120, 4096):
        for rep in range(5):
            d = sample(m, n, seed_for(83, n, rep))
            T, _ = _sample_defects(d, mesh)
            assert_event_slopes_are_rescaled_defects(interp_integrated_ecdf(d, mesh), T, mesh.deltas)


def test_raw_defect_slopes_closed_form_example():
    # data {1, 3} on knots {0, 2, 4}: ecdf steps make both bracket terms
    # vanish, so the raw-slope estimates 12 R / delta^3 are exactly zero.
    mesh = KnotMesh(2, np.array([0.0, 2.0, 4.0]), 0.5, 1.0)
    h = mesh.deltas
    _, R = _sample_defects(EmpiricalData(np.array([1.0, 3.0])), mesh)
    np.testing.assert_allclose(12.0 * R / h**3, [0.0, 0.0], atol=1e-15)
    # and against the generic spline-free formula at another dataset
    d2 = EmpiricalData(np.array([0.5, 1.0, 3.5]))
    a = mesh.knots
    fv = np.asarray(ecdf(d2, a))
    yv = np.asarray(integrated_ecdf(d2, a))
    want = 12.0 / h**3 * ((fv[:-1] + fv[1:]) * h / 2.0 - np.diff(yv))
    _, R2 = _sample_defects(d2, mesh)
    np.testing.assert_allclose(12.0 * R2 / h**3, want, rtol=1e-13)


KNOT_MODEL = make_model("truncated-exponential", (1.0,))
TAU = KNOT_MODEL.tau
KNOTS3 = knot_mesh_convex(KNOT_MODEL, 3).knots.tolist()


def prefix_route(data, mesh):
    """The spline and defects ``(T, R)`` read off the full prefix sums: the
    reference that the knot-only sums must match bit for bit."""
    a = mesh.knots
    vals = np.asarray(integrated_ecdf(data, a), dtype=float)
    spline = complete_spline(a, vals, float(ecdf(data, a[0])), float(ecdf(data, a[-1])))
    dy = np.diff(spline.values)
    return spline, _defect(spline.slopes, dy, mesh.deltas), _defect(ecdf(data, a), dy, mesh.deltas)


@st.composite
def knot_samples(draw):
    k = draw(st.integers(1, 5))
    knots = knot_mesh_convex(KNOT_MODEL, k).knots.tolist()
    tau = knots[-1]
    point = st.one_of(st.sampled_from(knots),
                      st.floats(0.0, 2.0 * tau, allow_nan=False, allow_infinity=False),
                      st.floats(tau, 4.0 * tau, exclude_min=True))
    return k, draw(st.lists(point, min_size=1, max_size=40))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(knot_samples())
@example((3, KNOTS3 + KNOTS3[1:3] + [0.1, 2.0]))  # ties exactly on knots
@example((3, [KNOTS3[1] * 1.5, KNOTS3[2], TAU, 3.0]))  # nothing below the first interior knot
@example((3, [TAU * 1.01, 2.0 * TAU, 5.0]))  # everything above tau: nothing is summed
@example((2, [0.3]))  # n = 1
@example((1, [TAU]))
def test_knot_only_sums_match_the_full_prefix_bitwise(case):
    k, x = case
    data = EmpiricalData(np.array(x))
    mesh = knot_mesh_convex(KNOT_MODEL, k)
    spline, T, R = prefix_route(data, mesh)
    got = interp_integrated_ecdf(data, mesh)
    assert got.values.tobytes() == spline.values.tobytes()
    assert got.slopes.tobytes() == spline.slopes.tobytes()
    T2, R2 = _sample_defects(data, mesh)
    assert T2.tobytes() == T.tobytes() and R2.tobytes() == R.tobytes()


def test_one_draw_allocates_only_what_it_keeps():
    # sample: the uniforms and the one Finv copy that becomes x; the defects:
    # the prefix sums up to the last knot (about 3/4 of the sample).
    n = 30000
    mesh = knot_mesh_convex(KNOT_MODEL, 3)
    sample(KNOT_MODEL, 10, seed=1)
    tracemalloc.start()
    try:
        data = sample(KNOT_MODEL, n, seed_for(1, n, 0))
        sample_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        _sample_defects(data, mesh)
        defects_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert sample_peak <= 2.05 * 8 * n
    assert defects_peak <= 1.05 * 8 * n


def test_population_defect_sign_and_uniform_case():
    # the cdf of a decreasing density is concave, so the trapezoid sits
    # under the integral: population defects are nonpositive; for the
    # uniform model the cdf is linear and they vanish exactly.
    m = make_model("truncated-exponential", (1.0,))
    _, r = _population_defects(m, knot_mesh_convex(m, 7))
    assert np.all(r <= 1e-15)
    mu = make_model("uniform", ())
    tu, ru = _population_defects(mu, knot_mesh_convex(mu, 4))
    assert np.max(np.abs(ru)) == 0.0
    np.testing.assert_allclose(tu - ru, tu, atol=1e-15)


def scalar_raw_defect(model, s, t):
    """The one-cell raw defect as the package once computed it, scalar by scalar."""
    return 0.5 * (float(model.F(t)) + float(model.F(s))) * (t - s) \
        - (float(model.Fint(t)) - float(model.Fint(s)))


@pytest.mark.parametrize("name,params", [
    ("truncated-exponential", (1.0,)), ("truncated-exponential", (2.0, 3.0)),
    ("shifted-power", (3.0, 1.0)), ("shifted-power", (2.0, 1.0)),
    ("beta-like", (2.0,)), ("beta-like", (1.5,)), ("uniform", ()),
])
def test_raw_defects_match_the_scalar_formula_bitwise(name, params):
    m = make_model(name, params)
    rng = np.random.default_rng(5)
    for _ in range(200):
        s, t = (float(v) for v in np.sort(rng.uniform(0.0, m.tau, 2)))
        assert _raw_defects(m, [s, t])[0] == scalar_raw_defect(m, s, t)
    for k in (3, 10, 50):
        a = knot_mesh_convex(m, k).knots
        want = [scalar_raw_defect(m, float(a[j - 1]), float(a[j])) for j in range(1, k + 1)]
        assert _raw_defects(m, a).tobytes() == np.array(want).tobytes()


def test_taylor_bracket_thousand_intervals():
    m = make_model("truncated-exponential", (1.0,))
    rng = np.random.default_rng(83)
    for _ in range(1000):
        s = float(rng.uniform(0.0, 2.2))
        t = s + float(rng.uniform(1e-3, 0.6))
        lo, hi, val = trapezoid_remainder_bounds(m, s, t)
        tol = 1e-12 * max(1.0, abs(val))
        assert lo - tol <= val <= hi + tol
        assert val <= 1e-15  # concave cdf


def test_trapezoid_bracket_rejects_bad_interval():
    m = make_model("truncated-exponential", (1.0,))
    with pytest.raises(ValueError):
        trapezoid_remainder_bounds(m, -0.1, 0.5)
    with pytest.raises(ValueError):
        trapezoid_remainder_bounds(m, 0.5, 0.5)
    # every pair of an array is checked
    with pytest.raises(ValueError):
        trapezoid_remainder_bounds(m, np.array([0.1, 0.5, 0.2]), np.array([0.3, 0.5, 0.4]))


def test_slope_difference_bound_all_cells():
    m = make_model("truncated-exponential", (1.0,))
    lhs, rhs = slope_difference_bound(m, knot_mesh_convex(m, 50))
    assert lhs.shape == rhs.shape == (49,)
    assert np.all(lhs <= rhs + 1e-15)


# The per-pair and per-cell formulas that the whole-array bounds replaced,
# kept as the oracle they must match bit for bit.  Powers are Python-float **.
def taylor_bracket_oracle(model, s, t):
    value = float(_raw_defects(model, [s, t])[0])
    cube = float(model.fprime(s)) * (t - s) ** 3 / 12.0
    quart = (t - s) ** 4 / 24.0
    lo = cube + _extreme(model.fsecond, s, t, "inf") * quart
    hi = cube + _extreme(model.fsecond, s, t, "sup") * quart
    return lo, hi, value


def slope_difference_oracle(model, mesh, j):
    a = mesh.knots
    d = [float(v) for v in mesh.deltas]
    rj, rj1 = (float(v) for v in _raw_defects(model, a[j - 1:j + 2]))
    lhs = rj / d[j - 1] ** 3 - rj1 / d[j] ** 3
    diff_quot = (float(model.fprime(a[j])) - float(model.fprime(a[j - 1]))) / d[j - 1]
    sup_j = _extreme(model.fsecond, a[j - 1], a[j], "sup")
    inf_j1 = _extreme(model.fsecond, a[j], a[j + 1], "inf")
    rhs = -diff_quot * d[j - 1] / 12.0 + (sup_j * d[j - 1] - inf_j1 * d[j]) / 24.0
    return lhs, rhs


ORACLE_MODELS = [
    ("truncated-exponential", (1.0,)), ("truncated-exponential", (2.0, 3.0)),
    ("beta-like", (2.0,)), ("beta-like", (1.5,)),
    ("shifted-power", (3.0, 1.0)), ("shifted-power", (2.0, 1.0)), ("shifted-power", (4.5, 2.0)),
]


@pytest.mark.parametrize("name,params", ORACLE_MODELS)
def test_whole_array_bounds_match_the_per_element_formulas_bitwise(name, params):
    m = make_model(name, params)
    for k in (3, 10, 50, 200):
        mesh = knot_mesh_convex(m, k)
        want = np.array([slope_difference_oracle(m, mesh, j) for j in range(1, k)]).T
        got = np.array(slope_difference_bound(m, mesh))
        assert got.tobytes() == want.tobytes(), k
    # the lemma suite's pairs: one draw of 1000 pairs against 1000 draws of one
    for base_seed in (1, 6, 32):
        u = np.sort(_generator(seed_for(base_seed, 0, 0)).random((1000, 2)), axis=1) * m.tau
        s, t = u[u[:, 1] - u[:, 0] >= 1e-6].T
        got = np.array(trapezoid_remainder_bounds(m, s, t))
        rng = _generator(seed_for(base_seed, 0, 0))
        pairs = [np.sort(rng.random(2)) * m.tau for _ in range(1000)]
        want = np.array([taylor_bracket_oracle(m, float(a), float(b))
                         for a, b in pairs if b - a >= 1e-6]).T
        assert got.tobytes() == want.tobytes(), base_seed
        assert trapezoid_remainder_bounds(m, float(s[0]), float(t[0])) == tuple(got[:, 0])


def test_mesh_ratio_check_fine_and_uniform():
    m = make_model("truncated-exponential", (1.0,))
    # fine mesh: k = 80 = 5 * gamma1_tilde * R for this model
    fine, threshold = mesh_ratio_check(m)
    assert fine["name"] == "mesh-ratio[k=80]" and fine["pass"] and fine["lhs"] <= 2.0
    assert threshold["name"] == "mesh-ratio-threshold" and threshold["pass"]
    assert 1 <= threshold["lhs"] <= threshold["rhs"] == 80.0
    # uniform: every ratio is 1, and the fine mesh has the floor of 2 cells
    fine_u, thr_u = mesh_ratio_check(make_model("uniform", ()))
    assert (fine_u["name"], fine_u["lhs"], thr_u["lhs"]) == ("mesh-ratio[k=2]", 1.0, 1.0)


def test_bernstein_bounds_frozen_arithmetic():
    # pinned arguments, recomputed with math.exp
    got = bernstein_cell_bound(100000, 0.1, 0.05, 0.5)
    assert math.isclose(got, 2.0 * math.exp(-0.09375 / 1.0025), rel_tol=1e-12)
    expo = (100000 * 0.1**2 * 0.5**2 * 0.05**3 / 100.0) / (1.0 + 0.05 * 0.1 * 0.5 / 30.0)
    assert math.isclose(bernstein_residual_bound(100000, 0.1, 0.05, 0.5),
                        4.0 * math.exp(-expo), rel_tol=1e-12)
    # smaller tail for more data, larger for flatter density
    assert bernstein_cell_bound(200000, 0.1, 0.05, 0.5) < got
    assert bernstein_cell_bound(100000, 0.1, 0.05, 0.25) > got


def test_convexity_event_bound_frozen_arithmetic():
    assert EVENT_BOUND_RECIP_K == 8**2 * 144**2 * 16 * 200 == 4246732800
    got = convexity_event_bound(10**6, 10, 1.0)
    assert math.isclose(got, 120.0 * math.exp(-10.0 / 4246732800.0), rel_tol=1e-12)
    assert convexity_event_bound(10**9, 10, 1.0) < got


def test_binomial_cell_bound_and_slack():
    assert math.isclose(binomial_cell_bound(1000, 0.1, 0.2),
                        2.0 * math.exp(-2.0), rel_tol=1e-12)
    assert math.isclose(binomial_cell_bound(1000, 0.1, 0.2, slack=-0.1),
                        2.0 * math.exp(-1.8), rel_tol=1e-12)
    assert binomial_cell_bound(1000, 0.1, 0.2, slack=-0.1) > binomial_cell_bound(1000, 0.1, 0.2)


def test_cell_variance_uniform_closed_form():
    mu = make_model("uniform", ())
    assert math.isclose(cell_variance(mu, 0.1, 0.4), 0.3**3 / 12.0, rel_tol=1e-9)
    assert cell_variance_bound(0.25, 1.0) == 0.25**3 / 6.0


@pytest.mark.parametrize("name,params", [("truncated-exponential", (1.0,)), ("uniform", ())])
def test_cell_variance_report_passes(name, params):
    m = make_model(name, params)
    rows = cell_variance_report(m, knot_mesh_convex(m, 8))
    assert len(rows) == 8
    for row in rows:
        assert row["pass"], row
        assert row["margin"] >= 0.0


def test_report_rows_share_the_check_format():
    # every inequality report yields rows in the lemma suite's own format:
    # its key order, and a pass that is exactly lhs <= rhs, with no slack
    rows = []
    for name, params in (("truncated-exponential", (1.0,)), ("beta-like", (2.0,)),
                         ("uniform", ())):
        m = make_model(name, params)
        for k in (5, 20):
            mesh = knot_mesh_convex(m, k)
            rows += smooth_interp_error_bounds(m, mesh)
            rows.append(broken_line_error_report(m, mesh))
            rows += cell_variance_report(m, mesh)
        d = sample(m, 60, seed_for(41, 60, 0))
        g = curve_sub(integrated_ecdf_curve(d), m.Fint_curve())
        rows += interp_error_report(g, knot_mesh_convex(m, 5))
    assert len(rows) == 3 * (2 * 4 + 5 + 20 + 2)
    for row in rows:
        assert tuple(row) == ("name", "pass", "lhs", "rhs", "margin"), row
        assert row["pass"] is (row["lhs"] <= row["rhs"]), row
        assert row["margin"] == row["rhs"] - row["lhs"], row


def test_interp_gap_report_refinement():
    m = make_model("truncated-exponential", (1.0,))
    ks = (25, 50, 100, 200)
    rows = interp_gap_report(m)
    assert [row["name"] for row in rows] == [f"interp-gap[k={k}]" for k in ks] + ["interp-gap-decay"]
    for row in rows:
        assert row["pass"], row
    assert rows[-1]["rhs"] == 0.25  # at least a 4x drop over 25 -> 200
    # the rescaled gap max |t - r| / delta^4 decreases at every refinement
    rescaled = []
    for k in ks:
        mesh = knot_mesh_convex(m, k)
        t, r = _population_defects(m, mesh)
        rescaled.append(float(np.max(np.abs(t - r) / mesh.deltas ** 4)))
    assert all(b <= a * (1.0 + 1e-9) for a, b in zip(rescaled, rescaled[1:])), rescaled
    assert rows[-1]["lhs"] == rescaled[-1] / rescaled[0]
