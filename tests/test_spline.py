"""Complete cubic spline: solver oracles, reproduction, error bounds."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

import shapedist.spline as spline_mod
from shapedist.curves import curve_sub, extrema
from shapedist.empirical import (
    ecdf,
    integrated_ecdf,
    integrated_ecdf_curve,
    sample,
    seed_for,
)
from shapedist.models import knot_mesh_convex, make_model
from shapedist.spline import (
    CubicSplineInterpolant,
    complete_spline,
    convexity_event,
    interp_error_report,
    interp_integrated_cdf,
    interp_integrated_ecdf,
    second_derivative_slopes,
    smooth_interp_error_bounds,
)


def dense_complete_slopes(knots, values, s0, sk):
    # independent route: assemble the full C2 system and hand it to
    # scipy's banded solver instead of the module's Thomas sweep.
    h = np.diff(knots)
    d = np.diff(values) / h
    k = len(h)
    s = np.empty(k + 1)
    s[0], s[k] = s0, sk
    m = k - 1
    if m == 0:
        return s
    inv = 1.0 / h
    diag = 2.0 * (inv[:-1] + inv[1:])
    rhs = 3.0 * (d[:-1] * inv[:-1] + d[1:] * inv[1:])
    rhs[0] -= inv[0] * s0
    rhs[-1] -= inv[-1] * sk
    ab = np.zeros((3, m))
    ab[1] = diag
    if m > 1:
        ab[0, 1:] = inv[1:-1]  # superdiagonal
        ab[2, :-1] = inv[1:-1]  # subdiagonal
    s[1:-1] = solve_banded((1, 1), ab, rhs)
    return s


def c2_jumps(spline):
    # second-derivative jumps at interior knots, from the cubic coefficients
    c = spline.as_curve().c
    h = np.diff(spline.knots)
    right_end = 2.0 * c[:-1, 2] + 6.0 * c[:-1, 3] * h[:-1]
    left_start = 2.0 * c[1:, 2]
    return np.abs(right_end - left_start)


@pytest.mark.parametrize("coeffs", [(1.0, 0.0, 0.0, 0.0), (0.3, -1.2, 0.7, 0.25), (0.0, 2.0, -3.0, 1.5)])
def test_cubic_reproduction(coeffs):
    # a cubic is its own complete spline once the end slopes match, so the
    # interpolant must reproduce it to rounding on any mesh.
    a0, a1, a2, a3 = coeffs
    p = np.polynomial.Polynomial([a0, a1, a2, a3])
    dp = p.deriv()
    knots = np.array([0.0, 0.4, 0.9, 2.0, 2.3, 4.0])
    sp = complete_spline(knots, p(knots), dp(knots[0]), dp(knots[-1]))
    t = np.linspace(0.0, 4.0, 1201)
    assert np.max(np.abs(sp(t) - p(t))) <= 1e-10


def test_thomas_matches_banded_solver():
    rng = np.random.default_rng(7)
    for k in (2, 3, 5, 17, 60):
        knots = np.cumsum(np.concatenate([[0.0], rng.uniform(0.2, 1.5, size=k)]))
        values = rng.normal(size=k + 1)
        s0, sk = rng.normal(size=2)
        sp = complete_spline(knots, values, s0, sk)
        want = dense_complete_slopes(knots, values, s0, sk)
        np.testing.assert_allclose(sp.slopes, want, rtol=1e-11, atol=1e-13)


def test_hermite_matches_basis_functions():
    # single-cell oracle: classical Hermite basis h00, h10, h01, h11.
    x0, x1 = 0.7, 2.2
    y0, y1, s0, s1 = 0.4, -1.1, 2.0, 0.3
    sp = CubicSplineInterpolant(np.array([x0, x1]), np.array([y0, y1]), np.array([s0, s1]))
    h = x1 - x0
    for x in np.linspace(x0, x1, 23):
        t = (x - x0) / h
        h00 = 2 * t**3 - 3 * t**2 + 1
        h10 = t**3 - 2 * t**2 + t
        h01 = -2 * t**3 + 3 * t**2
        h11 = t**3 - t**2
        want = y0 * h00 + h * s0 * h10 + y1 * h01 + h * s1 * h11
        assert math.isclose(float(sp(x)), want, rel_tol=1e-13, abs_tol=1e-13)


def test_complete_spline_is_c2_and_interpolates():
    rng = np.random.default_rng(11)
    knots = np.cumsum(np.concatenate([[0.0], rng.uniform(0.3, 1.0, size=8)]))
    values = rng.normal(size=9)
    sp = complete_spline(knots, values, 0.5, -0.25)
    np.testing.assert_allclose(sp(knots), values, atol=1e-12)
    crv = sp.as_curve()
    d1 = crv.derivative()
    assert math.isclose(float(d1(knots[0])), 0.5, abs_tol=1e-12)
    assert math.isclose(float(d1(knots[-1])), -0.25, abs_tol=1e-12)
    assert np.max(c2_jumps(sp)) <= 1e-9


def test_complete_spline_is_linear_in_data():
    knots = np.array([0.0, 1.0, 1.7, 2.1, 3.0])
    rng = np.random.default_rng(3)
    v1, v2 = rng.normal(size=5), rng.normal(size=5)
    sa = complete_spline(knots, v1, 1.0, 0.2)
    sb = complete_spline(knots, v2, -0.3, 0.9)
    ssum = complete_spline(knots, v1 + v2, 0.7, 1.1)
    np.testing.assert_allclose(ssum.slopes, sa.slopes + sb.slopes, rtol=1e-12, atol=1e-13)


def test_second_derivative_slopes_match_curve_route():
    # dual route: slope of S'' on each cell read off the twice-differentiated
    # piecewise polynomial, not the knot-slope bracket.
    m = make_model("truncated-exponential", (1.0,))
    sp = interp_integrated_cdf(m, knot_mesh_convex(m, 12))
    B = second_derivative_slopes(sp)
    d2 = sp.as_curve().derivative().derivative()
    h = np.diff(sp.knots)
    left = np.asarray(d2(sp.knots[:-1] + 1e-12))
    right = np.asarray(d2(sp.knots[1:] - 1e-12))
    np.testing.assert_allclose(B, (right - left) / (h - 2e-12), rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("name,params,k", [
    ("beta-like", (2.0,), 1000),
    ("shifted-power", (3.0, 1.0), 1500),
    ("truncated-exponential", (1.0,), 2000),
])
def test_second_derivative_slopes_on_fine_population_meshes(name, params, k):
    # On fine meshes the knot-slope bracket form cancels differently from the
    # coefficient form, by about k^2 * 1e-16 of the scale (1.0e-9 to 1.7e-9
    # here): the slopes must still come out, equal to the coefficient route.
    m = make_model(name, params)
    sp = interp_integrated_cdf(m, knot_mesh_convex(m, k))
    np.testing.assert_allclose(second_derivative_slopes(sp), 6.0 * sp.as_curve().c[:, 3],
                               rtol=1e-14, atol=0.0)


def test_interp_integrated_ecdf_interpolates_with_ecdf_end_slopes():
    m = make_model("truncated-exponential", (1.0,))
    mesh = knot_mesh_convex(m, 6)
    d = sample(m, 80, seed_for(40, 80, 0))
    sp = interp_integrated_ecdf(d, mesh)
    np.testing.assert_allclose(sp.values, integrated_ecdf(d, mesh.knots), atol=1e-14)
    assert math.isclose(sp.slopes[0], float(ecdf(d, mesh.knots[0])), abs_tol=1e-14)
    assert math.isclose(sp.slopes[-1], float(ecdf(d, mesh.knots[-1])), abs_tol=1e-14)


def test_interp_integrated_cdf_reproduces_smooth_target():
    m = make_model("truncated-exponential", (1.0,))
    mesh = knot_mesh_convex(m, 6)
    sp = interp_integrated_cdf(m, mesh)
    np.testing.assert_allclose(sp.values, m.Fint(mesh.knots), atol=1e-14)
    err = extrema(curve_sub(sp.as_curve(), m.Fint_curve()), 0.0, float(m.tau)).sup_abs
    assert err <= 5.0 / 384.0 * mesh.mesh**4 * 1.0 + 1e-12  # sup |f''| = 1 for Exp(1)


def test_exact_integrated_cdf_spline_has_convex_second_derivative():
    # for the smooth target the second-derivative slopes inherit the
    # convexity of the density: nondecreasing across cells.
    m = make_model("truncated-exponential", (1.0,))
    B = second_derivative_slopes(interp_integrated_cdf(m, knot_mesh_convex(m, 10)))
    assert np.all(np.diff(B) >= 0.0)
    assert np.all(B < 0.0)  # each slope approximates f' < 0; f'' > 0 makes them rise


def test_convexity_event_frozen_instances():
    m = make_model("truncated-exponential", (1.0,))
    d_big = sample(m, 4096, seed_for(70, 4096, 0))
    assert convexity_event(d_big, knot_mesh_convex(m, 2))
    d_small = sample(m, 512, seed_for(71, 512, 0))
    assert not convexity_event(d_small, knot_mesh_convex(m, 4))


@pytest.mark.parametrize(
    "name,params",
    [
        ("truncated-exponential", (1.0,)),
        ("truncated-exponential", (1.0, 1.0)),
        ("shifted-power", (3.0, 1.0)),
        ("beta-like", (2.0,)),
    ],
)
def test_smooth_interp_error_bounds_hold(name, params):
    m = make_model(name, params)
    for k in (5, 20):
        rows = smooth_interp_error_bounds(m, knot_mesh_convex(m, k))
        assert [r["name"] for r in rows] == [
            f"spline-error-vs-fourth-derivative[k={k}]",
            f"spline-deriv-error-vs-fourth-derivative[k={k}]",
            f"spline-deriv-error-vs-cdf-oscillation[k={k}]",
        ]
        for r in rows:
            assert r["pass"], r
            assert r["margin"] >= -1e-12


def test_smooth_interp_error_fourth_order_decay():
    # quadrupling the knot count should shrink the spline error by roughly
    # 4^4; insist on a conservative factor of 50.
    m = make_model("truncated-exponential", (1.0,))
    lhs5 = smooth_interp_error_bounds(m, knot_mesh_convex(m, 5))[0]["lhs"]
    lhs20 = smooth_interp_error_bounds(m, knot_mesh_convex(m, 20))[0]["lhs"]
    assert lhs20 < lhs5 / 50.0


def test_interp_error_report_on_centered_curve():
    m = make_model("truncated-exponential", (1.0,))
    mesh = knot_mesh_convex(m, 5)
    d = sample(m, 60, seed_for(41, 60, 0))
    g = curve_sub(integrated_ecdf_curve(d), m.Fint_curve())
    rows = interp_error_report(g, mesh)
    assert [r["name"] for r in rows] == [
        "spline-deriv-error-vs-oscillation",
        "spline-error-vs-oscillation",
    ]
    for r in rows:
        assert r["pass"], r


def test_corrupted_solver_is_detected(monkeypatch):
    # fault injection: a wrong interior solve must break the C2 property by
    # a visible amount, which is what the residual check looks at.
    good = spline_mod._solve_interior_slopes

    def bad(h, d, s0, sk):
        s = good(h, d, s0, sk)
        if len(s) > 2:
            s[1] += 0.05
        return s

    knots = np.array([0.0, 0.5, 1.1, 2.0, 3.2])
    values = np.array([0.0, 0.2, 0.9, 1.4, 1.5])
    assert np.max(c2_jumps(complete_spline(knots, values, 0.1, 0.0))) <= 1e-9
    monkeypatch.setattr(spline_mod, "_solve_interior_slopes", bad)
    corrupted = spline_mod.complete_spline(knots, values, 0.1, 0.0)
    assert np.max(c2_jumps(corrupted)) > 0.1


def test_spline_rejects_bad_input():
    with pytest.raises(ValueError):
        complete_spline(np.array([0.0, 1.0, 0.5]), np.zeros(3), 0.0, 0.0)
    with pytest.raises(ValueError):
        complete_spline(np.array([0.0, 1.0]), np.zeros(3), 0.0, 0.0)
    for knots in ([0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0]):
        knots = np.array(knots)
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            complete_spline(knots, np.zeros(3), 0.0, 0.0)
