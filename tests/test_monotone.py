"""Least concave majorant, Grenander density, monotone-side checks."""

from fractions import Fraction
import math

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from shapedist.curves import sup_norm
from shapedist.empirical import EmpiricalData, ecdf, ecdf_curve, sample, seed_for
from shapedist.models import constants, knot_mesh_monotone, make_model
from shapedist.monotone import (
    PiecewiseLinear,
    broken_line,
    broken_line_error_report,
    concave_majorant_points,
    concavity_event,
    grenander_density,
    kw_tail_bound,
    lcm,
    marshall_check,
)


def hull_oracle(data: EmpiricalData, t: float) -> float:
    """Upper concave hull of {(0,0)} + {(x_i, i/n)} via max over all chords."""
    pts = [(0.0, 0.0)] + [(float(x), (i + 1) / data.n) for i, x in enumerate(data.x)]
    best = 0.0
    for px, py in pts:
        for qx, qy in pts:
            if px <= t <= qx:
                val = py if qx == px else py + (qy - py) * (t - px) / (qx - px)
                best = max(best, val)
    return best


def test_two_point_hull():
    d = EmpiricalData(np.array([1.0, 3.0]))
    h = lcm(d)
    np.testing.assert_allclose(h.x, [0.0, 1.0, 3.0])
    np.testing.assert_allclose(h.y, [0.0, 0.5, 1.0])
    assert math.isclose(h.as_curve()(2.0), 0.75)
    assert math.isclose(grenander_density(h, 0.5), 0.5)
    assert math.isclose(grenander_density(h, 2.0), 0.25)


@pytest.mark.parametrize("seed", range(12))
def test_lcm_matches_chord_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    d = EmpiricalData(rng.exponential(size=n))
    curve = lcm(d).as_curve()
    for t in np.linspace(0.0, float(d.x[-1]), 60):
        assert math.isclose(curve(t), hull_oracle(d, t), abs_tol=1e-12)


def corner_hull(d: EmpiricalData):
    """The Python hull over every ECDF corner, as ``lcm`` built it before PAVA."""
    xs, ys = d.corners
    if xs[0] > 0.0:
        xs = np.concatenate([[0.0], xs])
        ys = np.concatenate([[0.0], ys])
    return concave_majorant_points(xs, ys)


@pytest.mark.parametrize("n", [512, 4096, 32768])
def test_lcm_vertices_equal_python_hull(n):
    for name, params in (("truncated-exponential", (1.0,)), ("beta-like", (2.0,))):
        d = sample(make_model(name, params), n, seed_for(31, n, 0))
        h, want = lcm(d), corner_hull(d)
        np.testing.assert_array_equal(h.x, want.x)
        np.testing.assert_array_equal(h.y, want.y)


def test_lcm_ties_match_python_hull():
    # Lattice data: many tied observations and exactly collinear corners.
    # Vertex sets may differ here (the Python hull sees the rounded heights
    # i/n, and can keep a vertex that is collinear in the counts i), so
    # compare the functions.
    rng = np.random.default_rng(12)
    samples = [rng.integers(0, 12, int(rng.integers(2, 300))).astype(float) for _ in range(60)]
    samples += [np.repeat(rng.exponential(size=7), rng.integers(1, 9, 7)) for _ in range(20)]
    for x in samples:
        d = EmpiricalData(x)
        if d.x[-1] == 0.0:
            continue
        h, want = lcm(d), corner_hull(d)
        t = np.linspace(0.0, float(d.x[-1]), 500)
        np.testing.assert_allclose(h(t), want(t), rtol=0, atol=1e-12)
        assert np.all(np.diff(h.slopes) < 0.0)


def test_lcm_collinear_witness():
    # Every corner of this sample lies on the chord from (0, 1/12) to (11, 1);
    # the Python hull over all corners keeps 4 and 9 through rounding.
    d = EmpiricalData(np.array([8, 0, 9, 4, 6, 7, 11, 8, 1, 4, 4, 11], dtype=float))
    h = lcm(d)
    np.testing.assert_array_equal(h.x, [0.0, 11.0])
    assert np.all(np.diff(h.slopes) < 0.0)


#: n = 130 lattice sample whose PAVA blocks end at x = 0, 1, 3, 11, with the
#: count slope 11 on both sides of x = 3
LATTICE_WITNESS = np.repeat(np.arange(12), [8, 12, 11, 11, 8, 10, 11, 8, 7, 13, 18, 13])


def test_lcm_drops_a_vertex_collinear_in_the_counts():
    # In the heights i/n the cross product at x = 3 rounds below zero, and a
    # float sign test kept the vertex; in the counts it is exactly zero.
    d = EmpiricalData(LATTICE_WITNESS.astype(float))
    h = lcm(d)
    np.testing.assert_array_equal(h.x, [0.0, 1.0, 11.0])
    np.testing.assert_array_equal(h.y, ecdf(d, h.x))  # the corners' own heights
    assert np.all(np.diff(h.slopes) < 0.0)


#: scaled lattice sample whose corner at x = 15.398548815531534 lies strictly
#: above the chord of its neighbours in exact arithmetic (the two x gaps are
#: 7946227976921003 and 7946227976921004 units of 2^-49), while the rounded
#: slopes on its two sides compare the other way
PAVA_WITNESS = np.array([0, 0, 0, 0, 1, 12, 23], dtype=float) * 1.2832124012942945


def test_exact_hull_keeps_the_pava_witness_vertex():
    d = EmpiricalData(PAVA_WITNESS)
    xs, ys = d.corners
    counts = np.rint(ys * d.n)
    hull = concave_majorant_points(xs, counts)
    assert hull.x.tolist() == exact_hull_x(xs.tolist(), counts.tolist())
    assert hull.x.tolist() == [0.0, 1.2832124012942945, 15.398548815531534, 29.513885229768775]


@pytest.mark.xfail(strict=True, reason="lcm takes its candidate vertices from PAVA on the "
                   "rounded slopes np.diff(ys) / dx, which pools away the exact hull's vertex "
                   "at x = 15.398548815531534; it passes once lcm checks every ECDF corner "
                   "against its hull")
def test_lcm_keeps_a_vertex_that_rounded_slopes_pool_away():
    d = EmpiricalData(PAVA_WITNESS)
    xs, ys = d.corners
    np.testing.assert_array_equal(lcm(d).x, concave_majorant_points(xs, np.rint(ys * d.n)).x)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=60), st.floats(0.01, 100.0))
@example(LATTICE_WITNESS.tolist(), 1.0)
def test_lcm_properties(ints, scale):
    d = EmpiricalData(np.array(ints, dtype=float) * scale)
    if d.x[-1] == 0.0:
        with pytest.raises(ValueError, match="positive observation"):
            lcm(d)
        return
    h = lcm(d)
    xs, ys = d.corners
    tol = 1e-12
    assert np.all(h(xs) >= ys - tol)                       # majorant at every corner
    np.testing.assert_allclose(h.y, ecdf(d, h.x), rtol=0, atol=tol)  # touches at vertices
    assert np.all(np.diff(h.slopes) < 0.0)                  # strictly concave
    assert h.x[0] == 0.0 and h.x[-1] == d.x[-1]
    assert math.isclose(h.y[-1], 1.0, rel_tol=0, abs_tol=tol)  # unit mass


def exact_hull_x(x, y):
    """Abscissae of the upper hull of the points, in rational arithmetic."""
    hull = []
    for p in zip(map(Fraction, x), map(Fraction, y)):
        while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
                                  >= (p[0] - hull[-2][0]) * (hull[-1][1] - hull[-2][1])):
            hull.pop()
        hull.append(p)
    return [float(px) for px, _ in hull]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=120), st.floats(0.01, 100.0))
@example([9, 1, 10, 5, 7, 8, 12, 9, 2, 5, 5, 12], 1.0)  # keeps x = 10; float signs drop it
def test_concave_majorant_points_is_exact_for_the_points_given(ints, scale):
    # ECDF corners with rounded heights i/n put many points within rounding
    # of a chord, where a float sign test alone can go either way
    d = EmpiricalData(np.array(ints, dtype=float) * scale)
    xs, ys = d.corners
    want = exact_hull_x([0.0] + xs.tolist(), [0.0] + ys.tolist())
    assert corner_hull(d).x.tolist() == want


def test_lcm_rejects_bad_samples():
    for bad in ([1.0, np.nan, 2.0], [1.0, np.inf], [-1.0, 2.0, 3.0]):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            lcm(EmpiricalData(np.array(bad)))
    with pytest.raises(ValueError, match="positive observation"):
        lcm(EmpiricalData(np.array([0.0])))
    with pytest.raises(ValueError, match="strictly increasing"):
        PiecewiseLinear(np.array([0.0, np.nan, 1.0]), np.zeros(3))


def test_piecewise_linear_refuses_non_finite_abscissae():
    # refused where the vertices enter, not later by as_curve()
    for x in ([0.0, np.inf], [-np.inf, 0.0, 1.0]):
        with pytest.raises(ValueError, match="vertex abscissae must be finite"):
            PiecewiseLinear(np.array(x), np.zeros(len(x)))


def test_lcm_dominates_and_touches():
    d = sample(make_model("truncated-exponential", (1.0,)), 100, seed=21)
    h = lcm(d)
    # dominates the ECDF everywhere, matches it at every hull vertex
    t = np.linspace(0.0, float(d.x[-1]), 1000)
    assert np.all(np.asarray(h.as_curve()(t)) >= np.asarray(ecdf(d, t)) - 1e-12)
    np.testing.assert_allclose(h.y, ecdf(d, h.x), atol=1e-12)
    # concavity: hull slopes strictly ordered
    slopes = np.diff(h.y) / np.diff(h.x)
    assert np.all(np.diff(slopes) <= 1e-12)


def test_lcm_idempotent():
    d = sample(make_model("beta-like", (2.0,)), 64, seed=5)
    h = lcm(d)
    again = concave_majorant_points(h.x, h.y)
    np.testing.assert_array_equal(again.x, h.x)
    np.testing.assert_array_equal(again.y, h.y)


def test_grenander_density_integrates_to_one():
    d = sample(make_model("truncated-exponential", (1.0, 1.0)), 333, seed=8)
    h = lcm(d)
    widths = np.diff(h.x)
    slopes = np.diff(h.y) / widths
    assert math.isclose(float(np.sum(slopes * widths)), 1.0, rel_tol=1e-12)
    # nonincreasing step density
    mid = 0.5 * (h.x[:-1] + h.x[1:])
    dens = np.asarray(grenander_density(h, mid))
    assert np.all(np.diff(dens) <= 1e-12)


def test_marshall_inequality_many_replicates():
    # the LCM is never farther from the true concave CDF than the ECDF is
    m = make_model("truncated-exponential", (1.0, 1.0))
    interval = (0.0, 1.0)
    for rep in range(200):
        d = sample(m, 200, seed_for(77, 200, rep))
        lhs, rhs = marshall_check(lcm(d), d, m.F_curve(), interval)
        assert lhs <= rhs + 1e-12


def test_broken_line_interpolates():
    m = make_model("truncated-exponential", (1.0,))
    knots = np.array([0.0, 0.3, 1.0, m.tau])
    bl = broken_line(m.F, knots)
    np.testing.assert_allclose(bl.y, m.F(knots), atol=1e-14)
    c = bl.as_curve()
    assert math.isclose(c(0.65), 0.5 * (m.F(0.3) + m.F(1.0)), rel_tol=1e-12)


@pytest.mark.parametrize("k", [5, 20, 80])
def test_broken_line_error_bound(k):
    for name, params in (("truncated-exponential", (1.0, 1.0)), ("beta-like", (2.0,))):
        model = make_model(name, params)
        row = broken_line_error_report(model, knot_mesh_monotone(model, k))
        assert row["pass"], row
        assert row["lhs"] <= row["rhs"] + 1e-15


def test_concavity_event_small_cases():
    mesh = knot_mesh_monotone(make_model("uniform", ()), 2)
    np.testing.assert_allclose(mesh.knots, [0.0, 0.5, 1.0])
    # equal chord slopes count as concave
    assert concavity_event(EmpiricalData(np.array([0.25, 0.75])), mesh)
    # all mass in the upper half: slopes 0 then 2 -> not concave
    assert not concavity_event(EmpiricalData(np.array([0.6, 0.9])), mesh)


def test_concavity_event_frequency_grows():
    m = make_model("truncated-exponential", (1.0, 1.0))
    mesh = knot_mesh_monotone(m, 3)
    freq = []
    for n in (100, 3000):
        hits = sum(
            concavity_event(sample(m, n, seed_for(5, n, r)), mesh) for r in range(150)
        )
        freq.append(hits / 150)
    assert freq[-1] >= freq[0]
    assert freq[-1] >= 0.9


def test_kw_tail_bound_frozen_arithmetic():
    # 2k exp(-n beta1^2/(80 k^3)) at (1e5, 20, 1): 40 exp(-5/32)
    assert math.isclose(kw_tail_bound(100000, 20, 1.0), 34.2138130922969, rel_tol=1e-12)
    # decreasing in n, increasing in k (for this argument range)
    assert kw_tail_bound(200000, 20, 1.0) < kw_tail_bound(100000, 20, 1.0)
    assert kw_tail_bound(100000, 40, 1.0) > kw_tail_bound(100000, 20, 1.0)


def test_monotone_event_bound_nonvacuous_point():
    # the bound must certify the (high) concavity frequency somewhere useful
    m = make_model("truncated-exponential", (1.0, 1.0))
    beta1 = constants(m).beta1
    val = kw_tail_bound(4_000_000, 3, beta1)
    assert val < 1.0


def test_marshall_distances_use_full_range():
    m = make_model("truncated-exponential", (1.0, 1.0))
    d = sample(m, 50, seed=101)
    lhs, rhs = marshall_check(lcm(d), d, m.F_curve(), (0.0, 1.0))
    # rhs is the plain KS distance over the same interval
    ks = sup_norm(ecdf_curve(d), m.F_curve(), (0.0, 1.0))
    assert math.isclose(rhs, ks, rel_tol=1e-12)
    assert 0.0 < lhs <= rhs
