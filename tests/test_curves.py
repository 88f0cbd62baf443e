"""Exact extrema and moduli: each stationary-point path against dense evaluation."""

import numpy as np
import pytest
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from shapedist.curves import (
    CurveSum,
    PiecewisePoly,
    SmoothCurve,
    _bisect_many,
    _hybrid_stationary,
    _shifted,
    as_curve,
    curve_sub,
    extrema,
    modulus,
)
from shapedist.empirical import EmpiricalData, ecdf_curve, sample, seed_for
from shapedist.models import knot_mesh_convex, make_model
from shapedist.spline import complete_spline, interp_integrated_ecdf

MODEL = make_model("truncated-exponential", (1.0,))  # tau = log 4
TOL = 1e-12


def cubic_with_jumps(seed):
    """Random cubic pieces, discontinuous at every breakpoint."""
    rng = np.random.default_rng(seed)
    x = np.concatenate([[0.0], np.sort(rng.uniform(0.0, MODEL.tau, 6)), [MODEL.tau]])
    return PiecewisePoly(x, rng.normal(size=(len(x) - 1, 4)))


def linear_minus_cdf(seed):
    """Linear pieces with jumps minus ``F``; slopes within the range of ``f``,
    so pieces have interior stationary points."""
    rng = np.random.default_rng(seed)
    x = np.concatenate([[0.0], np.sort(rng.uniform(0.0, MODEL.tau, 6)), [MODEL.tau]])
    c = np.zeros((len(x) - 1, 4))
    c[:, 0] = rng.normal(scale=0.1, size=len(c))
    c[:, 1] = rng.uniform(0.3, 0.95, size=len(c))
    return curve_sub(PiecewisePoly(x, c), MODEL.F_curve())


def ecdf_minus_cdf(seed):
    """Constant pieces with a jump at every order statistic, minus ``F``."""
    return curve_sub(ecdf_curve(sample(MODEL, 40, seed_for(seed, 40, 0))), MODEL.F_curve())


def centered_spline(seed):
    """Cubic pieces plus a smooth part: spline of ``Y_n`` minus ``Y``."""
    data = sample(MODEL, 200, seed_for(seed, 200, 0))
    spline = interp_integrated_ecdf(data, knot_mesh_convex(MODEL, 6))
    return curve_sub(spline.as_curve(), MODEL.Fint_curve())


def mixed_minus_integrated_cdf(seed):
    """Pieces alternately exactly linear and cubic, minus ``Y``, so the cascade
    runs to depth 1 on some pieces and depth 2 on others.  About each piece
    midpoint ``m`` the derivative is ``F(m) - F(t)`` on linear pieces (one
    stationary point) and ``e (t - m) - f''(m) (t - m)^3 / 6 + ...`` on cubic
    pieces (three, which only the depth-2 cascade separates)."""
    rng = np.random.default_rng(seed)
    x = np.concatenate([[0.0], np.sort(rng.uniform(0.0, MODEL.tau, 6)), [MODEL.tau]])
    d = 0.5 * np.diff(x)  # midpoint offset
    m = x[:-1] + d
    e = MODEL.fsecond(m) * (rng.uniform(0.4, 0.8, len(m)) * d) ** 2 / 6.0
    # p'(t) = F(m) + (f(m) + e) (t - m) + f'(m) (t - m)^2 / 2, in offsets u = t - x_i
    A, B, C = MODEL.F(m), MODEL.f(m) + e, 0.5 * MODEL.fprime(m)
    c = np.column_stack([rng.normal(scale=0.1, size=len(m)),
                         A - B * d + C * d * d, 0.5 * (B - 2.0 * C * d), C / 3.0])
    c[::2, 1:] = 0.0
    c[::2, 1] = A[::2]
    return curve_sub(PiecewisePoly(x, c), MODEL.Fint_curve())


def smooth_only(seed):
    """No polynomial part: ``F(t) - c t``, with an interior maximum at ``log(1/c)``."""
    c = 0.3 + 0.1 * seed
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    line = SmoothCurve(lambda t: c * np.asarray(t, dtype=float), lambda t: c + zero(t), zero, zero)
    return MODEL.F_curve() - line


PATHS = {
    "cubic": cubic_with_jumps,
    "constant+smooth": ecdf_minus_cdf,
    "linear+smooth": linear_minus_cdf,
    "cubic+smooth": centered_spline,
    "mixed+smooth": mixed_minus_integrated_cdf,
    "smooth": smooth_only,
}


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_extrema_attained_and_bound_dense_grid(path, seed):
    g = as_curve(PATHS[path](seed))
    assert (g.poly is None) == (path == "smooth")
    assert (g.smooth is None) == (path == "cubic")
    lo, hi = 0.05, 0.95 * MODEL.tau
    e = extrema(g, lo, hi)
    assert lo <= e.min_at <= hi and lo <= e.max_at <= hi
    for val, at in ((e.min_val, e.min_at), (e.max_val, e.max_at)):
        got = (float(g(at)), float(g.left_limit(at)))
        assert min(abs(v - val) for v in got) <= TOL, (val, got)

    grid = np.linspace(lo, hi, 20001)
    vals = np.asarray(g(grid))
    assert vals.min() >= e.min_val - TOL and vals.max() <= e.max_val + TOL
    if g.poly is not None:
        bx = g.poly.x[(g.poly.x > lo) & (g.poly.x < hi)]
        limits = np.concatenate([np.asarray(g(bx)), np.asarray(g.left_limit(bx))])
        assert limits.min() >= e.min_val - TOL and limits.max() <= e.max_val + TOL


def test_smooth_only_extremum_is_the_stationary_point():
    e = extrema(smooth_only(2), 0.0, MODEL.tau)  # F(t) - t/2 peaks at log 2
    assert abs(e.max_at - np.log(2.0)) < 1e-9
    assert e.max_val == pytest.approx(0.5 - 0.5 * np.log(2.0), abs=TOL)
    assert e.min_at == 0.0 and e.min_val == 0.0


@pytest.mark.parametrize("path", ["linear+smooth", "cubic+smooth", "mixed+smooth"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hybrid_stationary_brackets_every_sign_change(path, seed):
    g = as_curve(PATHS[path](seed))
    x = g.poly.x
    roots = _hybrid_stationary(g.poly.c, x[:-1], x[:-1], x[1:], g.smooth)
    dg = g.derivative()
    counts = []
    for j in range(g.poly.npieces):
        r = roots[j][~np.isnan(roots[j])]
        counts.append(len(r))
        assert np.all(np.abs(dg(r)) <= TOL)
        t = np.linspace(x[j], x[j + 1], 2001)[1:-1]
        v = dg(t)
        for k in np.flatnonzero(v[:-1] * v[1:] < 0.0):
            assert np.any((r >= t[k]) & (r <= t[k + 1])), (j, t[k])
    if path == "mixed+smooth":
        assert counts[1::2] == [3] * len(counts[1::2]) and counts[::2] == [1] * len(counts[::2])


def test_cubic_plus_smooth_piece_returns_both_stationary_points():
    # g(t) = p(t) + t/10 with g'(t) = 3 (t - 0.25)(t - 0.7) on the one piece [0, 1]
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    line = SmoothCurve(lambda t: 0.1 * np.asarray(t, dtype=float), lambda t: 0.1 + zero(t), zero, zero)
    c = np.array([[0.0, 0.425, -1.425, 1.0]])
    roots = _hybrid_stationary(c, np.array([0.0]), np.array([0.0]), np.array([1.0]), line)
    np.testing.assert_allclose(np.sort(roots[~np.isnan(roots)]), [0.25, 0.7], atol=1e-12)
    e = extrema(CurveSum(PiecewisePoly(np.array([0.0, 1.0]), c), line), 0.1, 0.9)
    assert abs(e.max_at - 0.25) < 1e-12 and abs(e.min_at - 0.7) < 1e-12


def test_bisect_many_brackets_independent_of_batch():
    # narrow brackets stop after fewer steps than wide ones; each result must
    # be the one it gets when bisected alone
    rng = np.random.default_rng(7)
    a = np.concatenate([rng.uniform(0.0, 1e-3, 6), rng.uniform(-1e6, 0.0, 6)])
    b = np.concatenate([a[:6] + 1e-3, rng.uniform(1.0, 1e6, 6)])
    r = a + rng.uniform(0.1, 0.9, 12) * (b - a)
    batch = _bisect_many(lambda t: np.tanh(t - r), a, b)
    for j in range(len(a)):
        alone = _bisect_many(lambda t: np.tanh(t - r[j]), a[j:j + 1], b[j:j + 1])
        assert alone[0] == batch[j], (j, alone[0], batch[j])


def test_piecewise_poly_rejects_bad_breakpoints():
    for x in ([0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0], [0.0, 1.0, 0.5]):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            PiecewisePoly(np.array(x), np.zeros((2, 4)))


def sliding_window_modulus(g, width, lo, hi, points=40001):
    """``max |g(t) - g(s)|`` over grid pairs at most ``width`` apart, and the grid step."""
    t = np.linspace(lo, hi, points)
    step = t[1] - t[0]
    vals = np.asarray(g(t))
    size = 2 * int(np.floor(width / step)) + 1
    hi_win = maximum_filter1d(vals, size, mode="nearest")
    lo_win = minimum_filter1d(vals, size, mode="nearest")
    return float(np.max(np.maximum(hi_win - vals, vals - lo_win))), step


def lipschitz(g, lo, hi):
    """Largest ``|g'|`` on a dense grid of [lo, hi]."""
    return float(np.max(np.abs(as_curve(g).derivative()(np.linspace(lo, hi, 20001)))))


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_modulus_continuous_cubic_spline_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    knots = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 7)), [1.0]])
    spline = complete_spline(knots, rng.normal(size=len(knots)), rng.normal(), rng.normal())
    g = spline.as_curve()
    slope = lipschitz(g, 0.0, 1.0)
    pinned = []
    for width in (0.02, 0.07, 0.19, 0.45):
        exact = modulus(g, width, (0.0, 1.0))
        brute, step = sliding_window_modulus(g, width, 0.0, 1.0)
        assert brute <= exact + TOL
        assert exact <= brute + 2.0 * slope * step + TOL
        # a pair exactly ``width`` apart, both ends inside (0, 1), sets the modulus
        inc = extrema(curve_sub(_shifted(as_curve(g), width), g), 0.0, 1.0 - width)
        at = inc.max_at if inc.max_val >= -inc.min_val else inc.min_at
        pinned.append(0.0 < at < 1.0 - width and inc.sup_abs == exact)
    assert any(pinned)


@pytest.mark.parametrize("path", ["cubic", "constant+smooth", "linear+smooth", "smooth"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_modulus_matches_brute_force(path, seed):
    g = PATHS[path](seed)
    lo, hi = 0.05, 0.95 * MODEL.tau
    slope = lipschitz(g, lo, hi)
    for width in (0.03, 0.2, 0.6):
        exact = modulus(g, width, (lo, hi))
        brute, step = sliding_window_modulus(g, width, lo, hi)
        assert brute <= exact + TOL
        assert exact <= brute + 2.0 * slope * step + TOL, (width, exact, brute)


def test_modulus_shift_drops_collapsed_pieces():
    # shifting by 0.3 maps 0, 1e-20 and 2e-20 to one breakpoint
    g = ecdf_curve(EmpiricalData(np.array([1e-20, 2e-20, 0.5])), upto=2.0)
    assert modulus(g, 0.3, (0.0, 2.0)) == 0.6666666666666666
    # a curve shorter than the width has no pair of its own that far apart;
    # its last piece continues to the end of the interval
    line = PiecewisePoly(np.array([0.0, 0.5]), np.array([[0.0, 1.0, 0.0, 0.0]]))
    assert modulus(line, 0.6, (0.0, 1.0)) == 0.6
