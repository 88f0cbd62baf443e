"""Exact extrema and moduli: each stationary-point path against dense evaluation."""

from fractions import Fraction
import tracemalloc

from hypothesis import assume, example, given, settings, strategies as st
import numpy as np
import pytest
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from shapedist.curves import (
    CurveSum,
    Extrema,
    PiecewisePoly,
    SmoothCurve,
    _bisect_many,
    _difference_extrema,
    _eval_hybrid,
    _hybrid_extrema,
    _hybrid_stationary,
    _poly_stationary,
    _range_extrema,
    _shifted,
    _window,
    as_curve,
    curve_sub,
    extrema,
    modulus,
    sup_norm,
)
from shapedist.convexlse import fit_lse
from shapedist.empirical import EmpiricalData, ecdf_curve, integrated_ecdf_curve, sample, seed_for
from shapedist.models import knot_mesh_convex, make_model
from shapedist.monotone import broken_line, lcm, marshall_check
from shapedist.spline import complete_spline, interp_integrated_cdf, interp_integrated_ecdf

MODEL = make_model("truncated-exponential", (1.0,))  # tau = log 4
TOL = 1e-12


def cubic_with_jumps(seed):
    """Random cubic pieces, discontinuous at every breakpoint."""
    rng = np.random.default_rng(seed)
    x = np.concatenate([[0.0], np.sort(rng.uniform(0.0, MODEL.tau, 6))])
    return PiecewisePoly(x, rng.normal(size=(len(x), 4)))


def linear_minus_cdf(seed):
    """Linear pieces with jumps minus ``F``; slopes within the range of ``f``,
    so pieces have interior stationary points."""
    rng = np.random.default_rng(seed)
    x = np.concatenate([[0.0], np.sort(rng.uniform(0.0, MODEL.tau, 6))])
    c = np.zeros((len(x), 4))
    c[:, 0] = rng.normal(scale=0.1, size=len(c))
    c[:, 1] = rng.uniform(0.3, 0.95, size=len(c))
    return curve_sub(PiecewisePoly(x, c), MODEL.F_curve())


def lcm_minus_ecdf(seed):
    """Lines minus steps, no smooth part: the LCM of a sample minus its ECDF."""
    data = sample(MODEL, 40, seed_for(seed, 40, 0))
    return curve_sub(lcm(data).as_curve(), ecdf_curve(data))


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
    return curve_sub(PiecewisePoly(x[:-1], c), MODEL.Fint_curve())


def smooth_only(seed):
    """No polynomial part: ``F(t) - c t``, with an interior maximum at ``log(1/c)``."""
    c = 0.3 + 0.1 * seed
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    line = SmoothCurve(lambda t: c * np.asarray(t, dtype=float), lambda t: c + zero(t), zero, zero)
    return MODEL.F_curve() - line


PATHS = {
    "cubic": cubic_with_jumps,
    "constant+smooth": ecdf_minus_cdf,
    "linear": lcm_minus_ecdf,
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
    assert (g.smooth is None) == (path in ("cubic", "linear"))
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
    ends = np.append(x[1:], MODEL.tau)  # the last piece taken up to tau
    roots = _hybrid_stationary(g.poly.c, x, x, ends, g.smooth)
    dg = g.derivative()
    counts = []
    for j in range(g.poly.npieces):
        r = roots[j][~np.isnan(roots[j])]
        counts.append(len(r))
        assert np.all(np.abs(dg(r)) <= TOL)
        t = np.linspace(x[j], ends[j], 2001)[1:-1]
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
    e = extrema(CurveSum(PiecewisePoly(np.array([0.0]), c), line), 0.1, 0.9)
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
            PiecewisePoly(np.array(x), np.zeros((3, 4)))
    # one row of coefficients per piece start, and at least one start
    with pytest.raises(ValueError, match=r"must be \(3, 4\)"):
        PiecewisePoly(np.array([0.0, 1.0, 2.0]), np.zeros((2, 4)))
    with pytest.raises(ValueError, match="at least one piece"):
        PiecewisePoly(np.array([]), np.zeros((0, 4)))


def test_curves_are_given_by_their_piece_starts():
    # no constructor makes up a breakpoint to close a curve
    for shift in (0.0, 0.25):  # X_(1) = 0, then X_(1) > 0
        d = EmpiricalData(np.array([0.0, 0.5, 0.5, 2.0]) + shift)
        starts = d.corners[0] if shift == 0.0 else np.concatenate([[0.0], d.corners[0]])
        assert np.array_equal(ecdf_curve(d).x, starts)
        assert np.array_equal(integrated_ecdf_curve(d).x, starts)
    data = sample(MODEL, 200, seed_for(2, 200, 0))
    fit = fit_lse(data)
    for curve in (fit.density_curve(), fit.cdf_curve(), fit.integrated_cdf_curve()):
        assert np.array_equal(curve.x, np.concatenate([[0.0], fit.kinks]))
    majorant = lcm(data)
    assert np.array_equal(majorant.as_curve().x[1:], majorant.x)
    knots = np.array([0.0, 0.3, 0.5, 1.0])
    spline = complete_spline(knots, np.array([0.0, 1.0, -1.0, 2.0]), 0.5, -0.5)
    assert np.array_equal(spline.as_curve().x, knots[:-1])


@pytest.mark.filterwarnings("error")
def test_subnormal_cubic_coefficient_warns_nothing():
    # with 3 c3 subnormal the stationary point q / (3 c3) overflows to an
    # infinite root, which lies outside the piece and drops out
    cubic = PiecewisePoly(np.array([0.0]), np.array([[0.0, -1.0, 0.5, 1e-309]]))
    assert extrema(cubic, 0.0, 1.0) == Extrema(-0.5, 1.0, 0.0, 0.0)


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


@pytest.mark.parametrize("path", ["cubic", "linear", "constant+smooth", "linear+smooth", "smooth"])
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
    g = ecdf_curve(EmpiricalData(np.array([1e-20, 2e-20, 0.5])))
    assert modulus(g, 0.3, (0.0, 2.0)) == 0.6666666666666666
    # a curve of one piece runs on to the end of the interval
    line = PiecewisePoly(np.array([0.0]), np.array([[0.0, 1.0, 0.0, 0.0]]))
    assert modulus(line, 0.6, (0.0, 1.0)) == 0.6
    # the shift rounds both starts onto -0.3; the last piece has no next start
    # to collapse onto, so it stays
    step = PiecewisePoly(np.array([0.0, 1e-20]), np.array([[0.0, 0, 0, 0], [1.0, 0, 0, 0]]))
    assert modulus(step, 0.3, (0.0, 1.0)) == 1.0


def test_extrema_and_modulus_continue_the_end_pieces():
    # a line whose only piece starts at 0 is the line t -> t on either side
    line = PiecewisePoly(np.array([0.0]), np.array([[0.0, 1.0, 0.0, 0.0]]))
    assert extrema(line, 0.0, 1.0) == Extrema(0.0, 0.0, 1.0, 1.0)
    assert [modulus(line, w, (0.0, 1.0)) for w in (0.2, 0.6, 1.0)] == [0.2, 0.6, 1.0]
    # windows wholly outside the breakpoints
    assert extrema(line, -1.0, -0.5) == Extrema(-1.0, -1.0, -0.5, -0.5)
    assert extrema(line, 2.0, 3.0) == Extrema(2.0, 2.0, 3.0, 3.0)


@pytest.mark.parametrize("x, c, interval", [
    # slope -1 up to a jump to 5 at 1, then constant from there on
    ([0.0, 1.0], [[0.0, -1.0, 0.0, 0.0], [5.0, 0.0, 0.0, 0.0]], (0.0, 4.0)),
    # its mirror image, continued left of the first breakpoint
    ([-2.0, -1.0], [[5.0, 0.0, 0.0, 0.0], [-1.0, 1.0, 0.0, 0.0]], (-4.0, 0.0)),
])
def test_modulus_past_the_breakpoints_counts_true_increments(x, c, interval):
    # the jump of 6 sets the modulus; continuing the end pieces of the
    # increment curve instead of the curve itself would give 7.5
    g = PiecewisePoly(np.array(x), np.array(c))
    exact = modulus(g, 1.5, interval)
    assert exact == 6.0
    brute, _ = sliding_window_modulus(g, 1.5, *interval)
    assert brute <= exact + TOL


def test_modulus_does_not_pair_a_left_limit_with_the_value_width_away():
    # 0 on [0, 1), 5 on [1, 2), 10 on [2, 3]: the left limit 0 at 1 and the
    # value 10 at 2 are more than 1 apart, so no admissible pair differs by 10
    g = PiecewisePoly(np.array([0.0, 1.0, 2.0]),
                      np.array([[0.0, 0, 0, 0], [5.0, 0, 0, 0], [10.0, 0, 0, 0]]))
    assert [modulus(g, w, (0.0, 3.0)) for w in (0.999, 1.0, 1.001)] == [5.0, 5.0, 10.0]


def lattice_modulus(g, width, lo, hi):
    """Modulus of a step curve with jumps on the 1/4 grid, by brute force.

    Candidates are the 1/8-grid points of [lo, hi] and the points 1e-9 to
    their left (the left limits), and a pair is admissible when it is at
    most ``width`` apart, decided in exact lattice arithmetic.
    """
    k = np.arange(round(8 * lo), round(8 * hi) + 1)
    eighths = np.concatenate([k, k[1:]])
    left = np.concatenate([np.zeros(len(k)), np.ones(len(k) - 1)])  # 1: 1e-9 to the left
    vals = g(eighths / 8.0 - 1e-9 * left)
    d = eighths[None, :] - eighths[:, None]
    e = left[None, :] - left[:, None]
    w = round(8 * width)
    # |d/8 - e*1e-9| <= width, with d and 8*width integers
    ok = ((d < w) | ((d == w) & (e >= 0))) & ((d > -w) | ((d == -w) & (e <= 0)))
    return float(np.max(np.abs(vals[None, :] - vals[:, None])[ok]))


@pytest.mark.parametrize("seed", range(12))
def test_modulus_of_lattice_step_curves_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    wrong = []
    for _ in range(12):
        x = np.arange(rng.integers(-4, 2), rng.integers(6, 14) + 1) / 4.0
        c = np.zeros((len(x) - 1, 4))
        c[:, 0] = rng.integers(0, 10, len(c))
        g = PiecewisePoly(x[:-1], c)
        lo, hi = np.sort(rng.choice(np.arange(-8, 120), 2, replace=False)) / 8.0
        for width in np.arange(1, min(round(4 * (hi - lo)), 12) + 2) / 4.0:
            got, want = modulus(g, width, (lo, hi)), lattice_modulus(g, width, lo, hi)
            if got != want:
                wrong.append((lo, hi, width, got, want))
    assert not wrong


def test_sum_past_one_operands_breakpoints_continues_that_operand():
    # t on [0, 1] minus a step from 0 to 5 at 1.5: each operand continues its
    # own end piece, so |a - b| peaks at 3.5 (left limit at 1.5) on [0, 2]
    a = PiecewisePoly(np.array([0.0]), np.array([[0.0, 1.0, 0.0, 0.0]]))
    b = PiecewisePoly(np.array([0.0, 1.5]),
                      np.array([[0.0, 0.0, 0.0, 0.0], [5.0, 0.0, 0.0, 0.0]]))
    assert sup_norm(a, b, (0.0, 2.0)) == 3.5
    assert extrema(curve_sub(a, b), 0.0, 2.0) == Extrema(-3.5, 1.5, 1.5, 1.5)
    t = np.linspace(-1.0, 4.0, 50001)
    d = a - b
    np.testing.assert_allclose(d(t), a(t) - b(t), rtol=0.0, atol=TOL)
    np.testing.assert_allclose(d.left_limit(t), a.left_limit(t) - b.left_limit(t),
                               rtol=0.0, atol=TOL)
    # disjoint breakpoint ranges are no longer an error
    far = PiecewisePoly(np.array([5.0]), np.array([[1.0, 2.0, 0.0, 0.0]]))
    np.testing.assert_allclose((a - far)(t), a(t) - far(t), rtol=0.0, atol=TOL)


def test_marshall_lhs_is_the_sup_distance_of_the_lcm_itself():
    # the LCM holds 1 past X_(n), as PiecewiseLinear.__call__ does; a curve
    # continuing the last slope there overstated this replicate's lhs (0.01814)
    model = make_model("truncated-exponential", (1.0, 1.0))
    data = sample(model, 200, seed_for(9001, 200, 211))
    majorant = lcm(data)
    lhs, _ = marshall_check(majorant, data, model.F_curve(), (0.0, 1.0))
    assert lhs == 0.014716879507069958
    t = np.linspace(0.0, 1.0, 200001)
    dense = np.max(np.abs(majorant(t) - model.F(t)))
    assert dense <= lhs <= dense + 1e-5
    curve = majorant.as_curve()
    t = np.linspace(-2.0, 3.0, 5001)
    np.testing.assert_allclose(curve(t), majorant(t), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("lo, hi", [(np.nan, 1.0), (0.0, np.nan), (0.0, np.inf),
                                    (-np.inf, 1.0), (1.0, 1.0), (1.0, 0.0)])
def test_bad_intervals_are_refused(lo, hi):
    line = PiecewisePoly(np.array([0.0]), np.array([[0.0, 1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="interval must be finite"):
        extrema(line, lo, hi)
    with pytest.raises(ValueError, match="interval must be finite"):
        sup_norm(line, -line, (lo, hi))
    with pytest.raises(ValueError, match="interval must be finite"):
        modulus(line, 0.1, (lo, hi))


def test_numbers_are_not_curves():
    # a constant is the zero-slope polynomial piece; a bare number is refused
    with pytest.raises(TypeError, match="cannot interpret float as a curve"):
        as_curve(0.0)
    line = PiecewisePoly(np.array([0.0]), np.array([[0.0, 1.0, 0.0, 0.0]]))
    with pytest.raises(TypeError, match="as a curve"):
        sup_norm(line, 0.0, (0.0, 1.0))


@pytest.mark.parametrize("width", [np.nan, np.inf, -np.inf, 0.0, -0.1])
def test_bad_widths_are_refused(width):
    line = PiecewisePoly(np.array([0.0]), np.array([[0.0, 1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="width must be finite and positive"):
        modulus(line, width, (0.0, 1.0))


# The engine before the linear-time merge, kept as a bitwise oracle: both
# operands retargeted as full n x 4 arrays onto the ``np.union1d`` grid, and
# every piece evaluated at its two ends and two stationary-point columns.  It
# is verbatim but for the format: that grid spanned the overlap of the two
# breakpoint ranges, and here its points are both operands' piece starts, and
# its first piece runs on to the left and its last to the right, as every
# curve's do.

def _union_retarget(self, xs):
    """Re-express on a finer grid of piece starts."""
    i = np.clip(np.searchsorted(self.x, xs, side="right") - 1, 0, self.npieces - 1)
    d = xs - self.x[i]
    c0, c1, c2, c3 = (self.c[i, j] for j in range(4))
    n0 = ((c3 * d + c2) * d + c1) * d + c0
    n1 = (3.0 * c3 * d + 2.0 * c2) * d + c1
    n2 = 3.0 * c3 * d + c2
    return PiecewisePoly(xs, np.column_stack([n0, n1, n2, c3]))


def _union_difference(self, other):
    xs = np.union1d(self.x, other.x)
    a = _union_retarget(self, xs)
    b = _union_retarget(other, xs)
    return PiecewisePoly(xs, a.c - b.c)


def _clipped_window(poly, lo, hi):
    x = poly.x
    m = poly.npieces
    i0 = int(np.clip(np.searchsorted(x, lo, side="right") - 1, 0, m - 1))
    i1 = int(np.clip(np.searchsorted(x, hi, side="right") - 1, 0, m - 1))
    idx = np.arange(i0, i1 + 1)
    start = np.where(idx == 0, -np.inf, 0.0)
    width = np.append(np.diff(x), np.inf)[idx]
    return idx, np.clip(lo - x[idx], start, width), np.clip(hi - x[idx], start, width)


def _union_poly_extrema(pp, lo, hi, on=None):
    """The union engine's extrema; ``on``, a mask over the pieces of ``pp``,
    keeps only the pieces it marks.  A zero extremum is returned as ``+0.0``."""
    idx, ulo, uhi = _clipped_window(pp, lo, hi)
    if on is not None:
        idx, ulo, uhi = idx[on[idx]], ulo[on[idx]], uhi[on[idx]]
    cc = pp.c[idx]
    # a piece without an interior root repeats its left end
    us = np.column_stack([ulo, uhi, np.fmax(_poly_stationary(cc.T, ulo, uhi), ulo[:, None])])
    vals = ((cc[:, 3, None] * us + cc[:, 2, None]) * us + cc[:, 1, None]) * us + cc[:, 0, None]
    flat_v = vals.ravel()
    flat_t = (pp.x[idx][:, None] + us).ravel()
    kmin = int(np.argmin(flat_v))
    kmax = int(np.argmax(flat_v))
    return Extrema(float(flat_v[kmin]) + 0.0, float(flat_t[kmin]),
                   float(flat_v[kmax]) + 0.0, float(flat_t[kmax]))


def _hex(e):
    return [float.hex(v) for v in (e.min_val, e.min_at, e.max_val, e.max_at)]


def _random_operands(rng, deg_a, deg_b, layout):
    """Two piecewise polynomials of the given degrees whose pieces span
    overlapping domains, and the ``(first, last)`` ends of each domain."""
    xa = np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, rng.integers(1, 40))]))
    if layout == "shared":
        xb = xa.copy()
    elif layout == "disjoint":
        xb = np.unique(np.concatenate([[0.3, 1.4], rng.uniform(0.3, 1.4, rng.integers(1, 40))]))
        xb = xb[~np.isin(xb, xa)]
    else:  # some breakpoints shared, some not, domains partly overlapping
        own = rng.uniform(-0.2, 0.8, rng.integers(1, 40))
        xb = np.unique(np.concatenate([[-0.2, 0.8], rng.choice(xa[xa < 0.8], len(xa) // 2), own]))
    polys = []
    for x, deg in ((xa, deg_a), (xb, deg_b)):
        # small integers make ties between piece ends, which argmin/argmax must break alike
        c = (rng.normal(size=(len(x) - 1, 4)) if rng.random() < 0.5
             else rng.integers(-2, 3, size=(len(x) - 1, 4)).astype(float))
        c[:, deg + 1:] = 0.0
        if rng.random() < 0.5:  # negative zeros in the unused and the slope columns
            c[:, deg + 1:] = -0.0
            if deg >= 1:
                c[rng.random(len(c)) < 0.3, 1] = -0.0
        polys.append(PiecewisePoly(x[:-1], c))
    return polys, [(xa[0], xa[-1]), (xb[0], xb[-1])]


@pytest.mark.parametrize("layout", ["shared", "disjoint", "partial"])
@pytest.mark.parametrize("deg_a", [0, 1, 2, 3])
@pytest.mark.parametrize("deg_b", [0, 1, 2, 3])
def test_extrema_of_sums_and_differences_match_the_union_engine_bitwise(deg_a, deg_b, layout):
    rng = np.random.default_rng([deg_a, deg_b, len(layout)])
    for _ in range(25):
        (a, b), ((a0, a1), (b0, b1)) = _random_operands(rng, deg_a, deg_b, layout)
        lo0, hi0 = max(a0, b0), min(a1, b1)
        union = (min(a0, b0), max(a1, b1))
        for lo, hi in ((lo0, hi0), np.sort(rng.uniform(lo0, hi0, 2)), union):
            want = _union_poly_extrema(_union_difference(a, b), lo, hi)
            assert _hex(extrema(curve_sub(a, b), lo, hi)) == _hex(want)


_LATTICE = st.integers(-16, 48).map(lambda k: k / 8.0)
# small integers make ties between piece ends; floats make retargeting round
_COEF = st.one_of(st.integers(-2, 2).map(float), st.just(-0.0),
                  st.floats(-4.0, -0.25), st.floats(0.25, 4.0))


@st.composite
def _lattice_curve(draw):
    """Pieces of one degree, 0 to 3, starting on the 1/8 lattice; the unused
    columns hold a zero of either sign."""
    starts = sorted(set(draw(st.lists(_LATTICE, min_size=1, max_size=12))))
    deg = draw(st.integers(0, 3))
    c = np.array(draw(st.lists(st.lists(_COEF, min_size=4, max_size=4),
                               min_size=len(starts), max_size=len(starts))))
    c[:, deg + 1:] = draw(st.sampled_from([0.0, -0.0]))
    return PiecewisePoly(np.array(starts), c)


@settings(max_examples=300, deadline=None)
@given(_lattice_curve(), _lattice_curve(), st.floats(-3.0, 10.0), st.floats(-3.0, 10.0))
# every candidate a zero: the engine's line columns and the oracle's cubic
# columns can round it to opposite signs, and -0.0 - 0.0 is -0.0 in both
@example(PiecewisePoly(np.array([0.0]), np.full((1, 4), -0.0)),
         PiecewisePoly(np.array([-2.0]), np.array([[-0.0, -0.0, -0.0, 0.0]])), 9.75, 9.875)
@example(PiecewisePoly(np.array([0.0]), np.full((1, 4), -0.0)),
         PiecewisePoly(np.array([0.0]), np.zeros((1, 4))), 0.5, 1.0)
def test_extrema_of_lattice_differences_match_the_union_engine_bitwise(a, b, lo, hi):
    # the window ends fall before, among and past both curves' piece starts
    lo, hi = min(lo, hi), max(lo, hi)
    assume(lo < hi)
    want = _union_poly_extrema(_union_difference(a, b), lo, hi)
    assert _hex(extrema(curve_sub(a, b), lo, hi)) == _hex(want)


@st.composite
def _dense_lattice_curve(draw):
    """Up to 200 pieces of one degree starting on the 1/64 lattice, many of
    them on the 1/8 lattice of :func:`_lattice_curve`; coefficients from a
    drawn seed, small integers (ties) or floats."""
    starts = np.unique(draw(st.lists(st.integers(-128, 384), min_size=1, max_size=200))) / 64.0
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    c = (rng.integers(-2, 3, size=(len(starts), 4)).astype(float) if draw(st.booleans())
         else rng.uniform(-4.0, 4.0, size=(len(starts), 4)))
    c[:, draw(st.integers(0, 3)) + 1:] = draw(st.sampled_from([0.0, -0.0]))
    return PiecewisePoly(starts, c)


@st.composite
def _cancelling_pair(draw):
    """A lattice curve and a copy of it with new constant and slope columns:
    their difference is a line, though both operands are cubics."""
    a = draw(_lattice_curve())
    c = a.c.copy()
    c[:, :2] = draw(st.lists(st.lists(_COEF, min_size=2, max_size=2),
                             min_size=a.npieces, max_size=a.npieces))
    return a, PiecewisePoly(a.x, c)


class _Mask:
    """Stands in for the random source of a mask: ``random()`` gives 0.0
    (keep) or 1.0 (drop) for each piece of ``b`` in turn."""

    def __init__(self, *kept):
        self.draws = iter([0.0 if k else 1.0 for k in kept])

    def random(self):
        return next(self.draws)


_A_SPLITS = PiecewisePoly(np.array([-1.0, 0.5, 1.25, 2.0]),
                          np.array([[0.5, -1.0, 2.0, 0.25], [1.0, 0.5, -0.5, 1.5],
                                    [-0.25, 2.0, 1.0, -1.0], [0.0, -0.5, 0.75, 0.5]]))
_B_STEPS = PiecewisePoly(np.array([0.0, 1.0, 2.0, 3.0]),
                         np.array([[0.25, 1.0, 0.0, 0.0], [-0.5, 2.0, 0.0, 0.0],
                                   [1.5, -1.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]]))
# starts at b's first start, inside b's second piece and inside b's last
_A_AT_ENDS = PiecewisePoly(np.array([0.0, 1.5, 3.5]),
                           np.array([[1.0, -0.5, 0.25, 0.5], [-1.0, 1.0, -2.0, 0.75],
                                     [0.5, 0.0, 1.0, -0.25]]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(_lattice_curve(), _lattice_curve()), _cancelling_pair(),
                 st.tuples(_lattice_curve(), _dense_lattice_curve())),
       st.floats(-3.0, 10.0), st.floats(-3.0, 10.0), st.randoms(use_true_random=False))
# a start of a (2.0) that is a start of b, in a kept and in a dropped piece of b
@example((_A_SPLITS, _B_STEPS), -2.0, 4.0, _Mask(True, False, True, True))
@example((_A_SPLITS, _B_STEPS), -2.0, 4.0, _Mask(True, True, False, True))
# a start of a (-1.0) before b's first, where b's first piece runs on to the left
@example((_A_SPLITS, _B_STEPS), -1.5, 0.75, _Mask(True, False, False, False))
@example((_A_SPLITS, _B_STEPS), -0.5, 1.5, _Mask(False, True, False, False))
# the window ends inside dropped pieces, then inside kept ones
@example((_A_SPLITS, _B_STEPS), 0.25, 2.5, _Mask(False, True, False, True))
@example((_A_SPLITS, _B_STEPS), 1.5, 3.5, _Mask(False, True, False, True))
@example((_A_SPLITS, _B_STEPS), 0.75, 1.125, _Mask(True, True, True, True))
# a start of a at b's first start, and one that splits b's last piece
@example((_A_AT_ENDS, _B_STEPS), -1.0, 5.0, _Mask(True, False, True, True))
@example((_A_AT_ENDS, _B_STEPS), 0.0, 4.0, _Mask(False, True, False, True))
# the window ends inside a piece that starts at a start of a (1.5)
@example((_A_AT_ENDS, _B_STEPS), 0.25, 1.75, _Mask(True, True, False, False))
# windows that hold no start of b, inside pieces that start at starts of a
@example((_A_AT_ENDS, _B_STEPS), 1.625, 1.875, _Mask(False, True, False, False))
@example((_A_AT_ENDS, _B_STEPS), 3.625, 4.5, _Mask(True, True, True, True))
# a constant difference: every candidate ties, and the first piece starts at a start of a
@example((PiecewisePoly(np.array([-1.0]), np.array([[1.0, 0.0, 0.0, 0.0]])),
          PiecewisePoly(np.array([0.0, 1.0]), np.zeros((2, 4)))), -1.0, 2.0, _Mask(True, True))
def test_masked_difference_extrema_match_the_union_engine_bitwise(pair, lo, hi, rnd):
    a, b = pair
    lo, hi = min(lo, hi), max(lo, hi)
    assume(lo < hi)
    full = extrema(curve_sub(a, b), lo, hi)
    assert _hex(_difference_extrema(a, b, lo, hi)) == _hex(full)
    assert float.hex(sup_norm(a, b, (lo, hi))) == float.hex(full.sup_abs)
    # the other order reads the dense operand as a
    back = extrema(curve_sub(b, a), lo, hi)
    assert _hex(_difference_extrema(b, a, lo, hi)) == _hex(back)
    assert float.hex(sup_norm(b, a, (lo, hi))) == float.hex(back.sup_abs)
    # a random mask over b's pieces that leaves a piece of the difference in the window
    keep = np.array([rnd.random() < 0.5 for _ in range(b.npieces)])
    diff = _union_difference(a, b)
    on = keep[b._piece_index(diff.x)]
    sl, _, _ = _window(diff.x, lo, hi)
    assume(on[sl].any())
    want = _union_poly_extrema(diff, lo, hi, on)
    assert _hex(_difference_extrema(a, b, lo, hi, keep)) == _hex(want)


@pytest.mark.parametrize("name, params", [("truncated-exponential", (1.0,)),
                                          ("beta-like", (2.0,)), ("shifted-power", (3.0, 1.0))])
def test_difference_extrema_pin_the_merged_engine_at_catalog_sizes(name, params):
    # the distances the rate experiments take (sparse curve first) and the
    # marshall reports' order (ECDF first), over [0, X_(n)], [0, tau], a
    # window inside the data and one past both ends
    model = make_model(name, params)

    def pin(sparse, dense, xn):
        for lo, hi in ((0.0, xn), (0.0, model.tau), (0.3 * xn, 0.7 * xn),
                       (-model.tau, 2.0 * max(model.tau, xn))):
            for a, b in ((sparse, dense), (dense, sparse)):
                want = extrema(curve_sub(a, b), lo, hi)
                assert _hex(_difference_extrema(a, b, lo, hi)) == _hex(want)
                assert float.hex(sup_norm(a, b, (lo, hi))) == float.hex(want.sup_abs)

    for n in (1, 2, 512, 4096, 2 ** 16):
        data = sample(model, n, seed_for(8, n, 0))
        pin(lcm(data).as_curve(), ecdf_curve(data), float(data.x[-1]))
    for n in (50, 512, 8192):
        data = sample(model, n, seed_for(8, n, 0))
        F, Fn = fit_lse(data).cdf_curve(), ecdf_curve(data)
        pin(F, Fn, float(data.x[-1]))
        pin(F.antiderivative(), Fn.antiderivative(), float(data.x[-1]))


def test_sup_norm_keeps_the_operand_order_of_a_cubic_difference():
    # p(t) = t^3/4 - t has no quadratic term, so the stationary points
    # +-2/sqrt(3) of p and of -p come from different divisions and round
    # apart.  With the three-piece zero curve first, sup_norm reads it by
    # slices yet keeps z - p: swapping the operands would move the last bit
    p = PiecewisePoly(np.array([0.0]), np.array([[0.0, -1.0, 0.0, 0.25]]))
    z = PiecewisePoly(np.array([0.0, 2.5, 3.0]), np.zeros((3, 4)))
    zp, pz = sup_norm(z, p, (0.0, 2.0)), sup_norm(p, z, (0.0, 2.0))
    assert float.hex(zp) == float.hex(extrema(curve_sub(z, p), 0.0, 2.0).sup_abs)
    assert float.hex(pz) == float.hex(extrema(curve_sub(p, z), 0.0, 2.0).sup_abs)
    assert zp != pz


def test_rate_distances_build_no_merged_curve(monkeypatch):
    # the monotone distance and both convex distances, as the rate experiments
    # take them, never merge the n piece starts of the ECDF into a new curve
    model = make_model("truncated-exponential", (1.0,))
    data = sample(model, 512, seed_for(9, 512, 0))
    majorant, fit = lcm(data).as_curve(), fit_lse(data)

    def no_merge(*args):
        raise AssertionError("a rate distance merged two curves")

    monkeypatch.setattr("shapedist.curves._merge", no_merge)
    F, Fn = fit.cdf_curve(), ecdf_curve(data)
    assert sup_norm(majorant, Fn, (0.0, float(data.x[-1]))) > 0.0
    assert sup_norm(F, Fn, (0.0, model.tau)) > 0.0
    assert sup_norm(F.antiderivative(), Fn.antiderivative(), (0.0, model.tau)) > 0.0
    with pytest.raises(AssertionError, match="merged"):  # the guard is live
        curve_sub(F, Fn)


def test_difference_extrema_rejects_a_mask_of_the_wrong_shape_or_type():
    a, b = _A_SPLITS, _B_STEPS
    for keep in (np.ones(3, dtype=bool), np.ones(5, dtype=bool), np.ones(4), [True] * 4,
                 np.ones((4, 1), dtype=bool)):
        with pytest.raises(ValueError, match="boolean array with one entry per piece of b"):
            _difference_extrema(a, b, 0.0, 3.0, keep)


def test_difference_extrema_rejects_a_mask_that_keeps_nothing_in_the_window():
    a, b = _A_SPLITS, _B_STEPS
    keep = np.array([True, False, False, True])
    # [1.25, 2.5] meets only the dropped pieces of b starting at 1 and 2
    with pytest.raises(ValueError, match=r"keep leaves no piece of the difference in \[1.25, 2.5\]"):
        _difference_extrema(a, b, 1.25, 2.5, keep)
    assert _difference_extrema(a, b, 1.25, 3.5, keep).min_at >= 3.0
    with pytest.raises(ValueError, match="keep leaves no piece"):
        _difference_extrema(a, b, 0.0, 3.0, np.zeros(4, dtype=bool))


def _exact_sup_distance(p, q, lo, hi):
    """``sup |p - q|`` over ``[lo, hi]``, in rationals, to within ``2**-80 * scale``.

    Each curve's pieces are taken as given, float coefficients and all.  No
    piece start of either lies inside a cell between consecutive points of
    ``lo``, ``hi`` and the starts in between, so there ``D = p - q`` is one
    cubic: its sup is at the cell's ends (the value at the left, the left
    limit at the right) or at a root of ``D'``.  The root of ``D''`` splits
    the cell into parts on which ``D'`` is monotone.  A sign change of ``D'``
    on a part is a rational root when ``D'`` is linear; otherwise it is
    bracketed by bisection in rationals until, on the bracket ``[l, r]``,
    ``max(|D'(l)|, |D'(r)|) * (r - l)`` is at most ``2**-80 * scale``, which
    bounds how far ``|D|`` can rise above its values at ``l`` and ``r``.
    Returns the largest ``|D|`` at the points taken, which lies that close
    below the exact sup, and ``scale``, the largest magnitude of ``p`` and
    ``q`` there.
    """
    pts = np.unique(np.concatenate([[lo, hi], p.x, q.x]))
    pts = [Fraction(t) for t in pts[(pts >= lo) & (pts <= hi)]]
    value = lambda e, u: e[0] + (e[1] + (e[2] + e[3] * u) * u) * u
    cells = []
    for a, b in zip(pts[:-1], pts[1:]):
        local = []  # each curve's piece under the cell, in offsets u = t - a
        for curve in (p, q):
            i = int(curve._piece_index(float(a)))
            s = a - Fraction(curve.x[i])
            c0, c1, c2, c3 = map(Fraction, curve.c[i])
            local.append((value((c0, c1, c2, c3), s), c1 + (2 * c2 + 3 * c3 * s) * s,
                          c2 + 3 * c3 * s, c3))
        cells.append((b - a, *local))
    scale = max(abs(value(e, u)) for w, *local in cells for e in local for u in (0, w))
    tol = scale * Fraction(2) ** -80
    best = Fraction(0)
    for w, ep, eq in cells:
        d = [x - y for x, y in zip(ep, eq)]
        slope = lambda u: d[1] + (2 * d[2] + 3 * d[3] * u) * u
        parts = [Fraction(0), w]
        if d[3] != 0 and 0 < -d[2] / (3 * d[3]) < w:
            parts.insert(1, -d[2] / (3 * d[3]))
        us = list(parts)
        for l, r in zip(parts[:-1], parts[1:]):
            fl, fr = slope(l), slope(r)
            if fl * fr >= 0:
                continue
            if d[3] == 0:  # D' linear
                us.append(l - fl * (r - l) / (fr - fl))
                continue
            while max(abs(fl), abs(fr)) * (r - l) > tol:
                m = (l + r) / 2
                fm = slope(m)
                if (fm < 0) == (fl < 0):
                    l, fl = m, fm
                else:
                    r, fr = m, fm
            us += [l, r]
        for u in us:
            best = max(best, abs(value(d, u)))
            scale = max(scale, abs(value(ep, u)), abs(value(eq, u)))
    return best, scale


def test_exact_sup_oracle_brackets_an_irrational_stationary_point():
    # |t^3 - 2t| on [0, 1.2] peaks at t = sqrt(2/3), where its square is 32/27
    p = PiecewisePoly(np.array([0.0]), np.array([[0.0, -2.0, 0.0, 1.0]]))
    best, scale = _exact_sup_distance(p, PiecewisePoly(np.array([0.0]), np.zeros((1, 4))), 0.0, 1.2)
    assert 0 <= Fraction(32, 27) - best ** 2 <= 3 * scale * Fraction(2) ** -80


#: ``sup_norm`` of two float-given curves lies within ``_SUP_ULPS * 2**-53 *
#: scale`` of the exact sup, ``scale`` the larger magnitude of the two curves
#: on the interval (stated in the ``curves`` module docstring).
_SUP_ULPS = 2


@pytest.mark.parametrize("name, params", [("truncated-exponential", (1.0,)),
                                          ("beta-like", (2.0,)), ("shifted-power", (3.0, 1.0))])
@pytest.mark.parametrize("n", [64, 512])
def test_sup_norm_is_within_its_error_contract_of_the_exact_sup(name, params, n):
    # sup |LCM - F_n| on [0, X_(n)] (lines minus steps), sup |F~_n - F_n| on
    # [0, tau] (quadratics minus steps) and sup |H~_n - Y_n| on [0, tau]
    # (cubics minus lines), each against a rational oracle; over these 24
    # samples the worst errors were 0.40, 0.76 and 0.79 (x 2^-53 scale)
    model = make_model(name, params)
    worst = {}
    for rep in range(4):
        data = sample(model, n, seed_for(5, n, rep))
        fit = fit_lse(data)
        for key, curve, empirical, interval in (
                ("monotone", lcm(data).as_curve(), ecdf_curve(data), (0.0, float(data.x[-1]))),
                ("convex", fit.cdf_curve(), ecdf_curve(data), (0.0, model.tau)),
                ("integrated", fit.integrated_cdf_curve(), integrated_ecdf_curve(data),
                 (0.0, model.tau))):
            exact, scale = _exact_sup_distance(curve, empirical, *interval)
            err = abs(Fraction(sup_norm(curve, empirical, interval)) - exact) / (scale * Fraction(2) ** -53)
            worst[key] = max(worst.get(key, 0.0), float(err))
    assert max(worst.values()) <= _SUP_ULPS, worst


def test_sup_norm_of_lcm_and_ecdf_peak_memory():
    # No merged curve: the ECDF's pieces are read by slices, and the lines
    # take two coefficient columns and two candidates per piece.  That peaks
    # at 6.1 n floats; the merged route peaked at 11.1 n, and retargeting
    # full n x 4 arrays at 25.1 n.
    n = 2 ** 16
    data = sample(MODEL, n, seed_for(3, n, 0))
    a, b = lcm(data).as_curve(), ecdf_curve(data)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        sup_norm(a, b, (0.0, float(data.x[-1])))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 22 * 8 * n, peak / (8 * n)


def _column_major_hybrid_extrema(poly: PiecewisePoly, smooth: SmoothCurve, lo: float, hi: float) -> Extrema:
    """The hybrid engine that ranked its candidates column by column, kept as
    an oracle: verbatim but for ``_window``, which now takes the piece starts."""
    sl, ulo, uhi = _window(poly.x, lo, hi)
    x0 = poly.x[sl]
    alo = x0 + ulo
    roots = _hybrid_stationary(poly.c[sl], x0, alo, x0 + uhi, smooth)
    # a piece without a root repeats its left end; column-major order ranks
    # left ends first, then right ends, then roots
    ts = np.column_stack([alo, x0 + uhi, np.fmax(roots, alo[:, None])])
    vals = _eval_hybrid(poly.c[sl].T[:, :, None], x0[:, None], smooth, ts).ravel(order="F")
    ts = ts.ravel(order="F")
    kmin = int(np.argmin(vals))
    kmax = int(np.argmax(vals))
    return Extrema(float(vals[kmin]), float(ts[kmin]), float(vals[kmax]), float(ts[kmax]))


@pytest.mark.parametrize("name, params", [("truncated-exponential", (1.0,)),
                                          ("beta-like", (2.0,)), ("shifted-power", (3.0, 1.0))])
@pytest.mark.parametrize("k", [5, 20, 80, 200])
def test_hybrid_extrema_match_the_column_major_ranker(name, params, k):
    # the lemma curves: the spline of Y less Y, its derivative less F, the
    # broken line of F less F, and F_n less F
    model = make_model(name, params)
    mesh = knot_mesh_convex(model, k)
    spline = interp_integrated_cdf(model, mesh).as_curve()
    data = sample(model, 10 * k, seed_for(6, k, 0))
    lo, hi = float(mesh.knots[0]), float(mesh.knots[-1])
    for g, h in ((spline, model.Fint_curve()), (spline.derivative(), model.F_curve()),
                 (broken_line(model.F, mesh.knots).as_curve(), model.F_curve()),
                 (ecdf_curve(data), model.F_curve())):
        cs = curve_sub(g, h)
        got = _hybrid_extrema(cs.poly, cs.smooth, lo, hi)
        want = _column_major_hybrid_extrema(cs.poly, cs.smooth, lo, hi)
        assert [v.hex() for v in (got.min_val, got.min_at, got.max_val, got.max_at)] == \
            [v.hex() for v in (want.min_val, want.min_at, want.max_val, want.max_at)]


def test_hybrid_extrema_locate_the_ranked_point():
    # u + phi(t), phi' = -t / 0.35: the stationary point t ~ 0.35 is found in
    # absolute terms, and 0.1 + (t - 0.1) rounds off it; the location must be
    # the point whose value was ranked
    poly = PiecewisePoly(np.array([0.1]), np.array([[0.0, 1.0, 0.0, 0.0]]))
    smooth = SmoothCurve(lambda t: -t * t / 0.7, lambda t: -t / 0.35,
                         lambda t: np.full_like(t, -1 / 0.35))
    got = extrema(CurveSum(poly, smooth), 0.2, 0.9)
    want = _column_major_hybrid_extrema(poly, smooth, 0.2, 0.9)
    assert 0.1 + (want.max_at - 0.1) != want.max_at
    assert [v.hex() for v in (got.min_val, got.min_at, got.max_val, got.max_at)] == \
        [v.hex() for v in (want.min_val, want.min_at, want.max_val, want.max_at)]


@pytest.mark.parametrize("name, params", [("truncated-exponential", (1.0,)),
                                          ("beta-like", (2.0,)), ("shifted-power", (3.0, 1.0))])
def test_sup_norm_of_model_and_sample_curves_is_symmetric_bitwise(name, params):
    # the smooth-minus-poly order negates the poly part, a route the drivers
    # never take; both orders must give the same bits
    model = make_model(name, params)
    for n in (10, 200):
        data = sample(model, n, seed_for(4, n, 0))
        for interval in ((0.0, model.tau), (0.1 * model.tau, float(data.x[-1]))):
            for smooth, poly in ((model.F_curve(), ecdf_curve(data)),
                                 (model.Fint_curve(), integrated_ecdf_curve(data))):
                assert float.hex(sup_norm(smooth, poly, interval)) == \
                    float.hex(sup_norm(poly, smooth, interval))


def brute_range(vals, i, j):
    """Window extrema one slice at a time; empty windows give inf and -inf."""
    lo = [vals[a:b + 1].min() if b >= a else np.inf for a, b in zip(i, j)]
    hi = [vals[a:b + 1].max() if b >= a else -np.inf for a, b in zip(i, j)]
    return np.array(lo), np.array(hi)


@pytest.mark.parametrize("m", list(range(1, 71)) + [127, 128, 129, 1000])
def test_range_extrema_matches_brute_force_on_every_window_length(m):
    rng = np.random.default_rng(m)
    # ties on a coarse lattice, and distinct floats
    for vals in (rng.integers(-3, 4, m).astype(float), rng.normal(size=m)):
        if m <= 129:  # every window
            i, j = np.triu_indices(m)
        else:  # every length, at a random start
            length = np.arange(1, m + 1)
            i = rng.integers(0, m - length + 1)
            j = i + length - 1
        # empty windows: inside, before the start and past the end
        i = np.concatenate([i, [0, m, m // 2 + 1, m]])
        j = np.concatenate([j, [-1, m - 1, m // 2, 0]])
        got_lo, got_hi = _range_extrema(vals, i, j)
        want_lo, want_hi = brute_range(vals, i, j)
        assert np.array_equal(got_lo, want_lo) and np.array_equal(got_hi, want_hi)
