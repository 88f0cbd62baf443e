"""Per-cell trapezoid statistics and exponential tail bounds.

For a probability-equal knot mesh and a primitive G (integrated ECDF or
integrated CDF), each cell carries a "trapezoid defect"

    (average of the end slopes) * (cell width) - (increment of G),

computed once with interpolated slopes (complete cubic spline) and once
with the raw slopes of G itself, all by the one helper ``_defect``.  The
four resulting statistics are the sample defects ``T`` (spline) and ``R``
(raw) from ``_sample_defects`` and their population analogues ``t`` and
``r`` from ``_population_defects``.  The lemma suite
(``experiments._suite_deterministic``) forms from them the spline-vs-raw
residual ``W = (T - t) - (R - r)`` and the interpolation gap ``b = t - r``,
and checks that ``T - r = (R - r) + W + b`` closes.  The spline defect
rescaled by 12 / width^3 is, in exact arithmetic, the slope of the
interpolant's second derivative, which the convexity event computes by its
one route, :func:`shapedist.spline.second_derivative_slopes`.  The
population raw defects of any cells come from ``_raw_defects``, which the
Taylor bracket, the slope-difference bound and the cell variance share.  The
Taylor bracket takes arrays of intervals and the slope-difference bound
covers every adjacent cell pair of a mesh, so each is one call over whole
arrays.

The module also evaluates the closed-form Bernstein/binomial tail bounds
for the statistics, the Taylor bracket for the population defect, and the
mesh-ratio and interpolation-gap checks used by the lemma suite.  Nothing
here raises on a verdict: bounds come back as numbers, and checks as report
rows from ``curves._check``, the lemma suite's one row builder.  A row's
``pass`` is ``lhs <= rhs`` exactly, with no slack, in all but two suite
rows: ``taylor-bracket[pairs=1000]`` passes when every pair's defect lies in
its bracket up to the roundoff allowance ``1e-12 * max(1, |value|, |lo|,
|hi|)``, so it may pass with ``lhs`` a little above ``rhs = 0``; and
``mesh-ratio-threshold`` passes when its cell count is positive and at most
the fine mesh's.
"""

import math

import numpy as np
from scipy.integrate import quad

from .curves import _check
from .empirical import EmpiricalData, ecdf
from .models import (
    AnalyticModel,
    KnotMesh,
    _extreme,
    constants,
    knot_mesh_convex,
    mean_value_knot,
)
from .spline import interp_integrated_cdf, interp_integrated_ecdf

__all__ = [
    "trapezoid_remainder_bounds",
    "slope_difference_bound",
    "mesh_ratio_check",
    "bernstein_cell_bound",
    "bernstein_residual_bound",
    "convexity_event_bound",
    "binomial_cell_bound",
    "cell_variance",
    "cell_variance_bound",
    "cell_variance_report",
    "interp_gap_report",
]


def _defect(slopes: np.ndarray, increments: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Per-cell trapezoid defect: mean of the end slopes times width, minus increment."""
    return 0.5 * (slopes[:-1] + slopes[1:]) * widths - increments


def _raw_defects(model: AnalyticModel, knots: np.ndarray) -> np.ndarray:
    """Population raw defects ``(F(s) + F(t))/2 * (t - s) - integral_s^t F``
    of the cells between consecutive ``knots`` along the first axis."""
    knots = np.asarray(knots, dtype=float)
    return _defect(model.F(knots), np.diff(model.Fint(knots), axis=0), np.diff(knots, axis=0))


def _sample_defects(data: EmpiricalData, mesh: KnotMesh):
    """Spline and raw defects ``(T, R)`` of the integrated ECDF on the mesh."""
    spline = interp_integrated_ecdf(data, mesh)
    dy = np.diff(spline.values)
    return (_defect(spline.slopes, dy, mesh.deltas),
            _defect(ecdf(data, mesh.knots), dy, mesh.deltas))


def _population_defects(model: AnalyticModel, mesh: KnotMesh):
    """Spline and raw defects ``(t, r)`` of the integrated CDF on the mesh."""
    spline = interp_integrated_cdf(model, mesh)
    return (_defect(spline.slopes, np.diff(spline.values), mesh.deltas),
            _raw_defects(model, mesh.knots))


def trapezoid_remainder_bounds(model: AnalyticModel, s, t):
    """Taylor bracket for the population defect of the intervals ``[s, t]``.

    The defect ``(F(s) + F(t))/2 * (t - s) - integral_s^t F`` is returned
    together with lower/upper bounds

        f'(s)(t-s)^3 / 12 + [inf or sup of f'' on [s, t]] (t-s)^4 / 24.

    ``s`` and ``t`` are matching arrays, one interval per element, and every
    interval needs ``0 <= s < t`` (else ``ValueError``).  Returns ``(lower,
    upper, value)`` as arrays, or as floats for scalar ends; the lemma suite's
    ``taylor-bracket`` row judges whether the bracket holds.
    """
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    if not np.all((0.0 <= s) & (s < t)):
        raise ValueError("need 0 <= s < t")
    value = _raw_defects(model, np.stack([s, t]))[0]
    # np.float_power, not **: on AVX512 machines numpy's array ** takes a SIMD
    # loop whose last bit differs from Python's float ** in about 5% of doubles
    # for cubes and fourth powers; float_power rounds as the scalar routine does
    cube = model.fprime(s) * np.float_power(t - s, 3) / 12.0
    quart = np.float_power(t - s, 4) / 24.0
    lo = cube + _extreme(model.fsecond, s, t, "inf") * quart
    hi = cube + _extreme(model.fsecond, s, t, "sup") * quart
    return (lo, hi, value) if s.ndim else (float(lo), float(hi), float(value))


def slope_difference_bound(model: AnalyticModel, mesh: KnotMesh):
    """One-sided bound for the drop of consecutive rescaled defects.

    For every pair of adjacent cells ``j`` and ``j+1`` (1-based, ``j < k``)
    returns, as arrays of length ``k - 1``, ``(lhs, rhs)`` with

        lhs = r_j / delta_j^3 - r_{j+1} / delta_{j+1}^3

    and ``rhs`` built from the exact difference quotient of ``f'`` across
    cell ``j`` (the mean-value representation of ``f'(a_j) - f'(a_{j-1})``)
    plus sup/inf corrections of ``f''`` over the two cells.
    """
    a = mesh.knots
    d = mesh.deltas
    # np.float_power, not **, as in trapezoid_remainder_bounds
    rescaled = _raw_defects(model, a) / np.float_power(d, 3)
    lhs = rescaled[:-1] - rescaled[1:]

    fp = model.fprime(a)
    diff_quot = (fp[1:-1] - fp[:-2]) / d[:-1]
    sup = _extreme(model.fsecond, a[:-1], a[1:], "sup")
    inf = _extreme(model.fsecond, a[:-1], a[1:], "inf")
    rhs = -diff_quot * d[:-1] / 12.0 + (sup[:-1] * d[:-1] - inf[1:] * d[1:]) / 24.0
    return lhs, rhs


def _mesh_ratios(model: AnalyticModel, mesh: KnotMesh) -> float:
    a = mesh.knots
    d = mesh.deltas
    fa = np.asarray(model.f(a), dtype=float)
    worst = float(np.max(fa[:-1] / fa[1:]))
    if mesh.k >= 2:
        worst = max(worst, float(np.max(d[1:] / d[:-1])))
    return worst


def mesh_ratio_check(model: AnalyticModel) -> list[dict]:
    """Adjacent-cell ratio rows: on a fine mesh, and the first good cell count.

    The fine mesh has ``k_fine = max(2, ceil(5 gamma1_tilde R))`` cells (16
    when that guarantee is infinite), enough for both ``max_j
    f(a_{j-1})/f(a_j)`` and ``max_j delta_{j+1}/delta_j`` to stay <= 2; the
    ``mesh-ratio[k=k_fine]`` row checks the larger of the two.  The
    ``mesh-ratio-threshold`` row reports the smallest cell count for which
    both stay <= 2 (-1 if none up to an internal cap) and passes when that
    count is positive and at most ``k_fine``.
    """
    cons = constants(model)
    guarantee = 5.0 * cons.gamma1_tilde * cons.R
    if math.isfinite(guarantee):
        k_fine, cap = max(2, math.ceil(guarantee)), max(16, math.ceil(guarantee) + 8)
    else:
        k_fine = cap = 16
    threshold_k = next((k for k in range(1, cap + 1)
                        if _mesh_ratios(model, knot_mesh_convex(model, k)) <= 2.0), -1)
    return [_check(f"mesh-ratio[k={k_fine}]", _mesh_ratios(model, knot_mesh_convex(model, k_fine)), 2.0),
            _check("mesh-ratio-threshold", float(threshold_k), float(k_fine),
                   ok=0 < threshold_k <= k_fine)]


def bernstein_cell_bound(n: int, delta: float, p: float, f_star: float) -> float:
    """Tail bound for the raw defect: prob(|R - r| > delta * p^3) is at most

        2 exp(-3 n delta^2 f*^2 p^3 / (1 + p delta f*)).
    """
    expo = 3.0 * n * delta ** 2 * f_star ** 2 * p ** 3 / (1.0 + p * delta * f_star)
    return 2.0 * np.exp(-expo)


def bernstein_residual_bound(n: int, delta: float, p: float, f_star: float) -> float:
    """Tail bound for the spline-vs-raw residual W: prob(|W| > delta p^3)
    is at most

        4 exp(-(n delta^2 f*^2 p^3 / 100) / (1 + p delta f* / 30)).
    """
    return 4.0 * np.exp(-((n * delta ** 2 * f_star ** 2 * p ** 3 / 100.0)
                          / (1.0 + p * delta * f_star / 30.0)))


#: reciprocal of the absolute constant in the convexity-event bound,
#: 8^2 * 144^2 * 16 * 200.
EVENT_BOUND_RECIP_K = 8 ** 2 * 144 ** 2 * 16 * 200


def convexity_event_bound(n: int, k: int, beta2: float) -> float:
    """Bound for the probability that the spline's second derivative fails
    to be convex on a k-cell mesh:

        12 k exp(-beta2^2 n p^5 / 4,246,732,800),   p = 1/k.
    """
    p = 1.0 / k
    return 12.0 * k * np.exp(-beta2 ** 2 * n * p ** 5 / EVENT_BOUND_RECIP_K)


def binomial_cell_bound(n: int, p: float, delta: float, slack: float = 0.0) -> float:
    """Tail bound for the relative error of one cell's empirical mass:
    prob(|Fn-mass - p| >= delta p) is at most

        2 exp(-n p delta^2 (1 + slack) / 2)

    where ``slack`` stands in for the vanishing correction term (callers
    pick an explicit value; 0 is the plain bound).
    """
    return 2.0 * np.exp(-0.5 * n * p * delta ** 2 * (1.0 + slack))


def cell_variance(model: AnalyticModel, s: float, t: float) -> float:
    """Variance of ``(X - (s+t)/2) 1_{(s,t]}(X)`` under the model.

    The mean is the population raw defect in closed form; the second moment
    is integrated numerically.
    """
    mid = 0.5 * (s + t)
    mean = float(_raw_defects(model, [s, t])[0])
    second, _ = quad(lambda x: (x - mid) ** 2 * float(model.f(x)), s, t,
                     epsabs=1e-14, epsrel=1e-12, limit=200)
    return second - mean ** 2


def cell_variance_bound(p: float, f_star: float) -> float:
    """Closed-form bound ``p^3 / (6 f*^2)`` for the cell variance."""
    return p ** 3 / (6.0 * f_star ** 2)


def cell_variance_report(model: AnalyticModel, mesh: KnotMesh) -> list[dict]:
    """Check ``cell_variance <= cell_variance_bound`` on every cell, with f* the
    density at the cell's mean-value knot."""
    a = mesh.knots
    return [_check(f"cell-variance-vs-bound[{j}]", cell_variance(model, float(a[j - 1]), float(a[j])),
                   cell_variance_bound(mesh.p, float(model.f(mean_value_knot(model, mesh, j)))))
            for j in range(1, mesh.k + 1)]


def interp_gap_report(model: AnalyticModel) -> list[dict]:
    """Deterministic interpolation gap ``t - r`` across mesh refinements.

    For each cell count ``k`` of the ladder 25, 50, 100, 200 an
    ``interp-gap[k=k]`` row checks ``max_j |t_j - r_j|`` against the
    curvature bound ``mesh^4 * sup|f''| / 24``.  A last ``interp-gap-decay``
    row checks that the rescaled gap ``max_j |t_j - r_j| / delta_j^4`` at
    ``k = 200`` is at most a quarter of that at ``k = 25``.
    """
    sup_curv = _extreme(lambda x: np.abs(model.fsecond(x)), 0.0, model.tau, "sup")
    rows, rescaled = [], []
    for k in (25, 50, 100, 200):
        mesh = knot_mesh_convex(model, k)
        t, r = _population_defects(model, mesh)
        gap = np.abs(t - r)
        rows.append(_check(f"interp-gap[k={k}]", float(np.max(gap)), mesh.mesh ** 4 * sup_curv / 24.0))
        rescaled.append(float(np.max(gap / mesh.deltas ** 4)))
    final_over_first = rescaled[-1] / rescaled[0] if rescaled[0] > 0 else 0.0
    return rows + [_check("interp-gap-decay", final_over_first, 0.25)]
