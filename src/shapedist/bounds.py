"""Per-cell trapezoid statistics and exponential tail bounds.

For a probability-equal knot mesh and a primitive G (integrated ECDF or
integrated CDF), each cell carries a "trapezoid defect"

    (average of the end slopes) * (cell width) - (increment of G),

computed once with interpolated slopes (complete cubic spline) and once
with the raw slopes of G itself, all by the one helper ``_defect``.  The
four resulting statistics -- spline and raw, empirical and population --
drive every convexity-event bound: the spline defect rescaled by
12 / width^3 is, in exact arithmetic, the slope of the interpolant's second
derivative, which the convexity event computes by its one route,
:func:`shapedist.spline.second_derivative_slopes`.  The population raw
defects of any cells come from ``_raw_defects``, which the Taylor bracket,
the slope-difference bound and the cell variance share.

The module also evaluates the closed-form Bernstein/binomial tail bounds
for the statistics, the Taylor bracket for the population defect, and the
mesh-ratio and interpolation-gap checks used by the lemma suite.  Report
rows come from ``curves._check``, the lemma suite's one row builder, and
``pass`` means ``lhs <= rhs`` exactly, with no slack.
"""

from dataclasses import dataclass

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
    "LemmaQuantities",
    "compute_quantities",
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


@dataclass(frozen=True)
class LemmaQuantities:
    """Per-cell defect statistics on a knot mesh.

    All arrays have length ``k`` (one entry per cell).  Capital letters are
    empirical (built from a sample), lowercase their population analogues:

    * ``T`` / ``t`` : defect with complete-spline slopes at the cell ends;
    * ``R`` / ``r`` : defect with the raw slopes (ECDF / CDF values);
    * ``W = (T - t) - (R - r)`` : spline-vs-raw residual, random;
    * ``b = t - r`` : deterministic interpolation gap.

    ``12 T / delta^3`` is the slope of the second derivative of the spline
    interpolant on each cell; the convexity event computes those slopes once,
    by :func:`shapedist.spline.second_derivative_slopes`, so they are not
    stored here.  The identity ``T - r = (R - r) + W + b`` holds by
    construction and is asserted to 1e-12 relative accuracy.
    """

    T: np.ndarray
    R: np.ndarray
    t: np.ndarray
    r: np.ndarray
    W: np.ndarray
    b: np.ndarray


def _defect(slopes: np.ndarray, increments: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Per-cell trapezoid defect: mean of the end slopes times width, minus increment."""
    return 0.5 * (slopes[:-1] + slopes[1:]) * widths - increments


def _raw_defects(model: AnalyticModel, knots: np.ndarray) -> np.ndarray:
    """Population raw defects ``(F(s) + F(t))/2 * (t - s) - integral_s^t F``
    of the cells between consecutive ``knots``."""
    knots = np.asarray(knots, dtype=float)
    return _defect(model.F(knots), np.diff(model.Fint(knots)), np.diff(knots))


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


def compute_quantities(data: EmpiricalData, model: AnalyticModel,
                       mesh: KnotMesh) -> LemmaQuantities:
    """Evaluate all per-cell statistics for one sample on one mesh."""
    T, R = _sample_defects(data, mesh)
    t, r = _population_defects(model, mesh)
    W = (T - t) - (R - r)
    b = t - r

    scale = np.max(np.abs(T) + np.abs(r)) + 1.0
    if not np.allclose(T - r, (R - r) + W + b, rtol=0.0, atol=1e-12 * scale):
        raise AssertionError("defect decomposition failed to close")

    return LemmaQuantities(T=T, R=R, t=t, r=r, W=W, b=b)


def trapezoid_remainder_bounds(model: AnalyticModel, s: float, t: float):
    """Taylor bracket for the population defect of one interval.

    The defect ``(F(s) + F(t))/2 * (t - s) - integral_s^t F`` is returned
    together with lower/upper bounds

        f'(s)(t-s)^3 / 12 + [inf or sup of f'' on [s, t]] (t-s)^4 / 24.

    Returns ``(lower, upper, value)``; raises if the bracket fails beyond
    roundoff.
    """
    if not 0.0 <= s < t:
        raise ValueError("need 0 <= s < t")
    value = float(_raw_defects(model, [s, t])[0])
    cube = float(model.fprime(s)) * (t - s) ** 3 / 12.0
    quart = (t - s) ** 4 / 24.0
    lo = cube + _extreme(model.fsecond, s, t, "inf") * quart
    hi = cube + _extreme(model.fsecond, s, t, "sup") * quart
    tol = 1e-12 * max(1.0, abs(value), abs(lo), abs(hi))
    if value < lo - tol or value > hi + tol:
        raise AssertionError("Taylor bracket does not contain the defect")
    return lo, hi, value


def slope_difference_bound(model: AnalyticModel, mesh: KnotMesh, j: int):
    """One-sided bound for the drop of consecutive rescaled defects.

    For cells ``j`` and ``j+1`` (1-based) returns ``(lhs, rhs)`` with

        lhs = r_j / delta_j^3 - r_{j+1} / delta_{j+1}^3

    and ``rhs`` built from the exact difference quotient of ``f'`` across
    cell ``j`` (the mean-value representation of ``f'(a_j) - f'(a_{j-1})``)
    plus sup/inf corrections of ``f''`` over the two cells.
    """
    if not 1 <= j <= mesh.k - 1:
        raise ValueError("need 1 <= j <= k-1")
    a = mesh.knots
    d = mesh.deltas
    rj, rj1 = _raw_defects(model, a[j - 1:j + 2])
    lhs = rj / d[j - 1] ** 3 - rj1 / d[j] ** 3

    diff_quot = (float(model.fprime(a[j])) - float(model.fprime(a[j - 1]))) / d[j - 1]
    sup_j = _extreme(model.fsecond, a[j - 1], a[j], "sup")
    inf_j1 = _extreme(model.fsecond, a[j], a[j + 1], "inf")
    rhs = -diff_quot * d[j - 1] / 12.0 + (sup_j * d[j - 1] - inf_j1 * d[j]) / 24.0
    return lhs, rhs


def _mesh_ratios(model: AnalyticModel, mesh: KnotMesh) -> float:
    a = mesh.knots
    d = mesh.deltas
    fa = np.asarray(model.f(a), dtype=float)
    worst = float(np.max(fa[:-1] / fa[1:]))
    if mesh.k >= 2:
        worst = max(worst, float(np.max(d[1:] / d[:-1])))
    return worst


def mesh_ratio_check(model: AnalyticModel, mesh: KnotMesh):
    """Worst density/width ratio of adjacent cells, and the first good k.

    Returns ``(max_ratio, threshold_k)`` where ``max_ratio`` is the larger
    of ``max_j f(a_{j-1})/f(a_j)`` and ``max_j delta_{j+1}/delta_j`` for the
    given mesh, and ``threshold_k`` is the smallest cell count for which
    both stay <= 2 (or -1 if not found below an internal cap).  Raises when
    the mesh is fine enough that the ratio is guaranteed <= 2 (cell count
    at least 5 * gamma1_tilde * R) yet the bound fails.
    """
    cons = constants(model)
    guarantee = 5.0 * cons.gamma1_tilde * cons.R
    max_ratio = _mesh_ratios(model, mesh)
    if np.isfinite(guarantee) and mesh.k >= guarantee and max_ratio > 2.0:
        raise AssertionError("adjacent-cell ratio exceeds 2 on a fine mesh")

    cap = int(max(mesh.k, 16, np.ceil(guarantee) + 8 if np.isfinite(guarantee) else 16))
    threshold_k = -1
    for k in range(1, cap + 1):
        if _mesh_ratios(model, knot_mesh_convex(model, k)) <= 2.0:
            threshold_k = k
            break
    return max_ratio, threshold_k


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


def interp_gap_report(model: AnalyticModel, k_list) -> dict:
    """Deterministic interpolation gap ``t - r`` across mesh refinements.

    For each cell count ``k`` the report records ``max_j |t_j - r_j|``, the
    rescaled ``max_j |t_j - r_j| / delta_j^4``, and the curvature bound
    ``mesh^4 * sup|f''| / 24``; the rescaled column should decay as the
    mesh refines.  That decay check reads ``k_list`` in refinement order, so
    an empty or not strictly increasing ``k_list`` raises ``ValueError``.
    """
    ks = [int(k) for k in k_list]
    if not ks or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError(f"k_list must be nonempty and strictly increasing, got {ks!r}")
    sup_curv = _extreme(lambda x: np.abs(model.fsecond(x)), 0.0, model.tau, "sup")
    rows = []
    for k in ks:
        mesh = knot_mesh_convex(model, k)
        t, r = _population_defects(model, mesh)
        gap = t - r
        max_abs = float(np.max(np.abs(gap)))
        bound = mesh.mesh ** 4 * sup_curv / 24.0
        rows.append({
            "k": k,
            "max_abs_gap": max_abs,
            "max_rescaled_gap": float(np.max(np.abs(gap) / mesh.deltas ** 4)),
            "bound": bound,
            "pass": bool(max_abs <= bound),
        })
    ratios = [row["max_rescaled_gap"] for row in rows]
    decreasing = all(b <= a * (1.0 + 1e-9) for a, b in zip(ratios, ratios[1:]))
    final_over_first = ratios[-1] / ratios[0] if ratios[0] > 0 else 0.0
    return {
        "rows": rows,
        "rescaled_decreasing": decreasing,
        "final_over_first": final_over_first,
        "pass": decreasing and all(row["pass"] for row in rows),
    }
