"""Monotone-density estimation: least concave majorant and Grenander slopes.

The distribution estimator is the least concave majorant (LCM) of the ECDF on
``[0, X_(n)]``, the exact upper hull of the ECDF corners, found with numpy
filters and one exact hull pass; the density estimator is its left
derivative.  Every broken line here, the LCM included, is a degree-1
:class:`~shapedist.curves.PiecewisePoly` whose pieces start exactly at its
vertices, so every distance reads it as it stands.  This module also
carries the checks of how the estimator tracks the ECDF: the chord
interpolant at equal-mass knots, the concavity event of its slopes, and the
exponential tail bound for that event.
"""

from __future__ import annotations

from fractions import Fraction
import math

import numpy as np

from .curves import PiecewisePoly, _check, _check_breakpoints, sup_norm
from .empirical import EmpiricalData, ecdf, ecdf_curve
from .models import AnalyticModel, KnotMesh, _extreme

__all__ = [
    "concave_majorant_points",
    "lcm",
    "grenander_density",
    "broken_line",
    "broken_line_error_report",
    "concavity_event",
    "kw_tail_bound",
    "marshall_check",
]


def _checked_vertices(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Vertices as float arrays: 1-d, matching, >= 2, abscissae finite and increasing."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
        raise ValueError("need matching 1-d vertex arrays with >= 2 points")
    _check_breakpoints(x, "vertex abscissae")
    return x, y


def _polyline(x: np.ndarray, y: np.ndarray) -> PiecewisePoly:
    """The broken line through the vertices ``(x_i, y_i)``, its pieces starting
    exactly at them: piece ``i`` is ``y_i`` plus the chord slope to the next
    vertex, and the last holds ``y[-1]`` on to the right."""
    c = np.zeros((len(x), 4))
    c[:, 0] = y
    c[:-1, 1] = np.diff(y) / np.diff(x)
    return PiecewisePoly(x, c)


#: Shewchuk's orient2d error bound coefficient, ``(3 + 16 eps) eps``.
_ORIENT_ERR = (3.0 + 16.0 * 2.0**-53) * 2.0**-53
#: absolute slack for products that underflow, where the relative bound fails.
_UNDERFLOW = 2.0**-1070


def _on_or_below_chord(x: list, y: list, i0: int, i1: int, i2: int) -> bool:
    """Whether point ``i1`` lies on or below the chord from ``i0`` to ``i2``.

    That is the sign test ``(x1 - x0)(y2 - y0) - (x2 - x0)(y1 - y0) >= 0``,
    decided exactly for the points as given: by the float products when
    their difference lies farther from zero than Shewchuk's orient2d error
    bound, and by :class:`fractions.Fraction` arithmetic otherwise.
    """
    left = (x[i1] - x[i0]) * (y[i2] - y[i0])
    right = (x[i2] - x[i0]) * (y[i1] - y[i0])
    cross = left - right
    if abs(cross) > _ORIENT_ERR * (abs(left) + abs(right)) + _UNDERFLOW:
        return cross > 0.0
    fx0, fy0 = Fraction(x[i0]), Fraction(y[i0])
    return ((Fraction(x[i1]) - fx0) * (Fraction(y[i2]) - fy0)
            >= (Fraction(x[i2]) - fx0) * (Fraction(y[i1]) - fy0))


def _upper_hull(x: list, y: list) -> list:
    """Indices of the upper concave hull of the points ``(x_i, y_i)``, x
    increasing, exact for the points as given."""
    hull: list[int] = []
    for i in range(len(x)):
        while len(hull) >= 2 and _on_or_below_chord(x, y, hull[-2], hull[-1], i):
            hull.pop()
        hull.append(i)
    return hull


def _certified_below(x0, y0, x1, y1, x2, y2) -> np.ndarray:
    """Whether each point ``(x1, y1)`` lies strictly below the chord from
    ``(x0, y0)`` to ``(x2, y2)``, as certified by the float filter of
    :func:`_on_or_below_chord`; False where the filter cannot decide."""
    left = (x1 - x0) * (y2 - y0)
    right = (x2 - x0) * (y1 - y0)
    return left - right > _ORIENT_ERR * (np.abs(left) + np.abs(right)) + _UNDERFLOW


#: point count up to which the hull pass of :func:`_upper_hull` costs less
#: than one more vectorised round of :func:`_hull_indices`
_HULL_DIRECT = 40


def _hull_indices(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the upper concave hull of the points ``(x_i, y_i)``, x
    increasing: the hull :func:`_upper_hull` finds over every point.

    While more than ``_HULL_DIRECT`` points are left, rounds of the orient2d
    float filter drop every point certified strictly below the chord of its
    two remaining neighbours.  No hull vertex lies strictly below a chord of
    two other points of the set, so however many points go in one round,
    the hull pass over the rest finds the same hull.
    """
    keep = np.arange(len(x))
    # a product that overflows makes the filter abstain, as in the scalar test
    with np.errstate(over="ignore", invalid="ignore"):
        while len(keep) > _HULL_DIRECT:
            xk, yk = x[keep], y[keep]
            drop = _certified_below(xk[:-2], yk[:-2], xk[1:-1], yk[1:-1], xk[2:], yk[2:])
            if not drop.any():
                break
            keep = keep[np.concatenate(([True], ~drop, [True]))]
    return keep[_upper_hull(x[keep].tolist(), y[keep].tolist())]


def _under_no_chord(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the ECDF points ``(x_i, y_i)``, x increasing, that a chain
    through the set does not certify strictly below one of its chords.

    The inner points are cut into blocks of ``2 sqrt(n)``; the chain is the
    hull (:func:`_hull_indices`) of the two end points and, in each block,
    the point farthest above the chord of the block's ends.  Any chain
    through points of the set would do, and this one lies close to the
    hull.  ``np.interp`` gives its height at each ``x`` as ``slope * (x - x0)
    + y0`` in a few roundings, within ``12 * 2**-53`` of the exact chord
    (heights are at most 1), and ``y`` is within ``2**-53`` of ``i/n``.  So a
    point more than ``2**-40`` below the chain lies strictly below a chord of
    two other points, also with the integer counts ``i`` as heights.  The
    bound needs finite slopes, at most ``2**1022`` for chords at least
    ``2**-1022`` wide; a chain with a narrower chord certifies nothing.
    """
    n = len(x)
    s = 2 * math.isqrt(n)
    nb, r = divmod(n - 2, s)
    r += 1  # blocks x[r + b s : r + (b + 1) s], the last ending at x[n - 1]
    ex, ey = x[r::s], y[r::s]
    dx, dy = ex[1:] - ex[:-1], ey[1:] - ey[:-1]
    # height above the block's chord times its width: finite, with no division
    above = y[r:-1].reshape(nb, s) * dx[:, None] - x[r:-1].reshape(nb, s) * dy[:, None]
    far = above.argmax(axis=1)
    far += np.arange(r, n - 1, s)
    chain = np.concatenate(([0], far, [n - 1]))
    chain = chain[_hull_indices(x[chain], y[chain])]
    cx, cy = x[chain], y[chain]
    if np.min(cx[1:] - cx[:-1]) < 2.0**-1022:
        return np.arange(n)  # a chord slope could overflow: no bound holds
    floor = np.interp(x, cx, cy)
    floor -= 2.0**-40
    return np.flatnonzero(y >= floor)


def concave_majorant_points(x, y) -> PiecewisePoly:
    """Upper concave hull of the points ``(x_i, y_i)``, x strictly increasing,
    as the broken line through the hull vertices.

    The hull is exact for the points as given: every kept vertex lies
    strictly above the chord of its neighbours.  Slopes computed in floats
    can still tie where the points themselves are rounded: the ECDF heights
    ``i/n`` of the sample ``[8, 0, 9, 4, 6, 7, 11, 8, 1, 4, 4, 11]`` keep
    ``x = 4`` and ``9``, which the counts ``i`` put on one line.  Kept
    public as the tests' oracle for :func:`lcm`: the same hull pass over
    every point, with no filter.
    """
    x, y = _checked_vertices(x, y)
    hull = _upper_hull(x.tolist(), y.tolist())
    return _polyline(x[hull], y[hull])


def lcm(data: EmpiricalData) -> PiecewisePoly:
    """Least concave majorant of the ECDF on ``[0, X_(n)]``.

    The exact upper hull of ``(0, 0)`` and every upper corner point
    ``(X_(i), i/n)`` of the ECDF (tied observations collapse into one
    corner), taken with the integer counts ``i`` rather than the rounded
    ``i/n``: a vertex is kept exactly when it lies strictly above the chord
    of its neighbours, and no vertex is missed.  A corner is dropped before
    the exact pass only when a float filter with a proven error bound puts
    it strictly below a chord of two other corners (:func:`_under_no_chord`,
    then the orient2d rounds of :func:`_hull_indices`); no such corner is a
    hull vertex, however many are dropped together, so the pass over the
    rest finds the hull over all of them.  Vertex heights are the corners'
    own ``i/n``.  Returned as the broken line through the vertices, the first
    at ``0``; past ``X_(n)`` it holds ``1``.
    """
    x, y = data.corners
    if x[0] > 0.0:
        x, y = np.concatenate([[0.0], x]), np.concatenate([[0.0], y])
    if len(x) < 2:
        raise ValueError("the concave majorant needs a positive observation")
    if len(x) > _HULL_DIRECT:
        keep = _under_no_chord(x, y)
        x, y = x[keep], y[keep]
    hull = _hull_indices(x, np.rint(y * data.n))  # exactly the counts, since y = counts / n
    return _polyline(x[hull], y[hull])


def grenander_density(majorant: PiecewisePoly, t):
    """Monotone density estimate: left derivative of the concave majorant.

    Defined for ``t`` in ``(0, X_(n)]``, NaN refused: the slope of the piece
    ending at, or containing, ``t``.  Kept as the paper's density estimator
    (the Grenander estimator), as in the README quick start.
    """
    t = np.asarray(t, dtype=float)
    if not np.all((t > majorant.x[0]) & (t <= majorant.x[-1])):
        raise ValueError("density is defined on (0, X_(n)] only")
    out = majorant.c[majorant._piece_index(t, "left"), 1]
    return out if out.ndim else float(out)


def broken_line(g, knots) -> PiecewisePoly:
    """Chord interpolant of ``g`` at the given knots (g evaluated pointwise),
    as the broken line through the points ``(knots, g(knots))``."""
    knots = np.asarray(knots, dtype=float)
    return _polyline(*_checked_vertices(knots, g(knots)))


def broken_line_error_report(model: AnalyticModel, mesh: KnotMesh) -> dict:
    """Check the chord-interpolation error bound for the model CDF.

    Verifies ``sup |F - I2 F| <= (1/8) |a|^2 sup |F''|`` over the mesh span,
    with both sides computed exactly (the sup via breakpoint analysis, the
    sup of ``|f'|`` at the interval ends, where the model contract puts it).
    """
    knots = mesh.knots
    lo, hi = float(knots[0]), float(knots[-1])
    lhs = sup_norm(broken_line(model.F, knots), model.F_curve(), (lo, hi))
    sup_fp = _extreme(lambda t: np.abs(model.fprime(t)), lo, hi, "sup")
    return _check(f"chord-error-vs-curvature[k={mesh.k}]", lhs, mesh.mesh**2 * sup_fp / 8.0)


def concavity_event(data: EmpiricalData, mesh: KnotMesh) -> bool:
    """Whether the equal-mass broken line of the ECDF is concave.

    Compares successive chord slopes ``(F_n(a_j) - F_n(a_{j-1})) / delta_j``
    exactly (no tolerance): ties count as concave.
    """
    vals = np.asarray(ecdf(data, mesh.knots), dtype=float)
    slopes = np.diff(vals) / mesh.deltas
    return bool(np.all(slopes[:-1] >= slopes[1:]))


def kw_tail_bound(n: int, k: int, beta1: float) -> float:
    """Tail bound for the non-concavity probability of the equal-mass broken line:
    ``2 k exp(-n beta1^2 / (80 k^3))``.

    The proof's own statement of this bound has the leading factor ``4 k``,
    twice this value; the two published statements disagree on it.
    """
    return 2.0 * k * math.exp(-n * beta1**2 / (80.0 * k**3))


def marshall_check(majorant: PiecewisePoly, data: EmpiricalData, h, interval) -> tuple[float, float]:
    """Distances for the majorant stability inequality against a concave ``h``.

    ``majorant`` is the curve :func:`lcm` returns.  Returns
    ``(sup |LCM - h|, sup |F_n - h|)`` over ``interval``; for concave ``h``
    the first never exceeds the second.  Kept for acceptance gate #3.
    """
    lhs = sup_norm(majorant, h, interval)
    rhs = sup_norm(ecdf_curve(data), h, interval)
    return lhs, rhs
