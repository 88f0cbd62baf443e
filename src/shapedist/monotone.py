"""Monotone-density estimation: least concave majorant and Grenander slopes.

The distribution estimator is the least concave majorant (LCM) of the ECDF on
``[0, X_(n)]``; the density estimator is its left derivative.  This module
also carries the piecewise-linear interpolation objects used to study how the
estimator tracks the ECDF: the broken line through equal-mass knots, the
concavity event of its slopes, and the exponential tail bound for that event.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np
from scipy.optimize import isotonic_regression

from .curves import PiecewisePoly, _check, _check_breakpoints, sup_norm
from .empirical import EmpiricalData, ecdf, ecdf_curve
from .models import AnalyticModel, KnotMesh, _extreme

__all__ = [
    "PiecewiseLinear",
    "concave_majorant_points",
    "lcm",
    "grenander_density",
    "broken_line",
    "broken_line_error_report",
    "concavity_event",
    "kw_tail_bound",
    "marshall_check",
]


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function through ``(x_i, y_i)``."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
            raise ValueError("need matching 1-d vertex arrays with >= 2 points")
        _check_breakpoints(x, "vertex abscissae")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __call__(self, t):
        return np.interp(t, self.x, self.y)

    @property
    def slopes(self) -> np.ndarray:
        return np.diff(self.y) / np.diff(self.x)

    def left_slope(self, t):
        """Slope of the segment ending at (or containing) ``t``.

        Kept as the evaluator of :func:`grenander_density`.
        """
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.x, t, side="left") - 1, 0, len(self.x) - 2)
        out = self.slopes[i]
        return out if out.ndim else float(out)

    def as_curve(self) -> PiecewisePoly:
        """The same function as a :class:`PiecewisePoly`.

        Constant pieces at ``y[0]`` and ``y[-1]`` open and close it, so past
        the outer vertices the curve holds the end values, as ``__call__``
        does, instead of continuing the end slopes.
        """
        x, y = self.x, self.y
        pad = [max(1.0, abs(x[0])), max(1.0, abs(x[-1]))]
        c = np.zeros((len(x) + 1, 4))
        c[:, 0] = np.concatenate([y[:1], y])
        c[1:-1, 1] = self.slopes
        return PiecewisePoly(np.concatenate([[x[0] - pad[0]], x, [x[-1] + pad[1]]]), c)


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


def concave_majorant_points(x, y) -> PiecewiseLinear:
    """Upper concave hull of the points ``(x_i, y_i)`` as a piecewise line.

    The hull is exact for the points as given: every kept vertex lies
    strictly above the chord of its neighbours.  Slopes computed in floats
    can still tie where the points themselves are rounded: the ECDF heights
    ``i/n`` of the sample ``[8, 0, 9, 4, 6, 7, 11, 8, 1, 4, 4, 11]`` keep
    ``x = 4`` and ``9``, which the counts ``i`` put on one line.  Kept
    public as the tests' oracle for :func:`lcm`: the same hull pass over
    every point.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    hull = _upper_hull(x.tolist(), y.tolist())
    return PiecewiseLinear(x[hull], y[hull])


def lcm(data: EmpiricalData) -> PiecewiseLinear:
    """Least concave majorant of the ECDF on ``[0, X_(n)]``.

    The hull is taken over ``(0, 0)`` and the upper corner points
    ``(X_(i), i/n)`` of the ECDF (tied observations collapse into one corner).
    Candidate vertices are the block boundaries of the pool-adjacent-violators
    (PAVA) fit of the corner-to-corner slopes, weighted by their widths, under
    a nonincreasing constraint: the pooled means are the Grenander slopes.
    The exact hull pass then runs on those few candidates only, taken with
    the integer counts ``i`` rather than the rounded ``i/n``, so the hull is
    exact for the candidates: PAVA pools strict violators only, and the
    common vertex of two adjacent blocks with the same mean goes.  Vertex
    heights are the corners' own ``i/n``.
    """
    xs, ys = data.corners
    counts = np.rint(ys * data.n)  # exactly the cumulative counts, since ys = counts / n
    if xs[0] > 0.0:
        xs = np.concatenate([[0.0], xs])
        ys = np.concatenate([[0.0], ys])
        counts = np.concatenate([[0.0], counts])
    if len(xs) < 2:
        raise ValueError("the concave majorant needs a positive observation")
    dx = np.diff(xs)
    blocks = isotonic_regression(np.diff(ys) / dx, weights=dx, increasing=False).blocks
    hull = blocks[_upper_hull(xs[blocks].tolist(), counts[blocks].tolist())]
    return PiecewiseLinear(xs[hull], ys[hull])


def grenander_density(majorant: PiecewiseLinear, t):
    """Monotone density estimate: left derivative of the concave majorant.

    Defined for ``t`` in ``(0, X_(n)]``.  Kept as the paper's density
    estimator (the Grenander estimator), as in the README quick start.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= majorant.x[0]) or np.any(t > majorant.x[-1]):
        raise ValueError("density is defined on (0, X_(n)] only")
    return majorant.left_slope(t)


def broken_line(g, knots) -> PiecewiseLinear:
    """Chord interpolant of ``g`` at the given knots (g evaluated pointwise)."""
    knots = np.asarray(knots, dtype=float)
    vals = np.asarray(g(knots), dtype=float)
    return PiecewiseLinear(knots, vals)


def broken_line_error_report(model: AnalyticModel, mesh: KnotMesh) -> dict:
    """Check the chord-interpolation error bound for the model CDF.

    Verifies ``sup |F - I2 F| <= (1/8) |a|^2 sup |F''|`` over the mesh span,
    with both sides computed exactly (the sup via breakpoint analysis, the
    sup of ``|f'|`` at the interval ends, where the model contract puts it).
    """
    knots = mesh.knots
    lo, hi = float(knots[0]), float(knots[-1])
    lhs = sup_norm(broken_line(model.F, knots).as_curve(), model.F_curve(), (lo, hi))
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


def marshall_check(majorant: PiecewiseLinear, data: EmpiricalData, h, interval) -> tuple[float, float]:
    """Distances for the majorant stability inequality against a concave ``h``.

    Returns ``(sup |LCM - h|, sup |F_n - h|)`` over ``interval``; for concave
    ``h`` the first never exceeds the second.  Kept for acceptance gate #3.
    """
    lhs = sup_norm(majorant.as_curve(), h, interval)
    rhs = sup_norm(ecdf_curve(data), h, interval)
    return lhs, rhs
