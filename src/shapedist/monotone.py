"""Monotone-density estimation: least concave majorant and Grenander slopes.

The distribution estimator is the least concave majorant (LCM) of the ECDF on
``[0, X_(n)]``; the density estimator is its left derivative.  This module
also carries the piecewise-linear interpolation objects used to study how the
estimator tracks the ECDF: the broken line through equal-mass knots, the
concavity event of its slopes, and the exponential tail bound for that event.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "kw_tail_bound_proof_variant",
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
        """Slope of the segment ending at (or containing) ``t``."""
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


def concave_majorant_points(x, y) -> PiecewiseLinear:
    """Upper concave hull of the points ``(x_i, y_i)`` as a piecewise line.

    A vertex is dropped when the cross product with its neighbours is
    ``>= 0``, so collinear vertices go whenever that product comes out
    nonnegative.  On exactly collinear points it can round below zero, and
    then the vertex survives: the ECDF corners of the sample
    ``[8, 0, 9, 4, 6, 7, 11, 8, 1, 4, 4, 11]`` give vertices at
    ``x = [0, 4, 9, 11]`` whose three slopes are all ``1/12``.  Slopes are
    therefore nonincreasing, not always strictly decreasing.  :func:`lcm`
    avoids this by pooling the slopes with PAVA first and passing only the
    block boundaries here.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    hull: list[int] = []
    for i in range(len(x)):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            cross = (x[i1] - x[i0]) * (y[i] - y[i0]) - (x[i] - x[i0]) * (y[i1] - y[i0])
            if cross >= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    return PiecewiseLinear(x[hull], y[hull])


def lcm(data: EmpiricalData) -> PiecewiseLinear:
    """Least concave majorant of the ECDF on ``[0, X_(n)]``.

    The hull is taken over ``(0, 0)`` and the upper corner points
    ``(X_(i), i/n)`` of the ECDF (tied observations collapse into one corner).
    Candidate vertices are the block boundaries of the pool-adjacent-violators
    (PAVA) fit of the corner-to-corner slopes, weighted by their widths, under
    a nonincreasing constraint: the pooled means are the Grenander slopes.
    The exact cross-product pass of :func:`concave_majorant_points` then runs
    on those few candidates only.  PAVA pools strict violators only, so two
    adjacent blocks can share a mean, and their common vertex survives when
    its cross product rounds below zero.  Hull slopes are therefore
    nonincreasing, not always strictly decreasing: the lattice sample with
    counts ``[8, 12, 11, 11, 8, 10, 11, 8, 7, 13, 18, 13]`` on ``0..11``
    (n = 130) keeps ``x = 3``, with slope exactly ``11/130`` on both sides.
    """
    xs, ys = data.corners
    if xs[0] > 0.0:
        xs = np.concatenate([[0.0], xs])
        ys = np.concatenate([[0.0], ys])
    if len(xs) < 2:
        raise ValueError("the concave majorant needs a positive observation")
    dx = np.diff(xs)
    blocks = isotonic_regression(np.diff(ys) / dx, weights=dx, increasing=False).blocks
    return concave_majorant_points(xs[blocks], ys[blocks])


def grenander_density(majorant: PiecewiseLinear, t):
    """Monotone density estimate: left derivative of the concave majorant.

    Defined for ``t`` in ``(0, X_(n)]``.
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
    return _check("chord-error-vs-curvature", lhs, mesh.mesh**2 * sup_fp / 8.0)


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
    ``2 k exp(-n beta1^2 / (80 k^3))``."""
    return 2.0 * k * math.exp(-n * beta1**2 / (80.0 * k**3))


def kw_tail_bound_proof_variant(n: int, k: int, beta1: float) -> float:
    """Variant with leading factor ``4k`` instead of ``2k``.

    The two published statements of this bound disagree on the leading
    factor; both evaluators are provided so either can be compared against
    simulation.
    """
    return 4.0 * k * math.exp(-n * beta1**2 / (80.0 * k**3))


def marshall_check(majorant: PiecewiseLinear, data: EmpiricalData, h, interval) -> tuple[float, float]:
    """Distances for the majorant stability inequality against a concave ``h``.

    Returns ``(sup |LCM - h|, sup |F_n - h|)`` over ``interval``; for concave
    ``h`` the first never exceeds the second.
    """
    lhs = sup_norm(majorant.as_curve(), h, interval)
    rhs = sup_norm(ecdf_curve(data, upto=interval[1]), h, interval)
    return lhs, rhs
