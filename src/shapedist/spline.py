"""Complete cubic spline interpolation and its second-derivative slope checks.

The central object is the clamped ("complete") cubic interpolant of the
running ECDF integral on an equal-mass knot mesh: its pieces are cubics whose
third coefficients encode the slopes of the interpolant's second derivative.
Monotonicity of those slopes is the convexity event studied by the
experiments module.  Interior knot slopes solve a diagonally dominant
tridiagonal system, handled by a direct Thomas sweep.  The sweep is
hand-rolled for its bytes: LAPACK's ``dgtsv`` (what
``scipy.linalg.solve_banded((1, 1), ...)`` calls) and ``dptsv`` round
differently, and on random complete-spline systems (k = 3..39) they changed
some bit of the slopes in about 97% and 80% of cases, which would move the
lemma and event output bytes.  The tests check the sweep against
``solve_banded`` to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import (
    PiecewisePoly,
    _check,
    _check_breakpoints,
    as_curve,
    modulus,
    sup_norm,
)
from .empirical import EmpiricalData
from .models import AnalyticModel, KnotMesh, _extreme

__all__ = [
    "CubicSplineInterpolant",
    "complete_spline",
    "interp_integrated_ecdf",
    "interp_integrated_cdf",
    "second_derivative_slopes",
    "convexity_event",
    "interp_error_report",
    "smooth_interp_error_bounds",
]


@dataclass(frozen=True)
class CubicSplineInterpolant:
    """Piecewise-cubic interpolant with prescribed knot values and slopes."""

    knots: np.ndarray
    values: np.ndarray
    slopes: np.ndarray

    def __call__(self, t):
        return self.as_curve()(t)

    def as_curve(self) -> PiecewisePoly:
        h = np.diff(self.knots)
        y0, y1 = self.values[:-1], self.values[1:]
        s0, s1 = self.slopes[:-1], self.slopes[1:]
        d = (y1 - y0) / h
        c = np.column_stack([
            y0,
            s0,
            (3.0 * d - 2.0 * s0 - s1) / h,
            (s0 + s1 - 2.0 * d) / h**2,
        ])
        return PiecewisePoly(self.knots[:-1], c)


def _solve_interior_slopes(h: np.ndarray, d: np.ndarray, s0: float, sk: float) -> np.ndarray:
    """Interior knot slopes of the complete cubic spline.

    ``h`` are cell widths, ``d`` chord slopes.  The C2 conditions give, for
    each interior knot j,

        (1/h_j) s_{j-1} + 2 (1/h_j + 1/h_{j+1}) s_j + (1/h_{j+1}) s_{j+1}
            = 3 (d_j / h_j + d_{j+1} / h_{j+1}),

    a strictly diagonally dominant tridiagonal system solved by a Thomas
    forward sweep and back substitution.

    ``d``, ``s0`` and ``sk`` may carry a trailing replicate axis, with ``h``
    shaped ``(k, 1)`` to broadcast along it.  Every step is an elementwise
    ``+ - * /``, so each replicate gets the bits of its own 1-d solve.
    """
    k = len(h)
    s = np.empty((k + 1,) + np.shape(d)[1:])
    s[0], s[k] = s0, sk
    m = k - 1
    if m == 0:
        return s
    inv = 1.0 / h
    diag = 2.0 * (inv[:-1] + inv[1:])
    lower = inv[1:-1]  # coefficient of s_{j-1} in row j >= 2
    upper = inv[1:-1]  # coefficient of s_{j+1} in row j <= m-1
    rhs = 3.0 * (d[:-1] * inv[:-1] + d[1:] * inv[1:])
    rhs[0] -= inv[0] * s0
    rhs[-1] -= inv[-1] * sk
    # forward elimination
    cp = np.empty_like(diag)
    dp = np.empty_like(rhs)
    cp[0] = upper[0] / diag[0] if m > 1 else 0.0
    dp[0] = rhs[0] / diag[0]
    for j in range(1, m):
        w = diag[j] - lower[j - 1] * cp[j - 1]
        cp[j] = upper[j] / w if j < m - 1 else 0.0
        dp[j] = (rhs[j] - lower[j - 1] * dp[j - 1]) / w
    # back substitution
    s[m] = dp[m - 1]
    for j in range(m - 1, 0, -1):
        s[j] = dp[j - 1] - cp[j - 1] * s[j + 1]
    return s


def complete_spline(knots, values, s0: float, sk: float) -> CubicSplineInterpolant:
    """Clamped cubic spline through ``(knots, values)`` with end slopes ``s0, sk``."""
    knots = np.asarray(knots, dtype=float)
    values = np.asarray(values, dtype=float)
    if knots.ndim != 1 or knots.shape != values.shape or len(knots) < 2:
        raise ValueError("need matching 1-d knot/value arrays with >= 2 points")
    _check_breakpoints(knots, "knots")
    h = np.diff(knots)
    d = np.diff(values) / h
    slopes = _solve_interior_slopes(h, d, float(s0), float(sk))
    return CubicSplineInterpolant(knots, values, slopes)


def interp_integrated_ecdf(data: EmpiricalData, mesh: KnotMesh) -> CubicSplineInterpolant:
    """Complete spline of the running ECDF integral on the mesh.

    End slopes are the one-sided ECDF values at the mesh ends, matching the
    derivative of the interpolated curve.  Counts and sums are taken at the
    knots only: the sample above the last knot is never summed.
    """
    fv, yv = data.at_knots(mesh.knots)
    return complete_spline(mesh.knots, yv, fv[0], fv[-1])


def interp_integrated_cdf(model: AnalyticModel, mesh: KnotMesh) -> CubicSplineInterpolant:
    """Complete spline of the model's integrated CDF on the mesh."""
    a = mesh.knots
    vals = np.asarray(model.Fint(a), dtype=float)
    return complete_spline(a, vals, float(model.F(a[0])), float(model.F(a[-1])))


def second_derivative_slopes(spline: CubicSplineInterpolant) -> np.ndarray:
    """Per-cell slopes of the spline's second derivative: six times the
    leading cubic coefficient, ``6 (s_{j-1} + s_j - 2 dy / h) / h^2``.

    The knot-slope bracket form ``(12 / h^3) ((s_{j-1} + s_j) h / 2 - dy)``
    is the same quantity, but on fine meshes the two forms cancel
    differently and part by about ``k^2 * 1e-16`` of their scale, so only
    this one is computed.
    """
    h = np.diff(spline.knots)
    dy = np.diff(spline.values)
    return 6.0 * (spline.slopes[:-1] + spline.slopes[1:] - 2.0 * dy / h) / h**2


def convexity_event(data: EmpiricalData, mesh: KnotMesh) -> bool:
    """Whether the spline's second derivative is convex-ordered (nondecreasing
    cell slopes), i.e. the interpolant has convex second derivative."""
    B = second_derivative_slopes(interp_integrated_ecdf(data, mesh))
    return bool(np.all(B[1:] >= B[:-1]))


def interp_error_report(g, mesh: KnotMesh) -> list[dict]:
    """Oscillation-based interpolation error checks for a curve ``g``.

    ``g`` may be any curve object with a derivative chain (typically the
    centered integral ``Y_n - Y``).  Builds the complete spline interpolant of
    ``g`` on the mesh and verifies

    * ``sup |g' - (I4 g)'| <= (19/4) * omega(g'; |a|)``
    * ``sup |g  -  I4 g |  <= (19/8) * |a| * omega(g'; |a|)``

    with all three quantities computed exactly.  No experiment calls it yet; it
    is kept for checking the proofs' interpolation step on each replicate.
    """
    g = as_curve(g)
    a = mesh.knots
    lo, hi = float(a[0]), float(a[-1])
    vals = np.asarray(g(a), dtype=float)
    gprime = g.derivative()
    spline = complete_spline(a, vals, float(gprime(lo)), float(gprime(hi)))
    curve = spline.as_curve()
    osc = modulus(gprime, mesh.mesh, (lo, hi))
    lhs_d = sup_norm(gprime, curve.derivative(), (lo, hi))
    lhs = sup_norm(g, curve, (lo, hi))
    return [
        _check("spline-deriv-error-vs-oscillation", lhs_d, 19.0 / 4.0 * osc),
        _check("spline-error-vs-oscillation", lhs, 19.0 / 8.0 * mesh.mesh * osc),
    ]


def smooth_interp_error_bounds(model: AnalyticModel, mesh: KnotMesh) -> list[dict]:
    """Spline error bounds for the model's integrated CDF.

    With ``Y`` the integrated CDF (fourth derivative ``f''``) and ``I4 Y`` its
    complete spline on the mesh:

    * ``sup |Y - I4 Y|   <= (5/384) |a|^4 sup |f''|``
    * ``sup |F - (I4 Y)'| <= (1/24)  |a|^3 sup |f''|``
    * ``sup |F - (I4 Y)'| <= (19/4) omega(F; |a|)``
    """
    a = mesh.knots
    lo, hi = float(a[0]), float(a[-1])
    spline = interp_integrated_cdf(model, mesh)
    m4 = _extreme(lambda t: np.abs(model.fsecond(t)), lo, hi, "sup")
    curve = spline.as_curve()
    lhs = sup_norm(curve, model.Fint_curve(), (lo, hi))
    lhs_d = sup_norm(curve.derivative(), model.F_curve(), (lo, hi))
    osc = modulus(model.F_curve(), mesh.mesh, (lo, hi))
    return [
        _check(f"spline-error-vs-fourth-derivative[k={mesh.k}]", lhs, 5.0 / 384.0 * mesh.mesh**4 * m4),
        _check(f"spline-deriv-error-vs-fourth-derivative[k={mesh.k}]", lhs_d, mesh.mesh**3 * m4 / 24.0),
        _check(f"spline-deriv-error-vs-cdf-oscillation[k={mesh.k}]", lhs_d, 19.0 / 4.0 * osc),
    ]
