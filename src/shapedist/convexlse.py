"""Convex-density least-squares estimation by support reduction.

The estimator minimizes ``Q(f) = 1/2 int f^2 - int f dF_n`` over the cone of
decreasing convex densities, i.e. nonnegative combinations of the triangular
generators ``x -> (theta - x)_+``.  The minimizer is characterized by its
double integral staying above the running ECDF integral everywhere, touching
exactly at the generator kinks.

``fit_lse`` runs an active-set (support-reduction) loop: repeatedly add the
generator whose characterization gap is most negative, re-solve the
unconstrained normal equations on the active set, and restore nonnegativity
by Lawson--Hanson ratio steps.  Candidate kinks come from the order
statistics, their midpoints, and one point past the data; once the grid is
clean the gap is minimized *exactly* over its piecewise-cubic pieces and any
continuous violation becomes a new generator, so the returned fit carries an
exact nonnegativity certificate rather than a grid-limited one.

The candidate grid is fixed for the whole fit, so its powers are computed
once and each pass expands the fit's suffix sums over it in runs, one per
kink, with no per-point search, and forms the integrated CDF in place in
that expansion.  The fit's integrated CDF curve ``H`` is formed straight
from the suffix sums: the density's columns, then both antiderivative
recurrences on the columns, and one curve.  Before the exact minimization a
screen clears data intervals: between consecutive order statistics the gap
is convex (its second derivative is the fitted density and the ECDF
integral is linear there), so its values at the ends and the midpoint bound
its minimum.  Only the uncleared pieces, always including ``[0, X_(1)]`` and
the tail past ``X_(n)``, are minimized exactly, by the extrema engine of
``curves`` on a mask of pieces, which builds only the pieces it keeps, so
the screen's cost follows the uncleared pieces rather than ``n``.  A
violation found there is, bit for bit, the full minimum and location; when
the screen finds none, the same engine runs without the mask, and it alone
ends a fit and gives its ``min_gap``.  The objective trace is formed only
when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curves import PiecewisePoly, _difference_extrema, curve_sub, extrema, sup_norm
from .empirical import EmpiricalData, ecdf_curve, integrated_ecdf, integrated_ecdf_curve

__all__ = [
    "ConvexLse",
    "FitError",
    "fit_lse",
    "gram_matrix",
    "lse_objective",
    "characterization_report",
    "CharacterizationReport",
    "marshall_A",
    "marshall_Aprime",
]


class FitError(RuntimeError):
    """Support reduction failed to reach its certificate."""


def gram_matrix(thetas) -> np.ndarray:
    """Gram matrix of triangular generators: ``G[i,j] = int (ti-x)+ (tj-x)+ dx``.

    For ``ti <= tj`` the integral is ``ti^2 tj / 2 - ti^3 / 6``.
    """
    t = np.asarray(thetas, dtype=float)
    mn = np.minimum.outer(t, t)
    mx = np.maximum.outer(t, t)
    return mn * mn * mx / 2.0 - mn**3 / 6.0


def lse_objective(data: EmpiricalData, thetas, weights) -> float:
    """``Q = 1/2 c' G c - c' v`` with ``v_i`` the ECDF integral at ``theta_i``.

    Kept as the tests' independent oracle for the objective the fit minimizes.
    """
    c = np.asarray(weights, dtype=float)
    G = gram_matrix(thetas)
    v = np.asarray(integrated_ecdf(data, np.asarray(thetas, dtype=float)), dtype=float)
    return float(0.5 * c @ G @ c - c @ v)


def _powers(t):
    """``(t, 3t, 3t^2, t^3)``, the powers of ``t`` in the integrated CDF.

    ``fit_lse`` computes them once for its fixed candidate grid.
    """
    return t, 3.0 * t, 3.0 * t * t, t**3


@dataclass(frozen=True)
class ConvexLse:
    """Fitted decreasing convex density ``f(x) = sum_i c_i (theta_i - x)_+``.

    Its evaluators are the exact piecewise-polynomial curves
    :meth:`density_curve`, :meth:`cdf_curve` and :meth:`integrated_cdf_curve`,
    which every distance uses, and :meth:`_integrated_cdf_sorted`, the
    integrated CDF at sorted points.  The curves' pieces start at 0 and at
    the kinks; the last runs on to the right.
    """

    kinks: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.kinks, dtype=float)
        c = np.asarray(self.weights, dtype=float)
        order = np.argsort(t)
        object.__setattr__(self, "kinks", t[order])
        object.__setattr__(self, "weights", c[order])

    @cached_property
    def _suffix(self):
        t, c = self.kinks, self.weights
        cols = np.stack([c, c * t, c * t * t, c * t**3])
        suf = np.concatenate([np.cumsum(cols[:, ::-1], axis=1)[:, ::-1],
                              np.zeros((4, 1))], axis=1)
        return suf

    @property
    def mass(self) -> float:
        """Total integral of the fitted density, ``sum c theta^2 / 2``."""
        return float(self._suffix[2, 0] / 2.0)

    def _integrated_cdf_sorted(self, t, p):
        """Integrated CDF of the fit at sorted points ``t`` with :func:`_powers` ``p``.

        Each point takes the suffix column of the first kink above it; sorted
        points pass the kinks in order, so those columns are runs, expanded
        with ``np.repeat`` instead of gathered point by point.  The sums are
        formed in the rows of that expansion, in place, so neither the cached
        suffix sums nor ``p`` is written.
        """
        edges = np.concatenate(([0], np.searchsorted(t, self.kinks, side="left"), [len(t)]))
        s = np.repeat(self._suffix, np.diff(edges), axis=1)
        s0, s1, s2, s3 = s
        _, t3, tt3, ttt = p
        # tail = s3 - t3 s2 + tt3 s1 - ttt s0, then t S2 / 2 - S3 / 6 + tail / 6
        np.multiply(t3, s2, out=s2)
        np.subtract(s3, s2, out=s3)
        np.multiply(tt3, s1, out=s1)
        np.add(s3, s1, out=s3)
        np.multiply(ttt, s0, out=s0)
        np.subtract(s3, s0, out=s3)
        np.divide(s3, 6.0, out=s3)
        np.multiply(t, self._suffix[2, 0], out=s0)
        np.divide(s0, 2.0, out=s0)
        np.subtract(s0, self._suffix[3, 0] / 6.0, out=s0)
        np.add(s0, s3, out=s0)
        return s0

    def _density_columns(self):
        """Piece starts (0 and the kinks past it) and the density's ``c0``, ``c1``."""
        bx = np.unique(np.concatenate([[0.0], self.kinks]))
        bx = bx[bx >= 0.0]
        i = np.searchsorted(self.kinks, bx, side="right")
        s = self._suffix
        return bx, s[1, i] - bx * s[0, i], -s[0, i]

    def density_curve(self) -> PiecewisePoly:
        bx, c0, c1 = self._density_columns()
        c = np.zeros((len(bx), 4))
        c[:, 0] = c0
        c[:, 1] = c1
        return PiecewisePoly(bx, c)

    def cdf_curve(self) -> PiecewisePoly:
        return self.density_curve().antiderivative()

    def integrated_cdf_curve(self) -> PiecewisePoly:
        """The density integrated twice, bit for bit as
        ``density_curve().antiderivative().antiderivative()``: the recurrence
        of :meth:`PiecewisePoly.antiderivative` runs twice on the columns
        formed from the suffix sums, and one curve is built."""
        bx, c0, c1 = self._density_columns()
        h = np.diff(bx)
        c2 = np.zeros(len(bx))
        for _ in range(2):
            ints = ((c2[:-1] / 3.0 * h + c1[:-1] / 2.0) * h + c0[:-1]) * h
            c0, c1, c2, c3 = np.concatenate([[0.0], np.cumsum(ints)]), c0, c1 / 2.0, c2 / 3.0
        return PiecewisePoly(bx, np.column_stack([c0, c1, c2, c3]))


def _solve_nonnegative(thetas: np.ndarray, v: np.ndarray, w: np.ndarray, data: EmpiricalData):
    """Equality solve on the active set plus ratio steps back to feasibility.

    The ECDF integral of ``data`` is re-evaluated if a kink must be jittered
    away from a singular Gram configuration.  Returns ``(thetas, weights, v, G)``
    with all weights strictly positive, the normal equations satisfied on the
    surviving set, and ``G`` its Gram matrix.
    """
    jitters = 0
    for _ in range(3 * len(thetas) + 12):
        G = gram_matrix(thetas)
        try:
            cn = np.linalg.solve(G, v)
        except np.linalg.LinAlgError:
            if jitters >= 3:
                raise FitError("singular generator set") from None
            jitters += 1
            thetas = thetas.copy()
            thetas[-1] *= 1.0 + 1e-9 * jitters
            v = v.copy()
            v[-1] = float(integrated_ecdf(data, thetas[-1]))
            continue
        if np.all(cn > 0.0):
            return thetas, cn, v, G
        neg = cn <= 0.0
        denom = w[neg] - cn[neg]
        ratios = np.where(denom > 0.0, w[neg] / np.where(denom == 0.0, 1.0, denom), 0.0)
        alpha = float(np.min(ratios))
        w = w + alpha * (cn - w)
        w[neg] = np.maximum(w[neg], 0.0)
        drop_value = np.min(w[neg])
        keep = ~(neg & (w <= drop_value))
        thetas, w, v = thetas[keep], w[keep], v[keep]
        if len(thetas) == 0:
            return thetas, w, v, np.empty((0, 0))
    raise FitError("nonnegativity restoration cycled")


def _candidate_grid(data: EmpiricalData):
    """Candidate kinks: the order statistics, their midpoints and ``2 X_(n)``.

    Returns ``(cands, at_data)``, the sorted distinct candidates and the
    position of each distinct data value among them.
    """
    x = data.x
    cands = np.unique(np.concatenate([x, 0.5 * (x[:-1] + x[1:]), [2.0 * float(x[-1])]]))
    return cands, np.searchsorted(cands, data.corners[0])


def _uncleared_pieces(d_cand: np.ndarray, at_data: np.ndarray, yn: PiecewisePoly,
                      clear_at: float) -> np.ndarray:
    """Mask of the pieces of the integrated ECDF ``yn`` on which the gap needs an
    exact minimum.

    ``d_cand`` holds the gap ``G = H - Y_n`` at the candidates and ``at_data``
    the position of each distinct data value among them.  Between two
    consecutive values ``a < b`` the gap is convex (``H''`` is the fitted
    density and ``Y_n`` is linear), so with ``m`` the midpoint candidate
    ``min G >= min(G(m), 2 G(m) - G(a), 2 G(m) - G(b))`` on ``[a, b]``.  An
    interval whose bound reaches ``clear_at`` is cleared.  The pieces
    ``[0, X_(1)]`` and from ``X_(n)`` on, and any interval without a midpoint
    candidate of its own, are always kept.  ``yn`` has one piece per distinct
    data value, plus ``[0, X_(1)]`` when ``X_(1) > 0``.
    """
    ga, gb = d_cand[at_data[:-1]], d_cand[at_data[1:]]
    gm = d_cand[at_data[:-1] + 1]
    bound = np.minimum(gm, 2.0 * gm - np.maximum(ga, gb))
    cleared = (np.diff(at_data) == 2) & (bound >= clear_at)
    keep = np.ones(yn.npieces, dtype=bool)
    first = yn.npieces - len(at_data)
    keep[first:first + len(cleared)] = ~cleared
    return keep


#: Relative certificate tolerance of :func:`fit_lse`: the fit stops once the
#: gap between the double integral of the fit and the ECDF integral is
#: everywhere above ``-_TOL * X_(n)^3`` (the gap carries cubic length units),
#: and the fit's mass is at least ``1 - _TOL * X_(n)^2``.
_TOL = 1e-9


def fit_lse(data: EmpiricalData, full_output: bool = False):
    """Least-squares convex density fit by support reduction.

    ``full_output`` also returns a dict with the objective trace, the pass
    count (``iterations``) and the certificate's ``min_gap``.  The trace
    (the objective after each pass) is computed only then; the passes are
    the same either way.

    Each pass adds the candidate with the most negative gap.  Once the grid
    is clean, the data intervals that the convexity screen cannot clear are
    minimized exactly (the extrema engine on a mask of pieces); a violation
    there becomes the next kink, the same one the full minimization would
    pick.  Otherwise the gap is minimized exactly over all of ``[0,
    horizon]``; only that full check ends the fit, and it gives ``min_gap``,
    which stays above ``-_TOL * X_(n)^3``.  A fit without a certificate
    after ``100 n + 100`` passes raises :class:`FitError`.

    Returns the fitted :class:`ConvexLse` (and the info dict if requested).
    """
    max_iter = 100 * data.n + 100
    scale = float(data.x[-1])
    gap_tol = _TOL * scale**3
    # the screen clears an interval only this far above the certificate, which
    # outweighs the rounding of the grid gap and of the exact pieces
    clear_at = -gap_tol + max(gap_tol, 1e-12 * scale)
    cands, at_data = _candidate_grid(data)
    powers = _powers(cands)
    vcand = np.asarray(integrated_ecdf(data, cands), dtype=float)

    thetas = np.empty(0)
    w = np.empty(0)
    v = np.empty(0)
    qtrace: list[float] = []
    horizon = 3.0 * scale
    yn_curve = integrated_ecdf_curve(data)

    for passes in range(max_iter):
        if len(thetas):
            fit = ConvexLse(thetas, w)
            d_cand = fit._integrated_cdf_sorted(cands, powers) - vcand
        else:
            fit = None
            d_cand = -vcand
        j = int(np.argmin(d_cand))
        new_theta = float(cands[j])
        if d_cand[j] >= -gap_tol:
            # grid is clean; certify (or refute) over the continuum
            if fit is None:
                raise FitError("degenerate sample: ECDF integral vanishes on the grid")
            horizon = max(horizon, 1.3 * float(thetas.max()))
            H = fit.integrated_cdf_curve()
            # a violation found by the screen is the full engine's minimum;
            # only the full check below can end the fit
            ext = _difference_extrema(H, yn_curve, 0.0, horizon,
                                      _uncleared_pieces(d_cand, at_data, yn_curve, clear_at))
            if ext.min_val >= -gap_tol:
                ext = _difference_extrema(H, yn_curve, 0.0, horizon)
                tail_slope = fit.mass - 1.0
                if ext.min_val >= -gap_tol and tail_slope >= -_TOL * scale**2:
                    info = {"objective_trace": qtrace, "min_gap": ext.min_val,
                            "iterations": passes, "horizon": horizon}
                    return (fit, info) if full_output else fit
            if ext.min_val < -gap_tol:
                new_theta = float(ext.min_at)
            else:
                # gap still drifts down past the horizon; aim where it
                # undershoots the certificate
                gap_h = float(curve_sub(H, yn_curve)(horizon))
                new_theta = horizon + (gap_h + 2.0 * gap_tol) / (-tail_slope)
        if len(thetas) and np.min(np.abs(thetas - new_theta)) < 1e-13 * scale:
            new_theta = new_theta + 1e-9 * scale
            if np.min(np.abs(thetas - new_theta)) < 1e-13 * scale:
                raise FitError("stalled on duplicate kink")
        thetas = np.append(thetas, new_theta)
        w = np.append(w, 0.0)
        v = np.append(v, float(integrated_ecdf(data, new_theta)))
        thetas, w, v, G = _solve_nonnegative(thetas, v, w, data)
        if full_output:
            qtrace.append(float(0.5 * w @ G @ w - w @ v) if len(thetas) else 0.0)
    raise FitError(f"no certificate after {max_iter} iterations")


@dataclass(frozen=True)
class CharacterizationReport:
    """Exact diagnostics of the LSE characterization.

    ``min_gap`` is the minimum of (double integral of fit) - (ECDF integral)
    over ``[0, X_(n)]``; it must not fall below ``-_TOL * X_(n)^3``.
    ``max_abs_gap_at_kinks`` is the largest absolute gap at the fitted kinks,
    where the characterization demands equality.  ``tail_min_gap`` extends the
    minimum past the data to three times the largest observation.
    """

    min_gap: float
    max_abs_gap_at_kinks: float
    tail_min_gap: float


def characterization_report(lse: ConvexLse, data: EmpiricalData) -> CharacterizationReport:
    """The fit's exact characterization certificate; kept for acceptance gate #4."""
    xn = float(data.x[-1])
    hi = max(3.0 * xn, 1.3 * float(lse.kinks[-1]))
    gap = curve_sub(lse.integrated_cdf_curve(), integrated_ecdf_curve(data))
    body = extrema(gap, 0.0, xn)
    tail = extrema(gap, xn, hi)
    at_kinks = lse._integrated_cdf_sorted(lse.kinks, _powers(lse.kinks)) - np.asarray(
        integrated_ecdf(data, lse.kinks), dtype=float
    )
    return CharacterizationReport(
        min_gap=body.min_val,
        max_abs_gap_at_kinks=float(np.max(np.abs(at_kinks))),
        tail_min_gap=tail.min_val,
    )


def marshall_A(lse: ConvexLse, data: EmpiricalData, h, interval) -> tuple[float, float]:
    """Distances for the CDF stability inequality against ``h`` with convex slope.

    Returns ``(sup |LSE CDF - h|, 2 sup |F_n - h|)`` over ``interval``; for
    ``h`` with convex derivative the first never exceeds the second.  Kept
    for acceptance gate #3.
    """
    lhs = sup_norm(lse.cdf_curve(), h, interval)
    rhs = 2.0 * sup_norm(ecdf_curve(data), h, interval)
    return lhs, rhs


def marshall_Aprime(lse: ConvexLse, data: EmpiricalData, g, interval) -> tuple[float, float]:
    """Distances for the integrated-CDF stability inequality against convex-curvature ``g``.

    Returns ``(sup |H - g|, sup |Y_n - g|)`` over ``interval`` where ``H`` is
    the double integral of the fit and ``Y_n`` the ECDF integral; for ``g``
    with convex second derivative the first never exceeds twice the second.
    Factor one does not hold: the fitted integrated CDF touches ``Y_n`` only
    at kinks of the fit, so the fit is strictly farther whenever ``Y_n``
    attains its sup distance on the positive side away from a kink.  Kept
    for acceptance gate #3.
    """
    lhs = sup_norm(lse.integrated_cdf_curve(), g, interval)
    rhs = sup_norm(integrated_ecdf_curve(data), g, interval)
    return lhs, rhs
