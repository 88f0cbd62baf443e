"""Piecewise-polynomial curves with exact extrema, sup-norms, and moduli.

Every estimator in this package (empirical CDFs and their integrals, least
concave majorants, convex least-squares fits, cubic spline interpolants) is a
piecewise polynomial of degree at most three.  Keeping that structure explicit
lets sup-norms, one-sided limits, and moduli of continuity be computed from
breakpoints and stationary points instead of grid scans.

Two kinds of curve objects appear:

* :class:`PiecewisePoly` -- right-continuous piecewise polynomial, possibly
  with jumps at breakpoints.
* :class:`SmoothCurve` -- a smooth function bundled with a chain of
  derivatives, used for analytic CDFs and their integrals.

A :class:`CurveSum` combines one of each, which is exactly the shape of
differences like ``ecdf - F`` or ``spline - Y``.  Stationary
points of such differences come from one bisection cascade down the
derivative chain, vectorized across pieces (one batched bisection per
level), which is exact whenever the relevant derivative of the smooth part is
monotone on each piece; all catalog models used here satisfy that (their
densities have one-signed, monotone first and second derivatives on the
working interval).

A curve is given by its piece starts alone: its first piece runs on to the
left and its last piece to the right, as in de Boor's pp-form, so no
breakpoint closes a curve and no curve is padded to cover an interval.  A
difference of two piecewise polynomials has its pieces start at the union of
both operands' piece starts.  One linear-time merge of the sorted starts
gives that grid and each operand's piece under every start.  Each operand is
re-expressed there at its own degree: a line (degree <= 1) builds only its
constant and slope columns, and when both are lines, as in ``lcm - ecdf``,
extrema evaluate each piece at its two ends.  The LSE certificate reads the
extrema of a difference without the merge or the difference: it builds
only the pieces in the window that a mask over one operand's pieces keeps
(all of them when there is no mask).  One function ranks every extremum's
candidates, piece by piece: a tie goes to the first, and a zero extremum is
returned as ``+0.0``.

:func:`sup_norm` of curves given in floats is within ``2 * 2**-53 * scale`` of
the exact sup (``scale`` the larger curve magnitude on the interval).  Against a
rational oracle the worst measured is 0.40 for ``lcm - ecdf``, 0.76 for the LSE
CDF minus the ECDF and 0.79 for the LSE integrated CDF minus the integrated ECDF.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PiecewisePoly",
    "SmoothCurve",
    "curve_sub",
    "extrema",
    "sup_norm",
    "modulus",
]

_BISECT_ITERS = 90


def _check_breakpoints(x: np.ndarray, name: str = "breakpoints") -> None:
    """Refuse breakpoints that are not finite and strictly increasing (NaN included)."""
    if not (np.all(np.diff(x) > 0) and np.isfinite(x[0]) and np.isfinite(x[-1])):
        raise ValueError(f"{name} must be finite and strictly increasing")


def _merge(xa: np.ndarray, xb: np.ndarray):
    """Piece starts of a sum of two curves, with the piece of each operand
    under every start.

    The sum's pieces start at the sorted union of both operands' piece
    starts.  A stable argsort of the concatenated starts merges the two
    sorted runs in linear time (timsort).  At the last copy of each start, a
    running count of the starts of ``xa`` passed so far equals
    ``searchsorted(xa, t, "right")``, and the rest of the merge position
    counts those of ``xb``; so neither array is searched.  Before its first
    start an operand continues its first piece.  Returns ``(xs, ia, ib)``.
    """
    both = np.concatenate([xa, xb])
    order = np.argsort(both, kind="stable")
    merged = both[order]
    del both
    keep = np.flatnonzero(np.append(merged[1:] != merged[:-1], True))
    seen_a = np.cumsum(order < len(xa))[keep]
    ia, ib = seen_a - 1, keep - seen_a
    np.maximum(ia, 0, out=ia)
    np.maximum(ib, 0, out=ib)
    return merged[keep], ia, ib


def _sum_coefficients(a: "PiecewisePoly", b: "PiecewisePoly",
                      x0: np.ndarray, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """Coefficients of ``a - b`` on pieces starting at ``x0``: the columns
    ``c0`` and ``c1`` when both are lines, else all four.

    ``ia`` and ``ib`` hold the piece of each operand under each of ``x0``.
    Each operand is retargeted at its own degree, and a column it lacks
    counts as ``0.0``: a line less a cubic is ``0.0 - cb`` in the columns the
    line lacks, which is what retargeting its zero columns would give, up to
    the sign of a zero.
    """
    ra = a._retarget(x0, ia)
    rb = b._retarget(x0, ib)
    c = np.empty((len(x0), max(len(ra), len(rb))))
    for j in range(c.shape[1]):
        np.subtract(ra[j] if j < len(ra) else 0.0, rb[j] if j < len(rb) else 0.0, out=c[:, j])
    return c


@dataclass(frozen=True)
class PiecewisePoly:
    """Right-continuous piecewise polynomial given by its piece starts.

    ``x`` holds the strictly increasing starts of the ``m`` pieces and ``c``
    is ``(m, 4)``.  Piece ``i`` covers ``[x[i], x[i+1])`` and evaluates as
    ``c[i,0] + c[i,1]*u + c[i,2]*u**2 + c[i,3]*u**3`` with ``u = t - x[i]``.
    The first piece also runs on to the left of ``x[0]`` and the last piece
    on to the right, as in de Boor's pp-form, so no breakpoint closes a curve.
    """

    x: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        c = np.asarray(self.c, dtype=float)
        if x.ndim != 1 or len(x) < 1:
            raise ValueError("need at least one piece")
        if c.shape != (len(x), 4):
            raise ValueError(f"coefficient array must be ({len(x)}, 4)")
        _check_breakpoints(x)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "c", c)

    @property
    def npieces(self) -> int:
        return len(self.x)

    def degree(self) -> int:
        """Highest power with a nonzero coefficient in some piece."""
        # One contiguous pass: a row's four nonzero flags (one byte each) read
        # as one uint32 and OR-ed over the rows.  np.any(c != 0, axis=0) takes
        # 7-8x longer on (n, 4) arrays, which made one sup_norm(lcm, ecdf) call
        # 25-30% slower at n = 32768 and 2^20 (three degree() calls per call).
        row_flags = np.not_equal(self.c, 0.0, order="C").view(np.uint32)
        column_flags = np.bitwise_or.reduce(row_flags, axis=0).view(np.bool_)
        nonzero = np.flatnonzero(column_flags)
        return int(nonzero[-1]) if len(nonzero) else 0

    def _piece_index(self, t, side="right"):
        return np.clip(np.searchsorted(self.x, t, side=side) - 1, 0, self.npieces - 1)

    def _eval(self, t, side):
        t = np.asarray(t, dtype=float)
        i = self._piece_index(t, side)
        u = t - self.x[i]
        c = self.c[i]
        out = ((c[..., 3] * u + c[..., 2]) * u + c[..., 1]) * u + c[..., 0]
        return out if out.ndim else float(out)

    def __call__(self, t):
        return self._eval(t, "right")

    def left_limit(self, t):
        """Limit from the left; equals the value where the curve is continuous."""
        return self._eval(t, "left")

    def derivative(self) -> "PiecewisePoly":
        c = self.c
        dc = np.column_stack([c[:, 1], 2.0 * c[:, 2], 3.0 * c[:, 3], np.zeros(len(c))])
        return PiecewisePoly(self.x, dc)

    def antiderivative(self) -> "PiecewisePoly":
        """Continuous antiderivative, zero at the left endpoint.

        Only defined for pieces of degree <= 2 (the result must stay cubic).
        """
        if np.any(self.c[:, 3] != 0.0):
            raise ValueError("antiderivative of a cubic piece exceeds degree 3")
        h = np.diff(self.x)
        c = self.c
        ints = ((c[:-1, 2] / 3.0 * h + c[:-1, 1] / 2.0) * h + c[:-1, 0]) * h
        starts = np.concatenate([[0.0], np.cumsum(ints)])
        nc = np.column_stack([starts, c[:, 0], c[:, 1] / 2.0, c[:, 2] / 3.0])
        return PiecewisePoly(self.x, nc)

    def _retarget(self, x0: np.ndarray, i: np.ndarray):
        """Coefficient columns re-expressed on pieces of a finer grid starting at ``x0``.

        ``i`` holds the piece of ``self`` under each of ``x0``.  Lines
        (:meth:`degree` at most 1) build only the ``c0`` and ``c1`` columns;
        higher degrees all four.
        """
        d = x0 - self.x[i]
        if self.degree() <= 1:
            c1 = self.c[i, 1]
            return c1 * d + self.c[i, 0], c1
        c0, c1, c2, c3 = (self.c[i, j] for j in range(4))
        n0 = ((c3 * d + c2) * d + c1) * d + c0
        n1 = (3.0 * c3 * d + 2.0 * c2) * d + c1
        n2 = 3.0 * c3 * d + c2
        return n0, n1, n2, c3

    def __sub__(self, other):
        if isinstance(other, PiecewisePoly):
            xs, ia, ib = _merge(self.x, other.x)
            c = _sum_coefficients(self, other, xs, ia, ib)
            return PiecewisePoly(xs, np.pad(c, ((0, 0), (0, 4 - c.shape[1]))))
        return NotImplemented

    def __neg__(self):
        return PiecewisePoly(self.x, -self.c)


class SmoothCurve:
    """A smooth function with a chain of derivatives.

    ``funcs[k]`` is the k-th derivative, each vectorized over numpy arrays.
    The extrema cascade also assumes the *last* supplied derivative is
    monotone on the interval of interest; the analytic model curves used in
    this package satisfy that.
    """

    def __init__(self, *funcs):
        if not funcs:
            raise ValueError("need at least one callable")
        self.funcs = tuple(funcs)

    @property
    def order(self) -> int:
        return len(self.funcs) - 1

    def __call__(self, t):
        return self.funcs[0](t)

    def derivative(self) -> "SmoothCurve":
        if len(self.funcs) < 2:
            raise ValueError("derivative chain exhausted")
        return SmoothCurve(*self.funcs[1:])

    def __sub__(self, other):
        if isinstance(other, SmoothCurve):
            return SmoothCurve(*((lambda t, fa=fa, fb=fb: fa(t) - fb(t))
                                 for fa, fb in zip(self.funcs, other.funcs)))
        return NotImplemented

    def __neg__(self):
        return SmoothCurve(*((lambda t, f=f: -f(t)) for f in self.funcs))


@dataclass(frozen=True)
class CurveSum:
    """``poly + smooth``, either part optional (``None`` standing for zero)."""

    poly: PiecewisePoly | None = None
    smooth: SmoothCurve | None = None

    def _eval(self, t, side):
        out = np.zeros_like(np.asarray(t, dtype=float))
        if self.poly is not None:
            out = out + self.poly._eval(t, side)
        if self.smooth is not None:
            out = out + self.smooth(t)
        return out if out.ndim else float(out)

    def __call__(self, t):
        return self._eval(t, "right")

    def left_limit(self, t):
        return self._eval(t, "left")

    def derivative(self) -> "CurveSum":
        return CurveSum(
            None if self.poly is None else self.poly.derivative(),
            None if self.smooth is None else self.smooth.derivative(),
        )


def as_curve(obj) -> CurveSum:
    """Coerce a curve part into a :class:`CurveSum`."""
    if isinstance(obj, CurveSum):
        return obj
    if isinstance(obj, PiecewisePoly):
        return CurveSum(poly=obj)
    if isinstance(obj, SmoothCurve):
        return CurveSum(smooth=obj)
    raise TypeError(f"cannot interpret {type(obj).__name__} as a curve")


def _minus(a, b):
    """``a - b`` for two optional curve parts, ``None`` standing for zero."""
    if b is None:
        return a
    return -b if a is None else a - b


def curve_sub(g, h) -> CurveSum:
    g = as_curve(g)
    h = as_curve(h)
    return CurveSum(_minus(g.poly, h.poly), _minus(g.smooth, h.smooth))


@dataclass(frozen=True)
class Extrema:
    min_val: float
    min_at: float
    max_val: float
    max_at: float

    @property
    def sup_abs(self) -> float:
        return max(abs(self.min_val), abs(self.max_val))


def _quad_roots(a, b, c):
    """Real roots of a*u^2 + b*u + c, vectorized; NaN where absent."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    r1 = np.full(a.shape, np.nan)
    r2 = np.full(a.shape, np.nan)
    lin = (a == 0.0) & (b != 0.0)
    r1[lin] = -c[lin] / b[lin]
    quad = a != 0.0
    disc = b * b - 4.0 * a * c
    ok = quad & (disc >= 0.0)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    q = -0.5 * (b + np.where(b >= 0.0, sq, -sq))
    # a subnormal ``a`` overflows q / a to an infinite root, outside every piece
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r1 = np.where(ok, np.where(q != 0.0, c / np.where(q == 0.0, 1.0, q), 0.0), r1)
        r2 = np.where(ok, q / np.where(a == 0.0, 1.0, a), r2)
    return r1, r2


def _window(x: np.ndarray, lo: float, hi: float):
    """Pieces starting at ``x`` that meet [lo, hi], with [lo, hi] in each piece's local offsets.

    Returns ``(sl, ulo, uhi)``: a slice of the pieces and the local offsets of
    ``lo`` and ``hi`` within each of them.  Each piece ends where the next
    starts, and the last one in the slice at ``hi``.  As in evaluation, the
    first piece continues to the left of ``x[0]`` and the last piece has no
    right end, so the offsets of the window ends are not clipped and windows
    partly or wholly outside the piece starts are covered.
    """
    i0, i1 = np.clip(np.searchsorted(x, [lo, hi], side="right") - 1, 0, len(x) - 1)
    sl = slice(i0, i1 + 1)
    ulo = np.zeros(i1 + 1 - i0)
    ulo[0] = lo - x[i0]
    uhi = np.append(x[i0 + 1:i1 + 1], hi) - x[sl]
    return sl, ulo, uhi


def _poly_stationary(cc, ulo, uhi):
    """Stationary points of cubic pieces strictly inside (ulo, uhi), local offsets.

    ``cc`` holds local coefficients, one row per piece.  Returns a
    ``(pieces, 2)`` array, NaN where a piece has fewer interior roots.
    """
    r = np.column_stack(_quad_roots(3.0 * cc[:, 3], 2.0 * cc[:, 2], cc[:, 1]))
    inside = (r > ulo[:, None]) & (r < uhi[:, None])
    return np.where(inside, r, np.nan)


def _check_interval(lo: float, hi: float) -> None:
    """Refuse an interval unless both ends are finite and ``lo < hi`` (NaN included)."""
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"interval must be finite with lo < hi, got ({lo}, {hi})")


def _flat(lo: float) -> PiecewisePoly:
    """The zero polynomial from ``lo`` on, standing in for a missing poly part."""
    return PiecewisePoly(np.array([lo]), np.zeros((1, 4)))


def _piece_extrema(x0, cc, us, add=None, ts=None) -> Extrema:
    """Extrema among candidates at local offsets ``us`` (a row per piece
    starting at ``x0``): Horner over the columns of ``cc`` (``c0`` first, two
    for a line), plus ``add`` if given.  Ranked piece by piece, so a tie goes
    to the first piece and column, and any subset of pieces in order ranks as
    the whole set does.  A zero extremum is returned as ``+0.0``.  A location
    is ``ts[i, j]`` if the candidates' points are given, else ``x0[i] + us[i, j]``.
    """
    # Horner in place, as ((c3*u + c2)*u + c1)*u + c0 without temporaries, and
    # only the winners' locations: these set a convex fit's memory peak
    vals = cc[:, -1, None] * us
    for j in range(cc.shape[1] - 2, 0, -1):
        vals += cc[:, j, None]
        vals *= us
    vals += cc[:, 0, None]
    if add is not None:
        vals += add
    kmin, kmax = int(np.argmin(vals)), int(np.argmax(vals))
    (imin, jmin), (imax, jmax) = divmod(kmin, us.shape[1]), divmod(kmax, us.shape[1])
    def at(i, j):
        return float(x0[i] + us[i, j] if ts is None else ts[i, j])
    return Extrema(float(vals[imin, jmin]) + 0.0, at(imin, jmin),
                   float(vals[imax, jmax]) + 0.0, at(imax, jmax))


def _poly_extrema(x0, cc, ulo, uhi) -> Extrema:
    """Extrema over pieces starting at ``x0`` with local coefficients ``cc``,
    each over its local offsets ``[ulo, uhi]``.  One-sided limits count: each
    piece gives its closed left end, its open right end and its interior
    stationary points (lines, given as two columns, have none).
    """
    if cc.shape[1] == 2:
        return _piece_extrema(x0, cc, np.column_stack([ulo, uhi]))
    # a piece without an interior root repeats its left end
    return _piece_extrema(x0, cc, np.column_stack(
        [ulo, uhi, np.fmax(_poly_stationary(cc, ulo, uhi), ulo[:, None])]))


def _union_floor(xa: np.ndarray, ra: int, xb: np.ndarray, rb: int):
    """Start of the piece of ``a - b`` under a point that ``ra`` starts of ``a``
    and ``rb`` of ``b`` do not exceed: the later of the two operands' last
    such starts, or the first start of both when there is none (the first
    piece runs on to the left)."""
    if ra == 0 and rb == 0:
        return min(xa[0], xb[0])
    return max(xa[ra - 1] if ra else -np.inf, xb[rb - 1] if rb else -np.inf)


def _difference_extrema(a: PiecewisePoly, b: PiecewisePoly, lo: float, hi: float,
                        keep=None) -> Extrema:
    """``extrema(curve_sub(a, b), lo, hi)`` bit for bit, built on the kept pieces only.

    ``keep`` is a boolean mask over the pieces of ``b``, and ``None`` keeps
    them all; either way one route runs.  A piece of ``a - b`` (they start
    at the union of both operands' starts) is kept when the piece of ``b``
    under its start is, and the kept ones rank as in the full window.  Only
    the kept pieces in the window are built: the kept starts of ``b`` there,
    plus the starts of ``a`` there that fall in a kept piece of ``b`` and
    are not starts of ``b``.  So a masked call costs what its kept pieces
    cost, not what ``b``'s do.  Each piece ends at the next start of either
    operand, the window's first piece starts at ``lo`` and its last ends at
    ``hi``, by the same subtractions as :func:`_window`.  Lines (both
    operands of degree <= 1) take two candidates a piece; a difference whose
    cubic terms cancel keeps the cubic branch, which gives the same values,
    zeros aside.  A mask that is not one boolean per piece of ``b``, or that
    keeps no piece in the window, raises ``ValueError``.
    """
    _check_interval(lo, hi)
    xa, xb = a.x, b.x
    if keep is None:
        keep = np.ones(len(xb), dtype=bool)
    elif not (isinstance(keep, np.ndarray) and keep.dtype == np.bool_ and keep.shape == xb.shape):
        raise ValueError(f"keep must be a boolean array with one entry per piece of b ({len(xb)})")
    # the starts of each operand at or before lo and hi, and the window's first and last start
    na, nb = np.searchsorted(xa, (lo, hi), side="right"), np.searchsorted(xb, (lo, hi), side="right")
    first, last = _union_floor(xa, na[0], xb, nb[0]), _union_floor(xa, na[1], xb, nb[1])
    # the kept starts of b in the window, and the starts of a there that split a kept piece of b
    j0, j1 = np.searchsorted(xb, first, side="left"), np.searchsorted(xb, last, side="right")
    kb = j0 + np.flatnonzero(keep[j0:j1])
    sa = xa[np.searchsorted(xa, first, side="left"):np.searchsorted(xa, last, side="right")]
    rb_a = np.searchsorted(xb, sa, side="right")
    jb = np.maximum(rb_a - 1, 0)
    split = keep[jb] & (xb[jb] != sa)
    sa, rb_a = sa[split], rb_a[split]
    if not (len(kb) or len(sa)):
        raise ValueError(f"keep leaves no piece of the difference in [{lo}, {hi}]")
    # merge the two sorted runs, and count the starts of each operand at or
    # before each piece's start
    at = np.searchsorted(xb[kb], sa) + np.arange(len(sa))
    from_b = np.ones(len(kb) + len(sa), dtype=bool)
    from_b[at] = False
    x0, rb = np.empty(len(from_b)), np.empty(len(from_b), dtype=np.intp)
    x0[from_b], x0[at], rb[from_b], rb[at] = xb[kb], sa, kb + 1, rb_a
    ra = np.searchsorted(xa, x0, side="right")
    # each piece ends at the next start of either operand
    ends = np.append(xa, np.inf)[ra]
    np.minimum(ends, np.where(rb < len(xb), xb.take(rb, mode="clip"), np.inf), out=ends)
    ulo, uhi = np.zeros(len(x0)), ends - x0
    if x0[0] == first:
        ulo[0] = lo - x0[0]
    if x0[-1] == last:
        uhi[-1] = hi - x0[-1]
    ia, ib = np.maximum(ra - 1, 0), np.maximum(rb - 1, 0)
    c = _sum_coefficients(a, b, x0, ia, ib)
    del ia, ib  # not held through the ranking, which sets the memory peak
    return _poly_extrema(x0, c, ulo, uhi)


def _bisect_many(func, a, b):
    """Vectorized bisection on brackets [a, b] where func changes sign.

    Each bracket stops once ``b - a <= 1e-15 * (1 + |a|)``, so its result does
    not depend on which other brackets share the batch.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    fa = func(a)
    run = np.ones(a.shape, dtype=bool)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (a + b)
        fm = func(mid)
        left = fa * fm <= 0.0
        b = np.where(run & left, mid, b)
        a = np.where(run & ~left, mid, a)
        fa = np.where(run & ~left, fm, fa)
        run &= b - a > 1e-15 * (1.0 + np.abs(a))
        if not run.any():
            break
    return 0.5 * (a + b)


def _eval_hybrid(pc, x0, fs, t):
    """``p(t - x0) + fs(t)`` for a cubic ``p`` with coefficients ``pc[0..3]``,
    each broadcast against ``t``."""
    u = t - x0
    return ((pc[3] * u + pc[2]) * u + pc[1]) * u + pc[0] + fs(t)


def _hybrid_stationary(cc, x0, alo, ahi, smooth: SmoothCurve):
    """Stationary points of ``p_j(t - x0_j) + phi(t)`` inside each (alo_j, ahi_j).

    ``cc`` holds the local coefficients of the cubic pieces ``p_j``.  The
    cascade works down the derivative chain for all pieces at once, each to
    its own depth: at a piece's deepest level the polynomial term is constant
    and the last smooth derivative is assumed monotone, so each level has at
    most one more root than the level below, all isolated by sign changes
    and found with one :func:`_bisect_many` call per level.  Returns a
    ``(pieces, m)`` array, NaN where a piece has fewer than ``m`` points.
    """
    deg = np.select([cc[:, 3] != 0.0, cc[:, 2] != 0.0, cc[:, 1] != 0.0], [3, 2, 1], 0)
    live = ahi > alo
    if smooth.order < max(1, int(deg[live].max(initial=0))):
        raise ValueError("smooth part lacks derivatives for exact extrema")
    depth = np.where(live, np.minimum(deg, min(smooth.order - 1, 2)), -1)
    ders = [cc]
    for _ in range(3):
        d = ders[-1]
        ders.append(np.column_stack([d[:, 1], 2.0 * d[:, 2], 3.0 * d[:, 3], np.zeros(len(d))]))
    roots = np.full((len(cc), 0), np.nan)
    for level in range(int(depth.max(initial=-1)), -1, -1):
        on = depth >= level
        pc, xo, fs = ders[level + 1][on].T, x0[on], smooth.funcs[level + 1]
        # bracket points: the roots of the level below between the piece ends
        pts = np.column_stack([alo[on], roots[on], ahi[on]])
        q = np.fmax.accumulate(pts, axis=1)
        fq = _eval_hybrid(pc[:, :, None], xo[:, None], fs, q)
        new = np.column_stack([np.where((fq == 0.0) & ~np.isnan(pts), q, np.nan),
                               np.full((len(q), q.shape[1] - 1), np.nan)])
        i, k = np.nonzero(fq[:, :-1] * fq[:, 1:] < 0.0)
        if len(i):
            new[i, q.shape[1] + k] = _bisect_many(
                lambda t: _eval_hybrid(pc[:, i], xo[i], fs, t), q[i, k], q[i, k + 1])
        new = np.sort(new, axis=1)  # NaN last
        roots = np.full((len(cc), int(np.max(np.sum(~np.isnan(new), axis=1)))), np.nan)
        roots[on] = new[:, :roots.shape[1]]
    return np.where((roots > alo[:, None]) & (roots < ahi[:, None]), roots, np.nan)


def _hybrid_extrema(poly: PiecewisePoly, smooth: SmoothCurve, lo: float, hi: float) -> Extrema:
    """Extrema of ``poly + smooth`` on [lo, hi]."""
    sl, ulo, uhi = _window(poly.x, lo, hi)
    x0, cc = poly.x[sl], poly.c[sl]
    alo = x0 + ulo
    roots = _hybrid_stationary(cc, x0, alo, x0 + uhi, smooth)
    # a piece without a root repeats its left end
    ts = np.column_stack([alo, x0 + uhi, np.fmax(roots, alo[:, None])])
    return _piece_extrema(x0, cc, ts - x0[:, None], smooth(ts), ts)


def extrema(g, lo: float, hi: float) -> Extrema:
    """Exact extrema (values and locations) of a curve over [lo, hi].

    One-sided limits at jump points participate, so the results equal the
    closure of the range of ``g`` on the interval; a zero extremum is
    ``+0.0``.  The ends must be finite with ``lo < hi``.
    """
    _check_interval(lo, hi)
    cs = as_curve(g)
    poly = cs.poly if cs.poly is not None else _flat(lo)
    if cs.smooth is None:
        sl, ulo, uhi = _window(poly.x, lo, hi)
        return _poly_extrema(poly.x[sl], poly.c[sl, :2 if poly.degree() <= 1 else 4], ulo, uhi)
    return _hybrid_extrema(poly, cs.smooth, lo, hi)


def sup_norm(g, h, interval) -> float:
    """Exact sup of ``|g - h|`` over a closed interval with finite ends.

    Both arguments may be piecewise polynomials, smooth curves or curve
    sums.  Jumps contribute through their one-sided limits.
    """
    lo, hi = float(interval[0]), float(interval[1])
    return extrema(curve_sub(g, h), lo, hi).sup_abs


#: Keys of a lemma-check row, in the order ``_check`` builds them.
_CHECK_COLUMNS = ("name", "pass", "lhs", "rhs", "margin")


def _check(name: str, lhs: float, rhs: float, ok=None) -> dict:
    """One lemma-check row; ``pass`` is ``lhs <= rhs`` exactly unless ``ok`` is given."""
    ok = bool(lhs <= rhs) if ok is None else bool(ok)
    return dict(zip(_CHECK_COLUMNS, (name, ok, float(lhs), float(rhs), float(rhs - lhs))))


def _range_extrema(vals: np.ndarray, i: np.ndarray, j: np.ndarray):
    """Min and max of ``vals`` over each inclusive index window ``[i, j]``.

    A sparse table: row ``L`` holds the extrema of the ``2**L`` values from
    each index on (entries that would run past the end are never read), so a
    window of length ``>= 2**L`` is covered by two overlapping row-``L``
    entries, and all windows are answered with one fancy-indexed query.  An
    empty window (``j < i``) gives ``inf`` and ``-inf``.
    """
    m = len(vals)
    mins = np.empty((max(1, m.bit_length()), m))
    maxs = np.empty_like(mins)
    mins[0] = maxs[0] = vals
    for L in range(1, len(mins)):
        half = 1 << (L - 1)
        np.minimum(mins[L - 1, :-half], mins[L - 1, half:], out=mins[L, :-half])
        np.maximum(maxs[L - 1, :-half], maxs[L - 1, half:], out=maxs[L, :-half])
    ok = j >= i
    L = np.frexp(np.where(ok, j - i + 1, 1).astype(float))[1] - 1  # floor(log2(length))
    a = np.where(ok, i, 0)
    b = np.where(ok, j + 1 - np.left_shift(1, L), 0)
    return (np.where(ok, np.minimum(mins[L, a], mins[L, b]), np.inf),
            np.where(ok, np.maximum(maxs[L, a], maxs[L, b]), -np.inf))


def _shifted(cs: CurveSum, width: float) -> CurveSum:
    """``t -> g(t + width)``, dropping each piece whose start the shift rounds
    onto the next piece's start (the last piece has none, so it stays)."""
    poly, smooth = cs.poly, cs.smooth
    if poly is not None:
        x = poly.x - width
        keep = np.append(np.diff(x) > 0.0, True)
        poly = PiecewisePoly(x[keep], poly.c[keep])
    if smooth is not None:
        smooth = SmoothCurve(*((lambda t, f=f: f(t + width)) for f in smooth.funcs))
    return CurveSum(poly, smooth)


def modulus(g, width: float, interval) -> float:
    """Modulus of continuity ``sup {|g(t) - g(s)| : |t - s| <= width}``.

    Exact for piecewise polynomials (jumps allowed, one-sided limits counted)
    and for constant/linear pieces plus a smooth part whose first and second
    derivatives are monotone on the interval -- which covers empirical CDFs,
    their centered versions, and all catalog model curves.

    A best pair either has an end at an event (breakpoint, interval end or
    stationary point), found with range tables over the events, or sits
    exactly ``width`` apart, where it is an extremum of the increment curve
    ``g(w + width) - g(w)`` on ``[lo, hi - width]`` from :func:`extrema`.
    As in evaluation, the poly part's first piece continues to the left of
    its first start and its last piece has no right end.  The interval ends
    must be finite with ``lo < hi``, and ``width`` finite and positive.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (np.isfinite(width) and width > 0.0):
        raise ValueError(f"width must be finite and positive, got {width}")
    _check_interval(lo, hi)
    cs = as_curve(g)
    if width >= hi - lo:
        e = extrema(cs, lo, hi)
        return e.max_val - e.min_val

    # events: breakpoints, interval ends, and stationary points inside pieces
    # (NaN marks a piece without one and drops out with the range filter)
    poly = cs.poly if cs.poly is not None else _flat(lo)
    ev = [np.array([lo, hi]), poly.x[(poly.x > lo) & (poly.x < hi)]]
    sl, ulo, uhi = _window(poly.x, lo, hi)
    x0 = poly.x[sl]
    deg = poly.degree()
    if cs.smooth is not None:
        if deg >= 2:
            raise NotImplementedError(
                "modulus with quadratic/cubic pieces plus a smooth part is not supported"
            )
        ev.append(_hybrid_stationary(poly.c[sl], x0, x0 + ulo, x0 + uhi, cs.smooth).ravel())
    elif deg >= 2:
        ev.append((x0[:, None] + _poly_stationary(poly.c[sl], ulo, uhi)).ravel())

    pts = np.unique(np.concatenate(ev))
    pts = pts[(pts >= lo) & (pts <= hi)]
    rvals = np.asarray(cs(pts), dtype=float)
    lvals = np.asarray(cs.left_limit(pts), dtype=float)
    lvals[0] = rvals[0]  # left limit at lo is outside the interval

    wlo = np.maximum(lo, pts - width)
    whi = np.minimum(hi, pts + width)
    clipped = pts + width > hi
    # One table over left limits and right values interleaved (entry 2p the
    # left limit at pts[p], 2p + 1 the value there).  The value at an event
    # pairs with the left limits at events in (wlo, whi] and the values at
    # events in [wlo, whi], which is one run of entries.  Its left limit
    # pairs with the same run less the value at whi = p + width, which lies
    # more than width away, and with the left limit at whi for an edge;
    # clipped at hi, the window keeps the value there.
    first = np.searchsorted(pts, wlo, side="left") + np.searchsorted(pts, wlo, side="right")
    upto = np.searchsorted(pts, whi, side="right")
    last_r = 2 * upto - 1
    last_l = np.where(clipped, last_r, np.searchsorted(pts, whi, side="left") + upto - 1)
    vmin, vmax = _range_extrema(np.column_stack([lvals, rvals]).ravel(),
                                np.concatenate([first, first]), np.concatenate([last_r, last_l]))
    edge_lo = np.tile(np.asarray(cs(wlo), dtype=float), 2)
    edge_r = np.asarray(cs(whi), dtype=float)
    edge_hi = np.concatenate([edge_r, np.where(clipped, edge_r, cs.left_limit(whi))])
    wmin = np.minimum(vmin, np.minimum(edge_lo, edge_hi))
    wmax = np.maximum(vmax, np.maximum(edge_lo, edge_hi))
    here = np.concatenate([rvals, lvals])
    best = float(np.max(np.maximum(here - wmin, wmax - here)))

    best = max(best, extrema(curve_sub(_shifted(cs, width), cs), lo, hi - width).sup_abs)
    return max(best, 0.0)
