"""Analytic distribution models with closed-form CDFs, inverses, and integrals.

Each model lives on ``[0, support_end)`` with a decreasing density; the convex
families also have strictly convex densities.  A working endpoint ``tau`` is
fixed at a CDF quantile (default ``F(tau) = 0.75``) and all convex-side shape
constants are taken over ``[0, tau]``.

Catalog
-------
``truncated-exponential``   params ``(rate,)`` or ``(rate, b)``; ``b = inf`` allowed
``shifted-power``           params ``(p, theta)`` with ``p >= 2``: density ~ ``(theta - x)^p``
``beta-like``               params ``()`` or ``(b,)`` with ``b > 1``: density ~ ``(1 - x)(b - x)`` on [0, 1]
``uniform``                 params ``()`` or ``(width,)``: flat density (degenerate constants)
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Callable

import numpy as np

from .curves import SmoothCurve

__all__ = [
    "AnalyticModel",
    "ModelConstants",
    "KnotMesh",
    "make_model",
    "constants",
    "knot_mesh_convex",
    "knot_mesh_monotone",
    "mean_value_knot",
    "CATALOG",
]


@dataclass(frozen=True)
class AnalyticModel:
    """A distribution on [0, support_end) with closed-form machinery.

    Attributes
    ----------
    name, params : identification of the catalog family.
    support_end : right end of the support (may be ``inf``).
    tau : working endpoint, ``F(tau) = tau_mass``.
    tau_mass : CDF value at ``tau``.
    f, fprime, fsecond : density and its derivatives, vectorized.
    F : CDF; Finv : its inverse on [0, 1); Fint : ``t -> integral_0^t F``.
        ``Finv`` leaves its input alone and returns a new array, which
        :func:`shapedist.empirical.sample` sorts in place.  The beta-like
        ``Finv`` is the bisection of :func:`_bisect_inverse` on [0, 1],
        started per point at a certified bracket tens of levels down with
        the rest of its 80 steps (:func:`_beta_like_inverse`); its bits are
        those of the bisection from [0, 1].

    Every catalog family keeps two monotonicity contracts on the support.
    ``f'`` and ``f''`` are monotone, which the extrema cascade of
    :mod:`shapedist.curves` relies on.  And ``f``, ``-f'``, ``f''``,
    ``|f''|``, ``-f'/f^2`` and ``f''/f^3`` are monotone, so their inf and sup
    over an interval are end values: :func:`constants` and the curvature
    bounds take them there.  A new family must keep both.
    """

    name: str
    params: tuple
    support_end: float
    tau: float
    tau_mass: float
    f: Callable
    fprime: Callable
    fsecond: Callable
    F: Callable
    Finv: Callable
    Fint: Callable

    def F_curve(self) -> SmoothCurve:
        return SmoothCurve(self.F, self.f, self.fprime, self.fsecond)

    def Fint_curve(self) -> SmoothCurve:
        return SmoothCurve(self.Fint, self.F, self.f, self.fprime)


@dataclass(frozen=True)
class ModelConstants:
    """Shape constants of a model.

    ``beta1``/``gamma1`` are the monotone-side constants (inf and sup of
    ``-f'/f^2``-type ratios over the full support); the remaining four are
    convex-side constants over ``[0, tau]``:

    * ``beta2``  = inf of the ratio f''/f^3
    * ``gamma1_tilde`` = sup(-f'/f^2)
    * ``gamma2`` = sup f'' / inf f^3
    * ``R`` = max(1, f(0)) / f(tau)
    """

    beta1: float
    gamma1: float
    beta2: float
    gamma1_tilde: float
    gamma2: float
    R: float


def _extreme(fn, lo, hi, kind: str):
    """Inf or sup of ``fn`` on ``[lo, hi]``, taken at the two ends.

    Every function passed here is monotone on its interval (see
    ``AnalyticModel``), so its extremes are end values.  A NaN end (0/0
    where the density vanishes) is skipped.  Arrays of ends give one
    extreme per interval; scalar ends give a float.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = np.asarray(fn(np.array([lo, hi])), dtype=float)
    out = np.nanmax(v, axis=0) if kind == "sup" else np.nanmin(v, axis=0)
    return out if out.ndim else float(out)


def constants(model: AnalyticModel) -> ModelConstants:
    """Compute the shape constants of ``model``.

    Monotone-side constants use the full support (truncated at the
    ``1 - 1e-12`` quantile when the support is infinite); convex-side
    constants use ``[0, tau]``.  Each inf and sup is the better of the two
    interval ends, exact for the monotone ratios that ``AnalyticModel``
    guarantees.  Values may be infinite when the model genuinely violates
    the corresponding regularity condition.
    """
    f, fp, fpp = model.f, model.fprime, model.fsecond
    hi_mono = model.support_end
    if not np.isfinite(hi_mono):
        hi_mono = float(model.Finv(1.0 - 1e-12))
    beta1 = _extreme(lambda t: -fp(t) / f(t) ** 2, 0.0, hi_mono, "inf")
    sup_neg_fp = _extreme(lambda t: -fp(t), 0.0, hi_mono, "sup")
    inf_f_mono = _extreme(f, 0.0, hi_mono, "inf")
    gamma1 = sup_neg_fp / inf_f_mono**2 if inf_f_mono > 0 else float("inf")

    tau = model.tau
    sup_fpp = _extreme(fpp, 0.0, tau, "sup")
    inf_f = _extreme(f, 0.0, tau, "inf")
    beta2 = _extreme(lambda t: fpp(t) / f(t) ** 3, 0.0, tau, "inf")
    gamma2 = sup_fpp / inf_f**3 if inf_f > 0 else float("inf")
    gamma1_tilde = _extreme(lambda t: -fp(t) / f(t) ** 2, 0.0, tau, "sup")
    R = max(1.0, float(model.f(0.0))) / float(model.f(tau))
    return ModelConstants(beta1, gamma1, beta2, gamma1_tilde, gamma2, R)


def _bisect_inverse(F, lo, hi, u, level=0):
    """Vectorized bisection solve of F(x) = u on [lo, hi] for increasing F.

    ``lo``, ``hi`` and ``level`` are scalars or arrays shaped like ``u``: a
    per-point start bracket, taken to be the one that ``level`` steps of this
    loop would reach from a root bracket.  Each point has ``80 - level``
    steps left, so it ends where 80 steps from the root bracket leave it.
    The loop stops early after the first step that moves no bracket end: the
    next step depends only on ``(a, b)`` and the steps left, so every later
    step would repeat it and the result is the same to the bit.  NaN maps
    to NaN.

    The bracket ends are kept as int64 bit patterns, and each step selects
    with masks.  ``live`` is all ones while a point has steps left, and
    ``take`` is ``live`` where ``F(mid) < u`` and zero elsewhere; so
    ``a ^ ((a ^ mid) & take)`` is ``mid`` where ``take`` is all ones and
    ``a`` elsewhere, and ``b ^ ((b ^ mid) & (take ^ live))`` is ``mid``
    where a live point has ``take`` zero and ``b`` elsewhere.  That copies
    the same bits as ``np.where(less, mid, a)`` and
    ``np.where(less, b, mid)``, but without a branch per point.  On a random
    draw ``F(mid) < u`` is a fresh coin flip at every point and step, so a
    branching select mispredicts about half the time and costs more than
    ``F`` itself.
    """
    u = np.asarray(u, dtype=float)
    a = np.full(u.shape, lo).view(np.int64)
    b = np.full(u.shape, hi).view(np.int64)
    left = 80 - np.asarray(level)
    for step in range(np.max(left, initial=0)):
        mid = (0.5 * (a.view(float) + b.view(float))).view(np.int64)
        live = np.negative(left > step, dtype=np.int64)
        take = np.negative(F(mid.view(float)) < u, dtype=np.int64) & live
        a_next = a ^ ((a ^ mid) & take)
        b_next = b ^ ((b ^ mid) & (take ^ live))
        if (np.array_equal(a_next.view(float), a.view(float))
                and np.array_equal(b_next.view(float), b.view(float))):
            break
        a, b = a_next, b_next
    out = np.where(np.isnan(u), u, 0.5 * (a.view(float) + b.view(float)))
    return out if out.ndim else float(out)


def _build_truncated_exponential(params):
    if len(params) == 1:
        rate, b = float(params[0]), float("inf")
    elif len(params) == 2:
        rate, b = float(params[0]), float(params[1])
    else:
        raise ValueError("truncated-exponential takes params (rate,) or (rate, b)")
    if not 0.0 < rate < np.inf:
        raise ValueError("rate must be positive and finite")
    if not b > 0.0:
        raise ValueError("truncation point must be positive (inf for none)")
    Z = 1.0 - np.exp(-rate * b) if np.isfinite(b) else 1.0

    def f(x):
        return rate * np.exp(-rate * np.asarray(x, dtype=float)) / Z

    def fprime(x):
        return -rate * f(x)

    def fsecond(x):
        return rate * rate * f(x)

    def F(x):
        return (1.0 - np.exp(-rate * np.asarray(x, dtype=float))) / Z

    def Finv(u):
        # u * -Z written into the one new array, then in place:
        # -log1p(-Z u) / rate, sign moved into the divisor, which rounds to
        # the same bits.  dtype=float multiplies in doubles whatever u holds.
        x = np.multiply(u, -Z, out=np.empty(np.shape(u)), dtype=float)
        np.log1p(x, out=x)
        x /= -rate
        return x if x.ndim else float(x)

    def Fint(t):
        t = np.asarray(t, dtype=float)
        return (t + np.expm1(-rate * t) / rate) / Z

    return b, f, fprime, fsecond, F, Finv, Fint


def _build_shifted_power(params):
    if len(params) != 2:
        raise ValueError("shifted-power takes params (p, theta)")
    p, theta = float(params[0]), float(params[1])
    if not 2.0 <= p < np.inf:
        raise ValueError("shifted-power needs a finite p >= 2 for a strictly convex density")
    if not 0.0 < theta < np.inf:
        raise ValueError("theta must be positive and finite")
    c = (p + 1.0) / theta ** (p + 1.0)

    def rem(x):
        return np.maximum(theta - np.asarray(x, dtype=float), 0.0)

    # np.power, not **: a numpy scalar would take the scalar power routine,
    # whose last bits differ from the array loop
    f = lambda x: c * np.power(rem(x), p)
    fprime = lambda x: -c * p * np.power(rem(x), p - 1.0)
    fsecond = lambda x: c * p * (p - 1.0) * np.power(rem(x), p - 2.0)
    F = lambda x: 1.0 - np.power(rem(x) / theta, p + 1.0)
    Finv = lambda u: theta * (1.0 - np.power(1.0 - np.asarray(u, dtype=float), 1.0 / (p + 1.0)))

    def Fint(t):
        t = np.asarray(t, dtype=float)
        return t - theta / (p + 2.0) * (1.0 - np.power(rem(t) / theta, p + 2.0))

    return theta, f, fprime, fsecond, F, Finv, Fint


# gamma_10 = 10 u / (1 - 10 u), u = 2^-53: how far a product of ten factors
# (1 + delta), |delta| <= u, can be from 1
_GAMMA10 = 10.0 * 2.0 ** -53 / (1.0 - 10.0 * 2.0 ** -53)


def _build_beta_like(params):
    """Density ``c (1 - x)(b - x)`` on [0, 1], ``c = 6 / (3b - 1)``.

    ``F`` below is the float evaluation of the exact cubic
    ``F(x) = c_b (b x - (1 + b) x^2/2 + x^3/3)``, ``c_b = 6 / (3b - 1)``
    exactly for the float ``b`` (so ``F(1) = 1``).  On [0, 1] it errs by at
    most

        e(x) = gamma_10 S(x) + 2^-1070,  S(x) = c_b (b x + (1 + b) x^2/2 + x^3/3),

    which :func:`_beta_like_err` evaluates in floats.  Derivation: ``c``
    carries 3 roundings (``3 b``, ``- 1``, ``6 /``), worth 4 factors
    ``(1 + delta)`` since ``- 1`` scales the first by ``3b / (3b - 1) < 1.5``.
    After it, ``b x`` carries 4 (its product, both sums, the product by
    ``c``); ``(1 + b) x x / 2`` carries 6 (``1 + b``, two products, both
    sums, the product by ``c``; ``/ 2`` is exact); ``x**3 / 3`` carries 3
    and the power, which numpy computes within one ulp (within 0.68 ulp on
    20,000 draws), worth two.  So no term carries more than 10 factors,
    each term is within ``gamma_10`` of its exact value, and the three
    errors add up to at most ``gamma_10`` times the sum of the terms' sizes,
    ``S``.  Below 2^-1022 a product or quotient may also err by up to
    2^-1075 (the power by 2^-1074): seven of those enter before the product
    by ``c < 3`` and one after it, less than 23 * 2^-1075 < 2^-1070 in all.

    Both ``F + e`` and ``e`` increase on [0, 1].  ``(F - e)'`` is a convex
    quadratic, positive at 0 and ``-2 gamma_10 c_b (1 + b)`` at 1, so
    ``F - e`` increases up to its one stationary point ``x*`` in (0, 1) and
    decreases after it, down to ``1 - e(1)`` at 1.  :func:`_beta_like_inverse`
    rests on these facts.
    """
    if len(params) == 0:
        b = 2.0
    elif len(params) == 1:
        b = float(params[0])
    else:
        raise ValueError("beta-like takes params () or (b,)")
    if not 1.0 < b < np.inf:
        raise ValueError("beta-like needs a finite b > 1 so the density is decreasing on [0, 1]")
    c = 6.0 / (3.0 * b - 1.0)

    def f(x):
        x = np.asarray(x, dtype=float)
        return c * (1.0 - x) * (b - x)

    fprime = lambda x: c * (2.0 * np.asarray(x, dtype=float) - (1.0 + b))
    fsecond = lambda x: 2.0 * c * np.ones_like(np.asarray(x, dtype=float))

    def F(x):
        x = np.asarray(x, dtype=float)
        return c * (b * x - (1.0 + b) * x * x / 2.0 + x**3 / 3.0)

    def Fint(t):
        t = np.asarray(t, dtype=float)
        return c * (b * t * t / 2.0 - (1.0 + b) * t**3 / 6.0 + t**4 / 12.0)

    Finv = lambda u: _beta_like_inverse(F, f, b, c, u)
    return 1.0, f, fprime, fsecond, F, Finv, Fint


def _beta_like_err(x, b: float, c: float):
    """``e(x)`` of :func:`_build_beta_like`, evaluated in floats."""
    return _GAMMA10 * (c * x * (b + (1.0 + b) * x / 2.0 + x * x / 3.0)) + 2.0 ** -1070


def _beta_like_guess(u, b: float, c: float):
    """About ``F^-1(u)`` for the beta-like CDF, for 0 < u < 1.

    With ``y = 1 - x`` and ``w = (1 - u) / c``, ``F(x) = u`` reads
    ``y^3/3 + (b - 1) y^2/2 = w``, convex and increasing in ``y >= 0``, so
    Newton's method from the right descends to the root.  Each term alone
    puts the root below its own solution, so four steps start at the smaller
    of ``sqrt(2w / (b - 1))`` and ``cbrt(3w)``.  One Newton step in ``x``
    then restores the relative accuracy that ``1 - y`` loses near 0.
    """
    with np.errstate(all="ignore"):
        w = (1.0 - u) / c
        y = np.minimum(np.sqrt(2.0 * w / (b - 1.0)), np.cbrt(3.0 * w))
        for _ in range(4):
            y -= (y * y * (y / 3.0 + (b - 1.0) / 2.0) - w) / (y * (y + (b - 1.0)))
        x = 1.0 - y
        return x - (c * x * (b - x * ((1.0 + b) / 2.0 - x / 3.0)) - u) / (c * (1.0 - x) * (b - x))


def _beta_like_inverse(F, f, b: float, c: float, u):
    """``F^-1(u)`` for the beta-like CDF: the bits of :func:`_bisect_inverse` on [0, 1].

    From [0, 1] that loop is, after ``s`` steps, at a level-``s`` dyadic
    cell ``[A, B] = [k 2^-s, (k + 1) 2^-s]``, as long as every midpoint on
    the way is exact; here ``s <= 80`` and ``k < 2^47``, so they are.  The
    cell is fixed by the comparisons ``F(m) < u`` at its ancestors'
    midpoints: its ends ``A`` (unless 0) and ``B`` (unless 1), and others
    at least ``h = 2^-s`` beyond them.  Let ``e`` be the bound of
    :func:`_build_beta_like` and ``err`` its float value
    (:func:`_beta_like_err`), a few roundings from ``e``, so that
    ``3 err >= 2 e``.  A float sum that compares below (above) the float
    ``u`` is below (above) it exactly, so the cell is certified for ``u``
    when, in floats,

    * ``F(A) < u`` and ``F(B) >= u``: the loop's own comparisons at the ends;
    * ``A - h <= 0``, or ``F(A - h) + 3 err(A - h) < u``.  Then
      ``F(A - h) + e(A - h) < u``, and as ``F + e`` increases, every
      midpoint ``m <= A - h`` has float ``F(m) < u``;
    * ``B + h >= 1``, or ``F(B + h) - 3 err(B + h) > u`` and
      ``u <= 1 - 3 err(1)``.  Then ``F - e``, increasing up to ``x*`` and
      decreasing to ``1 - e(1)`` after it, stays above ``u`` on [B + h, 1],
      so every midpoint ``m >= B + h`` has float ``F(m) >= u``.

    So the loop reaches a certified cell at step ``s``, and the same loop
    run from there with ``80 - s`` steps left gives the same bits.

    The guess (:func:`_beta_like_guess`) only picks the cell: the one that
    holds it, at the finest level (at most 80) with ``h >= 8 err / f`` at
    the guess, so that the root clears the cells next to it by more than
    the error of ``F``.  As ``err / f >= gamma_10 x``, ``k <= x / h`` stays
    below 2^47.  Where an end compares the other way, the root lies in the
    cell past that end, and the point tries that cell once.  A point still
    uncertified, or whose ``u`` is NaN or above ``1 - 3 err(1)``, runs the
    loop from [0, 1], in a second call made only when there is such a
    point.
    """
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    err = lambda x: _beta_like_err(x, b, c)

    def check(lo, h, v):
        # the side the loop leaves [lo, lo + h] by (-1 left, +1 right, 0
        # neither), and whether the cell is certified
        hi = lo + h
        past_lo = (lo > 0.0) & (F(lo) >= v)
        past_hi = (hi < 1.0) & (F(hi) < v)
        near, far = lo - h, hi + h
        clear = ((near <= 0.0) | (F(near) + 3.0 * err(near) < v)) & (
            (far >= 1.0) | (F(far) - 3.0 * err(far) > v))
        return past_hi.astype(int) - past_lo, clear & ~(past_lo | past_hi)

    guess = np.clip(_beta_like_guess(flat, b, c), 0.0, 1.0 - 2.0 ** -53)
    level = np.clip(-np.frexp(8.0 * err(guess) / f(guess))[1], 0, 80)
    h = np.ldexp(1.0, -level)
    lo = np.ldexp(np.floor(np.ldexp(guess, level)), -level)
    side, sure = check(lo, h, flat)
    redo = np.flatnonzero(side)
    lo[redo] += side[redo] * h[redo]
    sure[redo] = check(lo[redo], h[redo], flat[redo])[1]
    sure &= flat <= 1.0 - 3.0 * err(1.0)

    x = np.empty(flat.shape)
    x[sure] = _bisect_inverse(F, lo[sure], lo[sure] + h[sure], flat[sure], level[sure])
    rest = ~sure
    if rest.any():
        x[rest] = _bisect_inverse(F, 0.0, 1.0, flat[rest])
    x = x.reshape(u.shape)
    return x if x.ndim else float(x)


def _build_uniform(params):
    if len(params) == 0:
        w = 1.0
    elif len(params) == 1:
        w = float(params[0])
    else:
        raise ValueError("uniform takes params () or (width,)")
    if not 0.0 < w < np.inf:
        raise ValueError("width must be positive and finite")
    f = lambda x: np.full_like(np.asarray(x, dtype=float), 1.0 / w)
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    F = lambda x: np.asarray(x, dtype=float) / w
    Finv = lambda u: np.asarray(u, dtype=float) * w
    Fint = lambda t: np.asarray(t, dtype=float) ** 2 / (2.0 * w)
    return w, f, zero, zero, F, Finv, Fint


CATALOG = {
    "truncated-exponential": _build_truncated_exponential,
    "shifted-power": _build_shifted_power,
    "beta-like": _build_beta_like,
    "uniform": _build_uniform,
}


def make_model(name: str, params=(), tau_quantile: float = 0.75) -> AnalyticModel:
    """Build a catalog model.

    Parameters
    ----------
    name : catalog family name.
    params : family parameters, see module docstring.
    tau_quantile : mass at the working endpoint, ``F(tau) = tau_quantile``.
    """
    if name not in CATALOG:
        raise ValueError(f"unknown model {name!r}; catalog: {sorted(CATALOG)}")
    if not 0.0 < tau_quantile < 1.0:
        raise ValueError("tau_quantile must lie strictly between 0 and 1")
    support_end, f, fprime, fsecond, F, Finv, Fint = CATALOG[name](tuple(params))
    tau = float(Finv(tau_quantile))
    if not 0.0 < tau < support_end:
        raise ValueError("working endpoint tau fell outside the support")
    return AnalyticModel(
        name=name,
        params=tuple(float(p) for p in params),
        support_end=float(support_end),
        tau=tau,
        tau_mass=float(tau_quantile),
        f=f,
        fprime=fprime,
        fsecond=fsecond,
        F=F,
        Finv=Finv,
        Fint=Fint,
    )


@dataclass(frozen=True)
class KnotMesh:
    """Probability-equal knot mesh ``0 = a_0 < ... < a_k``.

    ``mass`` is the total CDF increment spanned (``F(a_k) - F(a_0)``); each
    cell carries mass ``mass / k``.  ``p = 1/k``.  ``knots`` is read-only,
    since a mesh may be shared by every caller in a process.
    """

    k: int
    knots: np.ndarray
    p: float
    mass: float

    @property
    def deltas(self) -> np.ndarray:
        return np.diff(self.knots)

    @property
    def mesh(self) -> float:
        return float(np.max(self.deltas))


def _knot_mesh(model: AnalyticModel, k: int, mass: float, end: float) -> KnotMesh:
    """Knots ``0 = a_0 < ... < a_k = end`` with CDF increments ``mass / k``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    u = mass * np.arange(k + 1) / k
    knots = np.asarray(model.Finv(u), dtype=float)
    knots[0] = 0.0
    knots[-1] = end
    if np.any(np.diff(knots) <= 0):
        raise ValueError("mesh knots are not strictly increasing")
    knots.flags.writeable = False
    return KnotMesh(k=k, knots=knots, p=1.0 / k, mass=mass)


def knot_mesh_convex(model: AnalyticModel, k: int) -> KnotMesh:
    """Knots with equal CDF increments spanning ``[0, tau]``."""
    return _knot_mesh(model, k, model.tau_mass, model.tau)


def knot_mesh_monotone(model: AnalyticModel, k: int) -> KnotMesh:
    """Knots with equal CDF increments spanning the full (finite) support."""
    if not np.isfinite(model.support_end):
        raise ValueError("full-support mesh needs a model with finite support")
    return _knot_mesh(model, k, 1.0, model.support_end)


#: ``brentq``'s smallest relative tolerance, ``4 eps``.
_BRENT_RTOL = 4.0 * 2.0**-52


def _brent(f, a: float, b: float, xtol: float, maxiter: int = 100) -> float:
    """A root of ``f`` in ``[a, b]`` by Brent's method, bit for bit ``scipy.optimize.brentq``.

    The loop of Brent (1973), *Algorithms for Minimization without
    Derivatives*, ch. 4, as scipy's ``brentq.c`` runs it: the same branch
    tests, the same update order and the same stopping rule ``|x_blk - x| / 2
    < (xtol + 4 eps |x|) / 2``, so the same calls of ``f`` return the same
    root.  ``f`` takes and returns Python floats.  Raises ``ValueError`` when
    ``f`` is NaN or has the same sign at both ends, and ``RuntimeError`` when
    ``maxiter`` steps do not converge, as ``brentq`` does.
    """
    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # interpolate
            else:
                dpre = (fpre - fcur) / (xpre - xcur)  # extrapolate
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def mean_value_knot(model: AnalyticModel, mesh: KnotMesh, j: int) -> float:
    """Point ``a*`` in cell ``j`` (1-based) where ``f(a*) * delta_j`` equals the cell mass.

    Exists by the mean value theorem since each cell has CDF increment
    ``mass / k``; located on the decreasing density by :func:`_brent`, the
    bits of ``scipy.optimize.brentq`` with ``xtol = 1e-14 max(1, a_j)``.
    Kept as the f* of :func:`shapedist.bounds.cell_variance_report`.
    """
    if not 1 <= j <= mesh.k:
        raise ValueError("cell index out of range")
    a, b = float(mesh.knots[j - 1]), float(mesh.knots[j])
    target = mesh.mass / mesh.k / (b - a)
    g = lambda t: float(model.f(t)) - target
    ga, gb = g(a), g(b)
    if ga == 0.0:
        return a
    if gb == 0.0:
        return b
    if ga * gb > 0:
        # flat density: any interior point works
        return 0.5 * (a + b)
    return _brent(g, a, b, xtol=1e-14 * max(1.0, b))
