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
from typing import Callable

import numpy as np
from scipy.optimize import brentq

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
        :func:`shapedist.empirical.sample` sorts in place.

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


def _bisect_inverse(F, lo: float, hi: float, u):
    """Vectorized bisection solve of F(x) = u on [lo, hi] for increasing F.

    Runs 80 steps, or stops early after the first step that moves no
    bracket end: the next step depends only on ``(a, b)``, so every later
    step would repeat it and the result is the same to the bit.  NaN maps
    to NaN.

    The bracket ends are kept as int64 bit patterns, and each step selects
    with masks: where ``take`` is all ones, ``a ^ ((a ^ mid) & take)`` is
    ``mid`` and ``mid ^ ((mid ^ b) & take)`` is ``b``; where it is zero they
    are ``a`` and ``mid``.  That copies the same bits as
    ``np.where(less, mid, a)`` and ``np.where(less, b, mid)``, but without a
    branch per point.  On a random draw ``F(mid) < u`` is a fresh coin flip
    at every point and step, so a branching select mispredicts about half
    the time and costs more than ``F`` itself.
    """
    u = np.asarray(u, dtype=float)
    a = np.full(u.shape, lo).view(np.int64)
    b = np.full(u.shape, hi).view(np.int64)
    for _ in range(80):
        mid = (0.5 * (a.view(float) + b.view(float))).view(np.int64)
        take = np.negative(F(mid.view(float)) < u, dtype=np.int64)
        a_next = a ^ ((a ^ mid) & take)
        b_next = mid ^ ((mid ^ b) & take)
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
        # One copy of u, then in place: -log1p(-Z u) / rate, sign moved
        # into the divisor, which rounds to the same bits.
        x = np.array(u, dtype=float)
        x *= -Z
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


def _build_beta_like(params):
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

    Finv = lambda u: _bisect_inverse(F, 0.0, 1.0, u)
    return 1.0, f, fprime, fsecond, F, Finv, Fint


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


def mean_value_knot(model: AnalyticModel, mesh: KnotMesh, j: int) -> float:
    """Point ``a*`` in cell ``j`` (1-based) where ``f(a*) * delta_j`` equals the cell mass.

    Exists by the mean value theorem since each cell has CDF increment
    ``mass / k``; located by root bracketing on the decreasing density.
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
    return float(brentq(g, a, b, xtol=1e-14 * max(1.0, b)))
