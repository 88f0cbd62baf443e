"""Empirical distribution objects: sampling, ECDF, and its running integral.

Sampling uses a counter-based generator (Philox) keyed by a 64-bit seed so
replicates are reproducible bit-for-bit regardless of execution order or
worker count; ``_generator`` is the one place such a generator is built, for
the samples here and the other seeded draws of the experiments.  The ECDF
and its integral are exposed both as O(log n) point evaluators (via sorted
prefix sums) and as exact piecewise-polynomial curves for the norm machinery
in :mod:`shapedist.curves`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from .curves import PiecewisePoly
from .models import AnalyticModel

__all__ = [
    "EmpiricalData",
    "sample",
    "seed_for",
    "ecdf",
    "integrated_ecdf",
    "ecdf_curve",
    "integrated_ecdf_curve",
]

_M64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def seed_for(base_seed: int, n: int, replicate: int) -> int:
    """Derive the per-replicate generator key: ``base_seed xor hash(n, replicate)``."""
    # Python ints throughout: a numpy integer would overflow the 64-bit mixing
    h = _splitmix64(_splitmix64(int(n)) ^ (int(replicate) + 0x94D049BB133111EB))
    return (int(base_seed) ^ h) & _M64


def _generator(seed: int) -> np.random.Generator:
    """The Philox generator keyed by the low 64 bits of ``seed``."""
    return np.random.Generator(np.random.Philox(key=int(seed) & _M64))


def _sorted_checked(x: np.ndarray) -> np.ndarray:
    """Check a candidate sample, sorting it in place; return it."""
    if x.ndim != 1:
        raise ValueError("sample must be one-dimensional")
    x.sort()
    if len(x) == 0:
        raise ValueError("empty sample")
    # NaN sorts last and -inf first, so the two ends decide.
    if not (x[0] >= 0.0 and np.isfinite(x[-1])):
        raise ValueError("sample values must be finite and nonnegative")
    return x


@dataclass(frozen=True)
class EmpiricalData:
    """A sorted i.i.d. sample with cached prefix sums.

    ``EmpiricalData(x)`` sorts a copy of ``x``, so the caller's array is
    never reordered.  :func:`sample` instead sorts the array its model's
    ``Finv`` returned, in place, and wraps it without a copy.
    """

    x: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "x", _sorted_checked(np.array(self.x, dtype=float)))

    @classmethod
    def _adopt(cls, x: np.ndarray, seed: int) -> "EmpiricalData":
        """Sort ``x``, a fresh float array no one else holds, in place and wrap it."""
        data = cls.__new__(cls)
        object.__setattr__(data, "x", _sorted_checked(x))
        object.__setattr__(data, "seed", seed)
        return data

    @property
    def n(self) -> int:
        return len(self.x)

    @cached_property
    def _prefix(self) -> np.ndarray:
        out = np.empty(self.n + 1)
        out[0] = 0.0
        np.cumsum(self.x, out=out[1:])
        return out

    def at_knots(self, knots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``F_n`` and ``Y_n`` at increasing knots, summing only the sample below the last.

        One ``searchsorted`` gives the counts ``i_j = #(X <= a_j)``.  ``cumsum``
        adds in order, so the sums over the first ``i_j`` points are entries of
        ``np.cumsum(x[:i[-1]])``, to the bit the ones :func:`integrated_ecdf`
        reads off :attr:`_prefix`.
        """
        i = np.searchsorted(self.x, knots, side="right")
        sums = np.zeros(len(knots))
        below = i > 0
        sums[below] = np.cumsum(self.x[:i[-1]])[i[below] - 1]
        return i / self.n, (knots * i - sums) / self.n

    @cached_property
    def corners(self) -> tuple[np.ndarray, np.ndarray]:
        """ECDF corner points ``(xs, ys)``: distinct values and the ECDF at each.

        Shared by every caller, so both arrays are read-only.
        """
        xs, counts = np.unique(self.x, return_counts=True)
        ys = np.cumsum(counts) / self.n
        xs.flags.writeable = False
        ys.flags.writeable = False
        return xs, ys


def sample(model: AnalyticModel, n: int, seed: int) -> EmpiricalData:
    """Draw ``n`` points from ``model`` by inverse-CDF over Philox uniforms.

    The array ``model.Finv`` returns is sorted in place and kept as the
    sample's ``x``; no other copy of the draw is made.
    """
    if not isinstance(n, Integral) or isinstance(n, bool):
        raise ValueError(f"sample size must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("sample size must be >= 1")
    x = model.Finv(_generator(seed).random(n))
    return EmpiricalData._adopt(np.asarray(x, dtype=float), int(seed))


def ecdf(data: EmpiricalData, t):
    """Right-continuous empirical CDF: ``#(X_i <= t) / n``."""
    t = np.asarray(t, dtype=float)
    out = np.searchsorted(data.x, t, side="right") / data.n
    return out if out.ndim else float(out)


def integrated_ecdf(data: EmpiricalData, t):
    """Running integral of the ECDF: ``(1/n) * sum (t - X_i)_+``."""
    t = np.asarray(t, dtype=float)
    i = np.searchsorted(data.x, t, side="right")
    out = (t * i - data._prefix[i]) / data.n
    return out if out.ndim else float(out)


def ecdf_curve(data: EmpiricalData) -> PiecewisePoly:
    """The ECDF as an exact step curve.

    Its pieces start at the corners, after a zero piece from 0 when
    ``X_(1) > 0``.  The last, constant 1 from ``X_(n)``, runs on past the
    data, the true continuation of the ECDF.
    """
    xs, vals = data.corners
    if xs[0] > 0.0:
        xs, vals = np.concatenate([[0.0], xs]), np.concatenate([[0.0], vals])
    c = np.zeros((len(xs), 4))
    c[:, 0] = vals
    return PiecewisePoly(xs, c)


def integrated_ecdf_curve(data: EmpiricalData) -> PiecewisePoly:
    """The running ECDF integral as an exact piecewise-linear curve."""
    return ecdf_curve(data).antiderivative()
