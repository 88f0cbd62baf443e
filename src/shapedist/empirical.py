"""Empirical distribution objects: sampling, ECDF, and its running integral.

Sampling uses a counter-based generator (Philox) keyed by a 64-bit seed so
replicates are reproducible bit-for-bit regardless of execution order or
worker count.  Every seeded draw of the package, the samples here and the
other draws of the experiments, goes through ``_uniforms`` or ``_binomial``:
each re-keys one module-private generator to the state of a fresh
``Philox(key=seed)`` and returns values only, so no caller holds a generator
that a later draw re-keys, and no draw asks the operating system for entropy.
The ECDF and its integral are exposed both as O(log n) point evaluators (via
sorted prefix sums) and as exact piecewise-polynomial curves for the norm
machinery in :mod:`shapedist.curves`.  :func:`sample` always returns sorted
data; the lemma suite's Monte Carlo draws, which read ``F_n`` and ``Y_n`` at
a few knots only, take the private sort-free path ``_knot_statistics`` over
the same uniforms and the same ``x`` bits.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np
import numpy.random  # numpy loads it on first use; here it loads with the package

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


# One Philox and its Generator per process.  A draw re-keys them under the
# lock to the state of a fresh ``Philox(key=seed)``: counter 0, key
# ``(seed, 0)``, an empty buffer and no cached 32-bit half.  Setting the state
# costs far less than building a Philox, whose constructor first draws a
# SeedSequence from OS entropy that the key then overrides; ``Philox(0)``
# seeds from a fixed SeedSequence, so the import draws none either.
_PHILOX = np.random.Philox(0)
_RNG = np.random.Generator(_PHILOX)
_RNG_LOCK = threading.Lock()
_ZEROS4 = (0, 0, 0, 0)


def _rekey(seed: int) -> None:
    """Put the shared generator in the state of a fresh ``Philox(key=seed & M64)``."""
    _PHILOX.state = {"bit_generator": "Philox",
                     "state": {"counter": _ZEROS4, "key": (int(seed) & _M64, 0)},
                     "buffer": _ZEROS4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _uniforms(seed: int, shape) -> np.ndarray:
    """Uniforms on [0, 1) of ``shape``: ``Generator(Philox(key=seed & M64)).random(shape)``."""
    with _RNG_LOCK:
        _rekey(seed)
        return _RNG.random(shape)


def _binomial(seed: int, n: int, p: float) -> int:
    """One binomial draw: ``Generator(Philox(key=seed & M64)).binomial(n, p)``."""
    with _RNG_LOCK:
        _rekey(seed)
        return _RNG.binomial(n, p)


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
        reads off :attr:`_prefix`.  Empty or decreasing knots raise
        ``ValueError``; equal neighbours are allowed.
        """
        knots = np.asarray(knots, dtype=float)
        if not (knots.ndim == 1 and len(knots) and np.all(knots[1:] >= knots[:-1])):
            raise ValueError("knots must be a nonempty increasing 1-d array")
        i = np.searchsorted(self.x, knots, side="right")
        sums = np.zeros(len(knots))
        below = i > 0
        sums[below] = np.cumsum(self.x[:i[-1]])[i[below] - 1]
        return i / self.n, (knots * i - sums) / self.n

    @cached_property
    def corners(self) -> tuple[np.ndarray, np.ndarray]:
        """ECDF corner points ``(xs, ys)``: distinct values and the ECDF at each.

        Read off the runs of equal values in the sorted ``x``: ``ys`` is one
        past the index of each run's last point, over ``n``.  Shared by every
        caller, so both arrays are read-only.
        """
        x = self.x
        last = np.flatnonzero(np.append(x[1:] != x[:-1], True))
        xs = x[last]
        ys = (last + 1) / self.n
        xs.flags.writeable = False
        ys.flags.writeable = False
        return xs, ys


def _draw(model: AnalyticModel, n: int, seed: int) -> np.ndarray:
    """``n`` unsorted points of ``model``: ``model.Finv`` of ``n`` Philox uniforms."""
    if not isinstance(n, Integral) or isinstance(n, bool):
        raise ValueError(f"sample size must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("sample size must be >= 1")
    return np.asarray(model.Finv(_uniforms(seed, n)), dtype=float)


def sample(model: AnalyticModel, n: int, seed: int) -> EmpiricalData:
    """Draw ``n`` points from ``model`` by inverse-CDF over Philox uniforms.

    The array ``model.Finv`` returns is sorted in place and kept as the
    sample's ``x``; no other copy of the draw is made.  ``_knot_statistics``
    reads the same draw without sorting it.
    """
    return EmpiricalData._adopt(_draw(model, n, seed), int(seed))


def _knot_statistics(model: AnalyticModel, n: int, seed: int,
                     knots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``F_n`` and ``Y_n`` at ``knots`` of the draw :func:`sample` would sort, unsorted.

    With ``x`` the same ``n`` points, ``F_n(a) = #(x <= a) / n``, to the bit
    :meth:`EmpiricalData.at_knots`, and ``Y_n(a) = (n a - sum min(x, a)) / n``,
    which is ``sum (a - x_i)_+ / n``, in a few passes over ``x`` with no sort
    and no prefix sum.  The draw is rejected as :func:`sample` rejects it.
    A knot at 0 below every point is not read: its count is 0 and its sum
    ``+0.0``, the bits the passes give, so it costs no pass of its own.

    Rounding of ``Y_n(a)``: numpy adds the ``n`` terms ``min(x_i, a) <= a``
    pairwise (8 running partial sums over blocks of at most 128 terms, then
    halving), so each term passes through at most ``h = 27 + ceil(log2 n)``
    additions and the sum is off by at most ``h u n a`` to first order, ``u =
    2**-53``.  The product ``n a``, the difference and the quotient round
    three more times, so ``|Y_n(a) - exact| <= (h + 4) u a``.
    """
    x = _draw(model, n, seed)
    lo = x.min()
    # min is NaN when any value is, so these two catch NaN, -inf, +inf and negatives
    if not (lo >= 0.0 and x.max() < np.inf):
        raise ValueError("sample values must be finite and nonnegative")
    counts = np.zeros(len(knots), dtype=np.intp)
    sums = np.zeros(len(knots))
    tmp = np.empty_like(x)
    for j, a in enumerate(knots):
        if a == 0.0 and lo > 0.0:
            continue  # no point at or below 0: count 0, and every min(x, 0) is +0.0
        counts[j] = np.count_nonzero(x <= a)
        sums[j] = np.minimum(x, a, out=tmp).sum()
    return counts / n, (n * knots - sums) / n


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
