"""Shape-constrained distribution estimators and their quantitative checks.

Submodules
----------
curves      piecewise-polynomial curves; exact extrema, sup_norm and modulus
models      closed-form model catalog and probability-equal knot meshes
empirical   seeded sampling and ECDF machinery
monotone    least concave majorant / decreasing-density estimator
convexlse   least squares convex-density estimator and its certificates
spline      complete cubic spline interpolation and error bounds
bounds      per-cell defect statistics and exponential tail bounds
experiments Monte Carlo drivers (rates, event frequencies, lemma suite)
cli         command line entry point

Each submodule's ``__all__`` is its public surface; the package re-exports
exactly the union of those lists (``cli`` is the entry point only).
"""

from . import bounds, convexlse, curves, empirical, experiments, models, monotone, spline
from .bounds import *  # noqa: F403
from .convexlse import *  # noqa: F403
from .curves import *  # noqa: F403
from .empirical import *  # noqa: F403
from .experiments import *  # noqa: F403
from .models import *  # noqa: F403
from .monotone import *  # noqa: F403
from .spline import *  # noqa: F403

__all__ = [name for module in (curves, models, empirical, monotone, convexlse, spline, bounds,
                               experiments) for name in module.__all__]

__version__ = "0.1.0"
