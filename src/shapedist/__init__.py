"""Shape-constrained distribution estimators and their quantitative checks.

Submodules
----------
curves      piecewise-polynomial curves; exact extrema, sup_norm and modulus
models      closed-form model catalog and probability-equal knot meshes
empirical   seeded sampling and ECDF machinery (re-exports sup_norm, modulus)
monotone    least concave majorant / decreasing-density estimator
convexlse   least squares convex-density estimator and its certificates
spline      complete cubic spline interpolation and error bounds
bounds      per-cell defect statistics and exponential tail bounds
experiments Monte Carlo drivers (rates, event frequencies, lemma suite)
cli         command line entry point
"""

from .bounds import (
    LemmaQuantities,
    bernstein_cell_bound,
    bernstein_residual_bound,
    bernstein_slope_gap_bound,
    binomial_cell_bound,
    compute_quantities,
    convexity_event_bound,
    interp_gap_report,
    mesh_ratio_check,
    slope_difference_bound,
    trapezoid_remainder_bounds,
)
from .convexlse import (
    CharacterizationReport,
    ConvexLse,
    FitError,
    characterization_report,
    fit_lse,
    gram_matrix,
    lse_objective,
    marshall_A,
    marshall_Aprime,
)
from .curves import PiecewisePoly, SmoothCurve, curve_sub, extrema, modulus, sup_norm
from .empirical import EmpiricalData, ecdf, ecdf_curve, integrated_ecdf, integrated_ecdf_curve, sample, seed_for
from .experiments import (
    ConfigError,
    ExperimentConfig,
    RateFit,
    RateResult,
    k_rule,
    run_convex_rate,
    run_event_frequency,
    run_lemma_suite,
    run_monotone_rate,
)
from .models import (
    AnalyticModel,
    KnotMesh,
    ModelConstants,
    constants,
    knot_mesh_convex,
    knot_mesh_monotone,
    make_model,
    mean_value_knot,
)
from .monotone import (
    PiecewiseLinear,
    broken_line,
    broken_line_error_report,
    concavity_event,
    grenander_density,
    kw_tail_bound,
    lcm,
    marshall_check,
)
from .spline import (
    CubicSplineInterpolant,
    complete_spline,
    convexity_event,
    hermite_second_derivative_slopes,
    hermite_spline,
    interp_error_report,
    interp_integrated_cdf,
    interp_integrated_ecdf,
    second_derivative_slopes,
    smooth_interp_error_bounds,
)

__version__ = "0.1.0"
