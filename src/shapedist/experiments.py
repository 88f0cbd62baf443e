"""Seeded Monte Carlo drivers: rate fits, event frequencies, lemma suite.

Every run is reproducible: replicate ``r`` at sample size ``n`` draws from
a counter-based generator keyed by ``seed_for(base_seed, n, r)``, results
are merged in task order regardless of worker count, and CSV floats are
written with ``repr`` so identical configs give identical bytes.  Rate rows
come in (n, replicate) order.  Event rows come in (c0, n, replicate) order,
from one draw per (n, replicate) shared by every c0 of the sweep.  Both
come from one sweep (``_sweep``): one task per (n, replicate), all in one
pool, with the rate drivers sweeping the single value ``config.c0``.
"""

import functools
import json
import math
import os
from dataclasses import dataclass, replace
from multiprocessing import Pool
from numbers import Integral

import numpy as np

from .bounds import (
    _population_defects,
    _sample_defects,
    bernstein_cell_bound,
    bernstein_residual_bound,
    binomial_cell_bound,
    cell_variance_report,
    convexity_event_bound,
    interp_gap_report,
    mesh_ratio_check,
    slope_difference_bound,
    trapezoid_remainder_bounds,
)
from .convexlse import FitError, fit_lse
from .curves import _check, sup_norm
from .empirical import _generator, ecdf_curve, sample, seed_for
from .models import AnalyticModel, constants, knot_mesh_convex, knot_mesh_monotone, make_model
from .monotone import broken_line_error_report, concavity_event, kw_tail_bound, lcm
from .spline import convexity_event, smooth_interp_error_bounds

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RateFit",
    "RateResult",
    "k_rule",
    "run_monotone_rate",
    "run_convex_rate",
    "run_event_frequency",
    "run_lemma_suite",
    "REPLICATE_COLUMNS",
]


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    """Settings shared by all experiment drivers.

    ``c0`` scales the cell-count rule ``k_n = ceil((c0 * beta^2 * n /
    log n)^(1/(2m+1)))`` (m = 1 monotone, m = 2 convex); ``k_override``
    pins ``k_n`` instead.  ``c0_sweep`` is used by the event-frequency
    driver only.
    """

    model: str = "truncated-exponential"
    params: tuple = (1.0,)
    target: str = "convex"
    n_grid: tuple = (512, 1024, 2048, 4096, 8192)
    replicates: int = 100
    base_seed: int = 1
    c0: float = 1.0
    c0_sweep: tuple = (0.5, 1.0, 2.0, 4.0)
    tau_quantile: float = 0.75
    out: str = ""
    workers: int = 1
    k_override: int = 0


def _validate(config: ExperimentConfig, min_sizes: int = 1) -> AnalyticModel:
    """Check the settings every driver shares; return the configured model."""
    if not config.model:
        raise ConfigError("no model given")
    if config.target not in ("monotone", "convex"):
        raise ConfigError(f"unknown target {config.target!r}")
    if len(config.n_grid) < min_sizes:
        raise ConfigError(f"need at least {min_sizes} sample sizes, got {len(config.n_grid)}")
    sizes = list(config.n_grid)
    ints = [("n_grid", n) for n in sizes]
    ints += [(name, getattr(config, name))
             for name in ("replicates", "workers", "base_seed", "k_override")]
    for name, v in ints:
        if not isinstance(v, Integral) or isinstance(v, bool):
            raise ConfigError(f"{name} must be an integer, got {v!r}")
    # seed_for keys the generator with 64 bits: a larger seed would alias a smaller one
    if not 0 <= config.base_seed < 2**64:
        raise ConfigError("base_seed must lie in [0, 2**64)")
    if any(n < 2 for n in sizes) or sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
        raise ConfigError("n_grid must be strictly increasing sizes >= 2")
    if config.replicates < 1:
        raise ConfigError("replicates must be >= 1")
    if not 0 < config.c0 < math.inf:
        raise ConfigError("c0 must be positive and finite")
    if config.workers < 1:
        raise ConfigError("workers must be >= 1")
    if config.k_override < 0 or config.k_override == 1:
        raise ConfigError("k_override must be 0 (off) or >= 2")
    if config.out and not os.path.isdir(os.path.dirname(config.out) or "."):
        raise ConfigError(f"no directory to write {config.out!r} into")
    try:
        return make_model(config.model, config.params, config.tau_quantile)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def k_rule(n: int, beta: float, m: int, c0: float = 1.0) -> int:
    """Cell count ``ceil((c0 beta^2 n / log n)^(1/(2m+1)))``, at least 2."""
    if n < 2:
        raise ValueError("need n >= 2")
    k = math.ceil((c0 * beta ** 2 * n / math.log(n)) ** (1.0 / (2 * m + 1)))
    return max(2, k)


@dataclass(frozen=True)
class RateFit:
    """Ordinary least squares fit of log mean distance vs log(n^-1 log n)."""

    slope: float
    intercept: float
    stderr: float


@dataclass(frozen=True)
class RateResult:
    fit_F: RateFit
    fit_H: "RateFit | None"
    rows: list
    summary: list


def _ols(x, y) -> RateFit:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 3:
        raise ConfigError("rate fit needs at least 3 sample sizes")
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    dof = len(x) - 2
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(float(resid @ resid) / dof / sxx) if dof > 0 else float("nan")
    return RateFit(slope=float(coef[0]), intercept=float(coef[1]), stderr=stderr)


# ---------------------------------------------------------------------------
# replicate worker (top level so it can cross process boundaries)

@functools.lru_cache
def _model_and_meshes(name: str, params: tuple, tau_q: float, target: str, ks: tuple):
    """The model and its target's knot mesh for each cell count in ``ks``,
    built once per process and shared by every replicate."""
    model = make_model(name, params, tau_q)
    mesh = knot_mesh_monotone if target == "monotone" else knot_mesh_convex
    return model, tuple(mesh(model, k) for k in ks)


def _replicate(task):
    """One seeded replicate ``(config, distances, n, rep, ks)``: the shape
    event on the mesh of each cell count in ``ks``, and optionally the
    sup-norm distances of the target's estimator from the ECDF side.

    Monotone: ``sup |Fhat_n - Fn|`` over the sample range.  Convex:
    ``sup |Ftilde_n - Fn|`` and ``sup |Htilde_n - Yn|`` over [0, tau].
    Returns a row whose ``k`` is ``ks`` and whose ``event_An`` holds one
    event per entry of ``ks``; ``_sweep`` picks one of them.
    """
    config, distances, n, rep, ks = task
    seed = seed_for(config.base_seed, n, rep)
    model, meshes = _model_and_meshes(config.model, tuple(config.params),
                                      config.tau_quantile, config.target, ks)
    data = sample(model, n, seed)
    sup_f = sup_h = None
    if config.target == "monotone":
        if distances:
            sup_f = float(sup_norm(lcm(data).as_curve(), ecdf_curve(data),
                                   (0.0, float(data.x[-1]))))
        event = concavity_event
    else:
        if distances:
            try:
                fit = fit_lse(data)
            except FitError as err:
                raise FitError(f"n={n} replicate={rep} seed={seed}: {err}") from err
            F, Fn = fit.cdf_curve(), ecdf_curve(data)
            sup_f = float(sup_norm(F, Fn, (0.0, model.tau)))
            sup_h = float(sup_norm(F.antiderivative(), Fn.antiderivative(), (0.0, model.tau)))
        event = convexity_event
    return {
        "model": config.model, "n": n, "k": ks, "replicate": rep,
        "sup_F_diff": sup_f, "sup_H_diff": sup_h,
        "event_An": tuple(int(event(data, mesh)) for mesh in meshes), "seed": seed,
    }


def _run_replicates(config: ExperimentConfig, worker, tasks) -> list:
    """``worker`` of every task, in task order, on ``config.workers`` processes (one pool)."""
    if config.workers > 1 and len(tasks) > 1:
        chunk = max(1, len(tasks) // (config.workers * 8))
        with Pool(processes=config.workers) as pool:
            return pool.map(worker, tasks, chunksize=chunk)
    return [worker(task) for task in tasks]


# ---------------------------------------------------------------------------
# CSV / JSON emission

REPLICATE_COLUMNS = ("model", "n", "k", "replicate",
                     "sup_F_diff", "sup_H_diff", "event_An", "seed")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path: str, schema: str, meta: dict, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {schema}\n")
        fh.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")


def _summary_path(path: str) -> str:
    root, ext = os.path.splitext(path)
    return root + ".summary" + (ext or ".csv")


def _meta(config: ExperimentConfig) -> dict:
    return {
        "model": config.model,
        "params": ";".join(repr(float(p)) for p in config.params),
        "target": config.target,
        "c0": repr(float(config.c0)),
        "tau_quantile": repr(float(config.tau_quantile)),
        "base_seed": config.base_seed,
        "replicates": config.replicates,
        "k_override": config.k_override,
    }


# ---------------------------------------------------------------------------
# drivers

def _per_n_summary(config: ExperimentConfig, n: int, rows) -> dict:
    mean_f = float(np.mean([r["sup_F_diff"] for r in rows]))
    have_h = rows[0]["sup_H_diff"] is not None
    mean_h = float(np.mean([r["sup_H_diff"] for r in rows])) if have_h else None
    return {
        "model": config.model, "n": n, "k": rows[0]["k"],
        "mean_sup_F_diff": mean_f,
        "mean_sup_H_diff": mean_h,
        "root_n_mean_sup_F_diff": math.sqrt(n) * mean_f,
        "root_n_mean_sup_H_diff": math.sqrt(n) * mean_h if have_h else None,
        "event_freq": float(np.mean([r["event_An"] for r in rows])),
    }


_SUMMARY_COLUMNS = ("model", "n", "k", "mean_sup_F_diff", "mean_sup_H_diff",
                    "root_n_mean_sup_F_diff", "root_n_mean_sup_H_diff", "event_freq")


def _emit(config: ExperimentConfig, kind: str, groups, summary_columns, summary) -> None:
    """Write the rows of ``groups`` to ``config.out`` and the summary next to it, if set."""
    if not config.out:
        return
    rows = [row for _, _, got in groups for row in got]
    _write_csv(config.out, f"shapedist-{kind}-v1", _meta(config), REPLICATE_COLUMNS, rows)
    _write_csv(_summary_path(config.out), f"shapedist-{kind}-summary-v1",
               _meta(config), summary_columns, summary)


def _log_xy(config: ExperimentConfig, summary, key: str):
    x = [math.log(math.log(n) / n) for n in config.n_grid]
    y = [math.log(row[key]) for row in summary]
    return x, y


def _k_rule_constants(model: AnalyticModel, target: str, what: str):
    """``(beta, m)`` of the target's cell-count rule; rejects unusable models."""
    if target == "monotone" and not np.isfinite(model.support_end):
        raise ConfigError(f"{what} needs a finite-support model")
    cons = constants(model)
    beta, m = (cons.beta1, 1) if target == "monotone" else (cons.beta2, 2)
    if not (np.isfinite(beta) and beta > 0):
        raise ConfigError(f"{what} needs a strictly curved model")
    return beta, m


def _sweep(config: ExperimentConfig, what: str, c0s, distances: bool, min_sizes: int = 1):
    """Run the replicates of ``config`` for every c0 in ``c0s``: ``(beta, groups)``.

    The cell count at ``(c0, n)`` is ``config.k_override``, which replaces
    the sweep by the one point c0 = 0.0, or else the k-rule at ``c0``.
    Replicate ``r`` at size ``n`` is one task, drawn once, whose shape event
    is evaluated on the mesh of every distinct cell count at ``n``; every
    task runs in one pool.  ``groups`` lists ``(c0, n, rows)`` in ``(c0, n)``
    order, each row carrying the cell count and event of its ``(c0, n)``.
    """
    model = _validate(config, min_sizes)
    beta, m = _k_rule_constants(model, config.target, f"{config.target} {what} run")
    if config.k_override:
        c0s = (0.0,)
    elif not (c0s and all(0 < c0 < math.inf for c0 in c0s)):
        raise ConfigError("c0_sweep must be a non-empty list of positive, finite values")
    ks = {(c0, n): config.k_override or k_rule(n, beta, m, c0)
          for c0 in c0s for n in config.n_grid}
    per_n = {n: tuple(sorted({ks[c0, n] for c0 in c0s})) for n in config.n_grid}
    reps = config.replicates
    results = _run_replicates(config, _replicate, [(config, distances, n, rep, per_n[n])
                                                   for n in config.n_grid for rep in range(reps)])
    groups = []
    for c0 in c0s:
        for i, n in enumerate(config.n_grid):
            j = per_n[n].index(ks[c0, n])
            groups.append((c0, n, [dict(r, k=r["k"][j], event_An=r["event_An"][j])
                                   for r in results[i * reps:(i + 1) * reps]]))
    return beta, groups


def _run_rate(config: ExperimentConfig) -> RateResult:
    _, groups = _sweep(config, "rate", (config.c0,), True, min_sizes=3)
    summary = [_per_n_summary(config, n, rows) for _, n, rows in groups]
    fit_f = _ols(*_log_xy(config, summary, "mean_sup_F_diff"))
    fit_h = None if config.target == "monotone" else _ols(*_log_xy(config, summary, "mean_sup_H_diff"))
    _emit(config, "rate", groups, _SUMMARY_COLUMNS, summary)
    return RateResult(fit_F=fit_f, fit_H=fit_h, rows=[r for _, _, got in groups for r in got],
                      summary=summary)


def run_monotone_rate(config: ExperimentConfig) -> RateResult:
    """Sup-norm distance of the concave-majorant estimator from the ECDF.

    For each n, averages ``sup |Fhat_n - Fn|`` over replicates and fits the
    log mean against ``log(n^-1 log n)``; the fitted slope estimates the
    convergence exponent (2/3 for strictly curved targets).
    """
    return _run_rate(replace(config, target="monotone"))


def run_convex_rate(config: ExperimentConfig) -> RateResult:
    """Sup-norm distances of the convex LSE from the ECDF and its integral.

    Fits two exponents: one for ``sup |Ftilde_n - Fn|`` (target 3/5) and
    one for ``sup |Htilde_n - Yn|`` (target 4/5), both on [0, tau].
    """
    return _run_rate(replace(config, target="convex"))


_EVENT_SUMMARY_COLUMNS = ("model", "target", "c0", "n", "k", "freq", "bound", "vacuous")


def run_event_frequency(config: ExperimentConfig) -> list:
    """Empirical frequency of the shape event across the c0 sweep.

    The event is concavity of the broken-line interpolant (monotone) or
    ordered second-derivative slopes of the spline interpolant (convex) on
    the rule-chosen mesh.  Each summary row carries the analytic bound on
    the failure probability and whether that bound is vacuous (>= 1).

    Replicate ``r`` at size ``n`` is drawn once, and every c0 sees the same
    samples.  Rows and summary rows come in ``(c0, n, replicate)`` order.
    """
    beta, groups = _sweep(config, "event", config.c0_sweep, False)
    tail_bound = kw_tail_bound if config.target == "monotone" else convexity_event_bound
    summary = []
    for c0, n, rows in groups:
        k = rows[0]["k"]
        bound = float(tail_bound(n, k, beta))
        summary.append({
            "model": config.model, "target": config.target, "c0": float(c0),
            "n": n, "k": k, "freq": float(np.mean([r["event_An"] for r in rows])),
            "bound": bound, "vacuous": int(bound >= 1.0),
        })
    _emit(config, "events", groups, _EVENT_SUMMARY_COLUMNS, summary)
    return summary


# ---------------------------------------------------------------------------
# lemma suite

def _suite_deterministic(model, config: ExperimentConfig) -> list:
    checks = mesh_ratio_check(model)
    checks += interp_gap_report(model)

    # one array of 1000 pairs draws the same bits as 1000 draws of one pair
    u = np.sort(_generator(seed_for(config.base_seed, 0, 0)).random((1000, 2)), axis=1) * model.tau
    s, t = u[u[:, 1] - u[:, 0] >= 1e-6].T
    lo, hi, value = trapezoid_remainder_bounds(model, s, t)
    tol = 1e-12 * np.maximum.reduce(np.abs([value, lo, hi]), initial=1.0)  # roundoff allowance
    ok = np.all((lo - tol <= value) & (value <= hi + tol))
    worst = np.min(np.minimum(value - lo, hi - value), initial=math.inf)
    checks.append(_check("taylor-bracket[pairs=1000]", -worst, 0.0, ok=ok))

    lhs, rhs = slope_difference_bound(model, knot_mesh_convex(model, 50))
    checks.append(_check("slope-difference[k=50]", np.max(lhs - rhs), 0.0))

    mesh20 = knot_mesh_convex(model, 20)
    T, R = _sample_defects(sample(model, 1000, seed_for(config.base_seed, 1000, 0)), mesh20)
    t, r = _population_defects(model, mesh20)
    W = (T - t) - (R - r)
    b = t - r
    resid = float(np.max(np.abs((T - r) - ((R - r) + W + b))))
    scale = float(np.max(np.abs(T) + np.abs(r))) + 1.0
    checks.append(_check("defect-decomposition[n=1000,k=20]", resid, 1e-12 * scale))

    for k in (5, 20, 80, 200):
        checks += smooth_interp_error_bounds(model, knot_mesh_convex(model, k))
    checks += [broken_line_error_report(model, knot_mesh_convex(model, k)) for k in (5, 20, 80)]

    checks.extend(cell_variance_report(model, knot_mesh_convex(model, 10)))
    return checks


_MC_SIZES = (15000, 30000)  # sample sizes of the trapezoid-defect draws
_MC_CELL_MASSES = ((40000, 0.01), (100000, 0.005))  # (n, p) of the binomial draws


def _lemma_replicate(task):
    """Lemma-suite replicate ``(config, rep)``: cell-2 defects ``(T, R)`` on the k = 3
    mesh and cell fractions, each draw keyed by ``seed_for(config.base_seed, n, rep)``;
    ``n``: largest size."""
    config, rep = task
    model, (mesh,) = _model_and_meshes(config.model, tuple(config.params), config.tau_quantile,
                                       "convex", (3,))
    # Each sample is dropped before the next is drawn: kept alive through the
    # larger draw, it made glibc trim and regrow its heap on every replicate.
    defects = [[d[1] for d in _sample_defects(sample(model, n, seed_for(config.base_seed, n, rep)), mesh)]
               for n in _MC_SIZES]
    fracs = [_generator(seed_for(config.base_seed, n, rep)).binomial(n, pm) / n
             for n, pm in _MC_CELL_MASSES]
    return {"n": _MC_SIZES[-1], "defects": defects, "cell_frac": fracs}


def _suite_monte_carlo(model, config: ExperimentConfig) -> list:
    """Monte Carlo dominance checks for the three probabilistic bounds."""
    mesh = knot_mesh_convex(model, 3)
    p = mesh.p
    fstar = mesh.mass * p / float(mesh.deltas[1])
    t_det, r_det = (d[1] for d in _population_defects(model, mesh))
    got = _run_replicates(config, _lemma_replicate,
                          [(config, rep) for rep in range(config.replicates)])
    T, R = (dict(zip(_MC_SIZES, a)) for a in np.array([g["defects"] for g in got]).T)
    fracs = dict(zip(_MC_CELL_MASSES, np.array([g["cell_frac"] for g in got]).T))
    checks = []
    for n, delta in ((15000, 0.056), (15000, 0.075), (30000, 0.056)):
        freq = float(np.mean(np.abs(R[n] - r_det) > delta * p ** 3))
        bound = float(bernstein_cell_bound(n, delta, p, fstar))
        checks.append(_check(f"mc-raw-defect[n={n},delta={delta}]", freq, bound))
    for n, delta in ((15000, 1.0), (30000, 1.0), (30000, 1.3)):
        freq = float(np.mean(np.abs((T[n] - t_det) - (R[n] - r_det)) > delta * p ** 3))
        bound = float(bernstein_residual_bound(n, delta, p, fstar))
        checks.append(_check(f"mc-residual[n={n},delta={delta}]", freq, bound))
    for n, pm, delta in ((40000, 0.01, 0.1), (40000, 0.01, 0.15), (100000, 0.005, 0.15)):
        freq = float(np.mean(np.abs(fracs[n, pm] - pm) >= delta * pm))
        for slack in (0.0, -0.1):
            bound = float(binomial_cell_bound(n, pm, delta, slack))
            checks.append(_check(
                f"mc-cell-mass[n={n},p={pm},delta={delta},slack={slack}]",
                freq, bound))
    return checks


def run_lemma_suite(config: ExperimentConfig) -> dict:
    """Run every deterministic inequality and Monte Carlo dominance check.

    Returns ``{"checks": [...], "pass": bool}`` where each check carries
    ``name``, ``pass``, ``lhs``, ``rhs``, ``margin``.  Writes JSON to
    ``config.out`` when set.
    """
    model = _validate(config)
    checks = _suite_deterministic(model, config)
    checks.extend(_suite_monte_carlo(model, config))
    report = {"checks": checks, "pass": all(c["pass"] for c in checks)}
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return report
