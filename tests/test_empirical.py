"""ECDF machinery: evaluation semantics, exact sup norms, seeding."""

import math

import numpy as np
import pytest

from shapedist.curves import curve_sub, modulus, sup_norm
from shapedist.empirical import (
    EmpiricalData,
    ecdf,
    ecdf_curve,
    integrated_ecdf,
    integrated_ecdf_curve,
    sample,
    seed_for,
)
from shapedist.models import make_model
from test_models import SAMPLING_MODELS, old_finv


def test_ecdf_evaluation_semantics():
    d = EmpiricalData(np.array([1.0, 3.0]))
    c = ecdf_curve(d)
    assert ecdf(d, 0.5) == 0.0
    assert ecdf(d, 1.0) == 0.5  # right-continuous
    assert c.left_limit(1.0) == 0.0  # #(X < 1) / n
    assert ecdf(d, 2.0) == 0.5
    assert ecdf(d, 3.0) == 1.0
    assert c.left_limit(3.0) == 0.5  # #(X < 3) / n
    assert ecdf(d, 99.0) == 1.0
    np.testing.assert_allclose(ecdf(d, [0.5, 1.5, 3.5]), [0.0, 0.5, 1.0])


def test_integrated_ecdf_closed_form():
    # Y_n(t) = (1/n) sum (t - X_i)_+, checked against the direct sum.
    rng = np.random.default_rng(7)
    x = rng.exponential(size=40)
    d = EmpiricalData(x)
    for t in np.linspace(0.0, float(np.max(x)) + 1.0, 53):
        want = float(np.mean(np.maximum(t - x, 0.0)))
        assert math.isclose(integrated_ecdf(d, t), want, rel_tol=0, abs_tol=1e-12)
    t = np.array([0.0, 0.3, 2.0])
    np.testing.assert_allclose(
        integrated_ecdf(d, t), [np.mean(np.maximum(s - x, 0.0)) for s in t], atol=1e-12
    )


def test_curves_match_pointwise_functions():
    d = EmpiricalData(np.array([0.5, 1.0, 1.0, 2.5]))
    c = ecdf_curve(d)
    ic = integrated_ecdf_curve(d)
    for t in (0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 2.5, 3.0, 4.0):
        assert math.isclose(c(t), ecdf(d, t), abs_tol=1e-15)
        assert math.isclose(ic(t), integrated_ecdf(d, t), abs_tol=1e-14)
    for t in (0.5, 1.0, 2.5, 4.0):
        assert c.left_limit(t) == np.count_nonzero(d.x < t) / d.n
    # extension past the data is the constant-1 continuation
    assert c(3.9) == 1.0


def test_integrated_ecdf_is_convex():
    d = sample(make_model("truncated-exponential", (1.0,)), 200, seed=3)
    ic = integrated_ecdf_curve(d)
    t = np.linspace(0.0, float(d.x[-1]), 400)
    v = np.asarray(ic(t))
    second = np.diff(v, 2)
    assert np.all(second >= -1e-12)


def test_ks_statistic_exact_identity():
    # sup |F_n - F| is attained at a jump: max over i of
    # max(i/n - F(x_i), F(x_i) - (i-1)/n).  The curve-based sup must agree
    # to floating-point accuracy.
    m = make_model("truncated-exponential", (1.0,))
    for seed in (1, 2, 3, 11):
        d = sample(m, 157, seed)
        n = d.n
        i = np.arange(1, n + 1)
        fx = np.asarray(m.F(d.x))
        ks_oracle = float(np.max(np.maximum(i / n - fx, fx - (i - 1) / n)))
        ks_curve = sup_norm(ecdf_curve(d), m.F_curve(), (0.0, float(d.x[-1])))
        assert math.isclose(ks_curve, ks_oracle, rel_tol=0, abs_tol=1e-12)


def test_sup_norm_beats_dense_grid():
    # The exact sup can only exceed any grid scan.
    m = make_model("beta-like", (2.0,))
    d = sample(m, 101, seed=5)
    hi = float(d.x[-1])
    t = np.linspace(0.0, hi, 1_000_001)
    grid = float(np.max(np.abs(np.asarray(ecdf(d, t)) - np.asarray(m.F(t)))))
    exact = sup_norm(ecdf_curve(d), m.F_curve(), (0.0, hi))
    assert exact >= grid - 1e-13
    assert exact <= grid + 1.0 / d.n + 1e-9


def test_ks_scale():
    # P(sqrt(n) KS <= 1.95) ~ 0.9997; at 200 replicates allow a couple.
    m = make_model("truncated-exponential", (1.0,))
    n = 500
    bad = 0
    for rep in range(200):
        d = sample(m, n, seed_for(42, n, rep))
        ks = sup_norm(ecdf_curve(d), m.F_curve(), (0.0, float(d.x[-1])))
        bad += ks > 1.95 / math.sqrt(n)
    assert bad <= 4


def test_sampling_is_deterministic():
    m = make_model("shifted-power", (2.0, 1.0))
    a = sample(m, 64, seed=123)
    b = sample(m, 64, seed=123)
    np.testing.assert_array_equal(a.x, b.x)
    c = sample(m, 64, seed=124)
    assert not np.array_equal(a.x, c.x)
    assert a.seed == 123


@pytest.mark.parametrize("name,params", SAMPLING_MODELS)
@pytest.mark.parametrize("n", [1, 2, 1000, 30000])
def test_sample_is_the_sorted_old_inverse_bit_for_bit(name, params, n):
    m = make_model(name, params)
    seed = seed_for(7, n, 3)
    u = np.random.Generator(np.random.Philox(key=seed)).random(n)
    d = sample(m, n, seed)
    assert d.x.tobytes() == np.sort(old_finv(name, params)(u)).tobytes()
    assert d.seed == seed and d.x.flags.writeable


def test_seed_for_spreads():
    seen = {seed_for(b, n, r) for b in (1, 2) for n in (10, 11, 1000) for r in range(50)}
    assert len(seen) == 2 * 3 * 50
    assert seed_for(1, 10, 0) == seed_for(1, 10, 0)


def test_modulus_step_function():
    # two jumps of 1/2 at x = 1, 3: a window of width 2.5 spans both.
    d = EmpiricalData(np.array([1.0, 3.0]))
    c = ecdf_curve(d)
    assert math.isclose(modulus(c, 2.5, (0.0, 4.0)), 1.0, abs_tol=1e-12)
    assert math.isclose(modulus(c, 1.5, (0.0, 4.0)), 0.5, abs_tol=1e-12)
    assert math.isclose(modulus(c, 0.5, (0.0, 0.9)), 0.0, abs_tol=1e-12)


def test_modulus_smooth_cdf():
    # decreasing density: the largest increment over width h starts at 0,
    # so omega(F; h) = F(h).
    m = make_model("truncated-exponential", (1.0,))
    for h in (0.1, 0.5, 1.0):
        assert math.isclose(modulus(m.F_curve(), h, (0.0, m.tau)), m.F(h), rel_tol=1e-9)


def test_modulus_monotone_in_width():
    m = make_model("beta-like", (2.0,))
    d = sample(m, 50, seed=9)
    g = curve_sub(ecdf_curve(d), m.F_curve())
    hs = [0.05, 0.1, 0.2, 0.4]
    vals = [modulus(g, h, (0.0, 1.0)) for h in hs]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    # centered difference: its oscillation is at most 2 sup|g|
    assert vals[-1] <= 2.0 * sup_norm(ecdf_curve(d), m.F_curve(), (0.0, 1.0)) + 1e-12


def test_empirical_data_validates():
    with pytest.raises(ValueError):
        EmpiricalData(np.array([]))
    with pytest.raises(ValueError):
        sample(make_model("uniform", ()), 0, seed=1)
    for bad in ([1.0, np.nan, 2.0], [np.nan], [1.0, np.inf], [-np.inf, 1.0], [-1.0, 2.0, 3.0]):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            EmpiricalData(np.array(bad))
    for bad in (np.float64(1.0), np.ones((2, 3)), np.ones((4, 1)), np.ones((1, 0))):
        with pytest.raises(ValueError, match="sample must be one-dimensional"):
            EmpiricalData(bad)
    for bad in (2.5, 4.0, "8", True, np.float64(3.0)):
        with pytest.raises(ValueError, match="sample size must be an integer"):
            sample(make_model("uniform", ()), bad, seed=1)
    assert sample(make_model("uniform", ()), np.int64(3), seed=1).n == 3
    # the public constructor sorts a copy: the caller's array keeps its order
    x = np.array([3.0, 1.0, 2.0])
    d = EmpiricalData(x)
    np.testing.assert_array_equal(d.x, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(x, [3.0, 1.0, 2.0])
    np.testing.assert_array_equal(EmpiricalData([2, 1]).x, [1.0, 2.0])
