"""ECDF machinery: evaluation semantics, exact sup norms, seeding."""

import math
import os
import random
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shapedist.curves import curve_sub, modulus, sup_norm
from shapedist.empirical import (
    EmpiricalData,
    _binomial,
    _knot_statistics,
    _uniforms,
    ecdf,
    ecdf_curve,
    integrated_ecdf,
    integrated_ecdf_curve,
    sample,
    seed_for,
)
from shapedist.experiments import ExperimentConfig, run_lemma_suite
from shapedist.models import knot_mesh_convex, make_model
from test_curves import TIED_VALUES, one_signed_zero
from test_models import SAMPLING_MODELS, old_finv, philox


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
    u = philox(seed).random(n)
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


class FixedDraw:
    """A stub model whose every draw is the points ``x``, in their order."""

    def __init__(self, x):
        self.x = np.array(x, dtype=float)

    def Finv(self, u):
        assert len(u) == len(self.x)
        return self.x.copy()


def knot_statistics_gap_bound(n, knots):
    """Largest ``|Y_n|`` gap between ``_knot_statistics`` and ``at_knots`` at each knot.

    The pairwise min-sum is within ``(h + 4) u a`` of the exact value, ``h =
    27 + ceil(log2 n)``, as the ``_knot_statistics`` docstring derives.
    ``at_knots`` adds its ``i <= n`` terms, each at most ``a``, in order, so
    its sum is off by at most ``(i - 1) u i a``; with the product, the
    difference and the quotient that is at most ``(n + 3) u a`` after
    dividing by ``n``.
    """
    u = 2.0 ** -53
    h = 27 + math.ceil(math.log2(n))
    return (h + 4 + n + 3) * u * np.asarray(knots)


KNOT_MODEL = make_model("truncated-exponential", (1.0,))
KNOTS3 = knot_mesh_convex(KNOT_MODEL, 3).knots.tolist()
TAU3 = KNOTS3[-1]


@st.composite
def unsorted_knot_samples(draw):
    k = draw(st.integers(1, 5))
    knots = knot_mesh_convex(KNOT_MODEL, k).knots.tolist()
    tau = knots[-1]
    point = st.one_of(st.sampled_from(knots), st.just(0.0),
                      st.floats(0.0, 2.0 * tau, allow_nan=False, allow_infinity=False),
                      st.floats(tau, 4.0 * tau, exclude_min=True))
    return k, draw(st.lists(point, min_size=1, max_size=60))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(unsorted_knot_samples())
@example((3, [KNOTS3[2], 0.1, KNOTS3[1], KNOTS3[2], 2.0, KNOTS3[1], TAU3]))  # ties exactly on knots
@example((3, [0.0, 1.0, 0.0, 0.0]))  # x = 0
@example((3, [TAU3, KNOTS3[1] * 1.5, 3.0, KNOTS3[2]]))  # nothing below the first interior knot
@example((3, [5.0, TAU3 * 1.01, 2.0 * TAU3]))  # everything above tau
@example((2, [0.3]))  # n = 1
def test_knot_statistics_match_the_sorted_route(case):
    k, x = case
    knots = knot_mesh_convex(KNOT_MODEL, k).knots
    fv, yv = _knot_statistics(FixedDraw(x), len(x), 0, knots)
    want_f, want_y = EmpiricalData(np.array(x)).at_knots(knots)
    assert fv.tobytes() == want_f.tobytes()
    assert np.all(np.abs(yv - want_y) <= knot_statistics_gap_bound(len(x), knots))


@pytest.mark.parametrize("n", [1, 1000, 30000])
def test_knot_statistics_read_the_draw_sample_sorts(n):
    knots = knot_mesh_convex(KNOT_MODEL, 3).knots
    for rep in range(3):
        seed = seed_for(11, n, rep)
        fv, yv = _knot_statistics(KNOT_MODEL, n, seed, knots)
        want_f, want_y = sample(KNOT_MODEL, n, seed).at_knots(knots)
        assert fv.tobytes() == want_f.tobytes()
        assert np.all(np.abs(yv - want_y) <= knot_statistics_gap_bound(n, knots))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
def test_knot_statistics_reject_what_sample_rejects(bad):
    model = FixedDraw([0.5, bad, 2.0])
    for draw in (lambda: sample(model, 3, seed=1),
                 lambda: _knot_statistics(model, 3, 1, np.array(KNOTS3))):
        with pytest.raises(ValueError, match="^sample values must be finite and nonnegative$"):
            draw()


@pytest.mark.parametrize("x", [
    [0.0, 1.0, 0.0, 2.0], [-0.0, 1.0, -0.0], [0.5, -0.0, 0.0, 3.0], [0.0], [-0.0],
    [0.0] * 300 + [1e-300, 2.0], [1e-300], [5e-324, 2.0, 1.0], [3.0, 0.1, 7.0, 0.2],
])
def test_knot_statistics_at_knot_zero(x):
    # points at +0.0 or -0.0 are counted at the knot 0; below every point the
    # knot 0 is skipped and has the bits the passes give: count 0 and +0.0
    knots = np.array(KNOTS3)
    fv, yv = _knot_statistics(FixedDraw(x), len(x), 0, knots)
    want_f, want_y = EmpiricalData(np.array(x)).at_knots(knots)
    assert fv.tobytes() == want_f.tobytes()
    assert np.all(np.abs(yv - want_y) <= knot_statistics_gap_bound(len(x), knots))
    if min(x) > 0.0:
        assert fv[0] == 0.0 and yv[0].tobytes() == np.float64(0.0).tobytes()


@pytest.mark.parametrize("knots", [[], [0.0, 0.5, 0.2], [1.0, 0.0], [0.0, np.nan, 1.0]])
def test_at_knots_rejects_empty_or_decreasing_knots(knots):
    d = EmpiricalData(np.array([0.1, 0.4, 0.9]))
    with pytest.raises(ValueError, match="^knots must be a nonempty increasing 1-d array$"):
        d.at_knots(np.array(knots))


def test_at_knots_allows_equal_neighbours():
    d = EmpiricalData(np.array([0.1, 0.4, 0.4, 0.9]))
    fv, yv = d.at_knots(np.array([0.0, 0.4, 0.4, 1.0]))
    assert fv.tolist() == [0.0, 0.75, 0.75, 1.0]
    assert yv.tobytes() == integrated_ecdf(d, np.array([0.0, 0.4, 0.4, 1.0])).tobytes()


M64 = 2**64 - 1
DRAW_KEYS = st.one_of(st.integers(0, M64), st.integers(M64 + 1, 2**80))
UNIFORM_SHAPES = st.sampled_from([(), 0, 1, 3, 7, 999, (1000, 2)])
BINOMIAL_ARGS = st.one_of(
    st.sampled_from([(40000, 0.01), (100000, 0.005), (10, 0.3), (200, 0.7), (0, 0.5)]),
    st.tuples(st.integers(0, 10**6), st.floats(0.0, 1.0)))
DRAWS = st.lists(st.one_of(st.tuples(st.just("u"), DRAW_KEYS, UNIFORM_SHAPES),
                           st.tuples(st.just("b"), DRAW_KEYS, BINOMIAL_ARGS)),
                 min_size=1, max_size=8)


def fresh_draw(kind, key, arg):
    """What a newly built ``Generator(Philox(key=key & M64))`` draws."""
    return philox(key).random(arg) if kind == "u" else philox(key).binomial(*arg)


def shared_draw(kind, key, arg):
    return _uniforms(key, arg) if kind == "u" else _binomial(key, *arg)


def same_draw(got, want):
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    else:
        assert got == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(DRAWS)
@example([("u", 0, 7), ("u", M64, 7), ("u", M64 + 6, 7), ("u", 2**70 + 3, (1000, 2))])
@example([("u", 5, ()), ("u", 5, 0), ("b", 5, (40000, 0.01)), ("u", 5, 3)])
@example([("b", 9, (100000, 0.005)), ("b", 9, (100000, 0.005)), ("u", 9, 999),
          ("b", 0, (10, 0.3)), ("b", M64, (200, 0.7))])
def test_shared_generator_draws_the_bits_of_a_fresh_one(draws):
    # any interleaving of uniform and binomial draws: each is the draw of a
    # generator built for it alone, whatever the draws before it left behind
    for kind, key, arg in draws:
        same_draw(shared_draw(kind, key, arg), fresh_draw(kind, key, arg))


def test_shared_generator_keeps_the_bits_across_threads():
    # two threads drawing at once get what each draw gives alone
    plan = [[("u", seed_for(t, 20000, r), 20000) if r % 3 else ("b", seed_for(t, 0, r), (40000, 0.01))
             for r in range(60)] for t in range(2)]
    want = [[fresh_draw(*d) for d in draws] for draws in plan]
    got = [None, None]
    start = threading.Barrier(2)

    def run(t):
        start.wait()
        got[t] = [shared_draw(*d) for d in plan[t]]

    threads = [threading.Thread(target=run, args=(t,)) for t in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    for t in range(2):
        for g, w in zip(got[t], want[t], strict=True):
            same_draw(g, w)


def test_seeded_draws_ask_for_no_entropy(monkeypatch):
    # numpy seeds a keyed Philox from SeedSequence(), which reads os.urandom
    # through random.SystemRandom; the shared generator is only re-keyed
    def no_entropy(*args):
        raise AssertionError("entropy requested")

    monkeypatch.setattr(os, "urandom", no_entropy)
    monkeypatch.setattr(random, "_urandom", no_entropy)
    with pytest.raises(AssertionError, match="entropy requested"):
        np.random.Philox(key=1)
    sample(KNOT_MODEL, 100, seed_for(1, 100, 0))
    _knot_statistics(KNOT_MODEL, 100, seed_for(1, 100, 0), np.array(KNOTS3))
    report = run_lemma_suite(ExperimentConfig(n_grid=(128,), replicates=2, workers=1))
    assert len(report["checks"]) >= 40


@settings(max_examples=200, deadline=None)
@given(TIED_VALUES.filter(len))
@example([0.0])
@example([3.0, 0.0, 3.0, 0.0, 0.0, 1e300])
def test_corners_read_the_runs_as_np_unique_counts_them(values):
    d = EmpiricalData(np.array(values, dtype=float))
    xs, ys = d.corners
    want_x, counts = np.unique(d.x, return_counts=True)
    np.testing.assert_array_equal(xs, want_x)
    assert ys.tobytes() == (np.cumsum(counts) / d.n).tobytes()
    if one_signed_zero(d.x):
        assert xs.tobytes() == want_x.tobytes()
