"""Catalog models: closed forms, inverses, meshes, shape constants."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.optimize import brentq, minimize_scalar

import shapedist.bounds as bounds
import shapedist.models as models
import shapedist.spline as spline
from shapedist.empirical import seed_for
from shapedist.models import (
    CATALOG,
    _bisect_inverse,
    _extreme,
    constants,
    knot_mesh_convex,
    knot_mesh_monotone,
    make_model,
    mean_value_knot,
)


def philox(key: int) -> np.random.Generator:
    """A fresh generator on ``Philox(key=key)``, keyed by the low 64 bits of ``key``."""
    return np.random.Generator(np.random.Philox(key=int(key) & (2**64 - 1)))


ALL_MODELS = [
    ("truncated-exponential", (1.0,)),
    ("truncated-exponential", (1.0, 1.0)),
    ("truncated-exponential", (2.0, 3.0)),
    ("shifted-power", (2.0, 1.0)),
    ("shifted-power", (3.0, 1.5)),
    ("beta-like", (2.0,)),
    ("beta-like", (4.0,)),
    ("uniform", ()),
]


@pytest.mark.parametrize("name,params", ALL_MODELS)
def test_cdf_inverse_roundtrip(name, params):
    m = make_model(name, params)
    u = np.linspace(1e-6, 1.0 - 1e-6, 301)
    x = m.Finv(u)
    assert np.all(np.diff(x) > 0)
    np.testing.assert_allclose(m.F(x), u, atol=1e-9)


@pytest.mark.parametrize("name,params", ALL_MODELS)
def test_density_consistency(name, params):
    # f, f', f'' must be the derivatives of F: central differences.
    m = make_model(name, params)
    hi = m.tau
    t = np.linspace(0.05 * hi, 0.95 * hi, 41)
    h = 1e-5 * max(1.0, hi)
    np.testing.assert_allclose((m.F(t + h) - m.F(t - h)) / (2 * h), m.f(t), rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose((m.f(t + h) - m.f(t - h)) / (2 * h), m.fprime(t), rtol=1e-5, atol=1e-7)
    np.testing.assert_allclose(
        (m.fprime(t + h) - m.fprime(t - h)) / (2 * h), m.fsecond(t), rtol=1e-4, atol=1e-6
    )


@pytest.mark.parametrize("name,params", ALL_MODELS)
def test_integrated_cdf_consistency(name, params):
    m = make_model(name, params)
    t = np.linspace(0.0, m.tau, 37)
    h = 1e-6 * max(1.0, m.tau)
    mid = t[1:-1]
    np.testing.assert_allclose(
        (m.Fint(mid + h) - m.Fint(mid - h)) / (2 * h), m.F(mid), rtol=1e-7, atol=1e-9
    )
    assert m.Fint(0.0) == 0.0


def test_tau_is_quantile():
    m = make_model("truncated-exponential", (1.0,), tau_quantile=0.75)
    assert math.isclose(m.tau, math.log(4.0), rel_tol=1e-12)
    assert math.isclose(m.F(m.tau), 0.75, rel_tol=1e-12)
    m9 = make_model("beta-like", (2.0,), tau_quantile=0.9)
    assert math.isclose(m9.F(m9.tau), 0.9, abs_tol=1e-10)


def test_constants_exponential():
    # f = e^{-x}: -f'/f^2 = e^x (min 1 at 0), f''/f^3 = e^{2x} (min 1 at 0);
    # over [0, ln 4]: sup e^x = 4, inf f = 1/4 so gamma2 = 1/(1/4)^3 = 64,
    # R = max(1, f(0))/f(tau) = 4.
    c = constants(make_model("truncated-exponential", (1.0,)))
    assert math.isclose(c.beta1, 1.0, rel_tol=1e-9)
    assert math.isclose(c.beta2, 1.0, rel_tol=1e-9)
    assert math.isclose(c.gamma1_tilde, 4.0, rel_tol=1e-9)
    assert math.isclose(c.gamma2, 64.0, rel_tol=1e-7)
    assert math.isclose(c.R, 4.0, rel_tol=1e-9)
    assert c.gamma1 > 1e20  # infinite support: inf f -> 0


def test_constants_truncated_exponential():
    # rate 1, cutoff 1: f = e^{-x}/Z with Z = 1 - e^{-1};
    # -f'/f^2 = Z e^x so beta1 = Z; gamma1 = sup(-f')/inf(f)^2 = Z e^2.
    z = 1.0 - math.exp(-1.0)
    c = constants(make_model("truncated-exponential", (1.0, 1.0)))
    assert math.isclose(c.beta1, z, rel_tol=1e-9)
    assert math.isclose(c.gamma1, z * math.exp(2.0), rel_tol=1e-7)


def test_constants_shifted_power():
    # f = (p+1)(theta-x)^p / theta^{p+1}:
    #   -f'/f^2 = (p/(p+1)) theta^{p+1} (theta-x)^{-p-1}, min at 0: p/(p+1);
    #   f''/f^3 = (p(p-1)/(p+1)^2) theta^{2p+2} (theta-x)^{-2p-2}, min p(p-1)/(p+1)^2.
    for p, theta in ((2.0, 1.0), (3.0, 1.5), (4.0, 0.5)):
        c = constants(make_model("shifted-power", (p, theta)))
        assert math.isclose(c.beta1, p / (p + 1.0), rel_tol=1e-8)
        assert math.isclose(c.beta2, p * (p - 1.0) / (p + 1.0) ** 2, rel_tol=1e-8)


def test_constants_beta_like():
    # f = c(1-x)(b-x), c = 6/(3b-1): f'' = 2c and f(0) = cb, and f''/f^3 is
    # increasing on [0, 1], so beta2 = 2/(c b)^3 * c = (3b-1)^2/(18 b^3).
    for b in (2.0, 3.0, 4.0):
        c = constants(make_model("beta-like", (b,)))
        want = (3.0 * b - 1.0) ** 2 / (18.0 * b**3)
        assert math.isclose(c.beta2, want, rel_tol=1e-8)


def test_constants_uniform():
    c = constants(make_model("uniform", ()))
    assert c.beta1 == pytest.approx(0.0, abs=1e-12)
    assert c.beta2 == pytest.approx(0.0, abs=1e-12)
    assert math.isclose(c.R, 1.0, rel_tol=1e-12)


@pytest.mark.parametrize("name,params", ALL_MODELS)
@pytest.mark.parametrize("k", [1, 2, 7, 40])
def test_convex_mesh_equal_masses(name, params, k):
    m = make_model(name, params)
    mesh = knot_mesh_convex(m, k)
    assert mesh.k == k
    assert mesh.knots[0] == 0.0
    assert mesh.knots[-1] == m.tau
    masses = np.diff(m.F(mesh.knots))
    np.testing.assert_allclose(masses, m.tau_mass / k, atol=5e-10)
    assert math.isclose(mesh.p, 1.0 / k)
    assert math.isclose(mesh.mass, m.tau_mass)


def test_monotone_mesh_spans_support():
    m = make_model("truncated-exponential", (1.0, 1.0))
    mesh = knot_mesh_monotone(m, 8)
    assert mesh.knots[0] == 0.0
    assert math.isclose(mesh.knots[-1], 1.0, rel_tol=1e-9)
    np.testing.assert_allclose(np.diff(m.F(mesh.knots)), 1.0 / 8.0, atol=5e-10)
    with pytest.raises(ValueError):
        knot_mesh_monotone(make_model("truncated-exponential", (1.0,)), 8)


def test_mesh_widths_and_max():
    m = make_model("truncated-exponential", (1.0,))
    mesh = knot_mesh_convex(m, 3)
    np.testing.assert_allclose(mesh.deltas, np.diff(mesh.knots), atol=0)
    assert math.isclose(mesh.mesh, float(np.max(mesh.deltas)), rel_tol=1e-15)
    # Exp(1), mass .75, k = 3: knots -ln(1 - j/4).
    want = [0.0, -math.log(0.75), -math.log(0.5), math.log(4.0)]
    np.testing.assert_allclose(mesh.knots, want, atol=1e-12)


def test_mesh_knots_are_read_only():
    # a mesh may be shared by every replicate of a process
    mesh = knot_mesh_convex(make_model("truncated-exponential", (1.0,)), 4)
    with pytest.raises(ValueError):
        mesh.knots[1] = 0.5


def _bisect_80(F, u):
    """The bisection on [0, 1] run for all of its 80 steps."""
    u = np.asarray(u, dtype=float)
    a = np.zeros(u.shape)
    b = np.ones(u.shape)
    for _ in range(80):
        mid = 0.5 * (a + b)
        less = F(mid) < u
        a = np.where(less, mid, a)
        b = np.where(less, b, mid)
    return 0.5 * (a + b)


@pytest.mark.parametrize("b", [1.5, 2.0, 5.0])
def test_beta_like_inverse_stops_early_to_the_same_bits(b, monkeypatch):
    m = make_model("beta-like", (b,), 0.9)
    u = np.concatenate([np.random.default_rng(11).random(4096), [0.0, 0.5, 1.0 - 2.0 ** -53]])
    assert m.Finv(u).tobytes() == _bisect_80(m.F, u).tobytes()
    # the certified start leaves about 15 steps of the ~67 from [0, 1]: a
    # silent fall back to the whole bisection fails here
    real, calls = models._beta_like_inverse, []

    def counting(F, *rest):
        return real(lambda x: calls.append(1) or F(x), *rest)

    with monkeypatch.context() as patch:
        patch.setattr(models, "_beta_like_inverse", counting)
        assert m.Finv(u[:4096]).tobytes() == _bisect_80(m.F, u[:4096]).tobytes()
    assert 0 < len(calls) <= 30
    # the scalar path (tau) and the knot-mesh vector
    assert isinstance(m.tau, float)
    assert np.float64(m.tau).tobytes() == _bisect_80(m.F, 0.9).tobytes()
    want = _bisect_80(m.F, 0.9 * np.arange(8) / 7)
    want[0], want[-1] = 0.0, m.tau
    assert knot_mesh_convex(m, 7).knots.tobytes() == want.tobytes()
    # and it does stop early on the draws: their brackets settle before
    # step 80 (u = 0 alone would halve its bracket 1074 times)
    draws = u[:4096]
    steps = []

    def counted(x):
        steps.append(1)
        return m.F(x)

    assert _bisect_inverse(counted, 0.0, 1.0, draws).tobytes() == _bisect_80(m.F, draws).tobytes()
    assert len(steps) < 80


@pytest.mark.parametrize("name,params", ALL_MODELS)
def test_mean_value_knot_in_cell(name, params):
    m = make_model(name, params)
    mesh = knot_mesh_convex(m, 6)
    for j in range(1, mesh.k + 1):
        a = mean_value_knot(m, mesh, j)
        lo, hi = mesh.knots[j - 1], mesh.knots[j]
        assert lo <= a <= hi
        # defining equation: f(a) * k * delta_j = total mesh mass
        assert math.isclose(
            float(m.f(a)) * mesh.k * float(mesh.deltas[j - 1]), m.tau_mass, rel_tol=1e-9
        )


#: catalog models for the bitwise oracle tests of the Brent and Gauss-Kronrod
#: ports, with the steep and near-degenerate ends of each family
PORT_MODELS = ALL_MODELS + [
    ("truncated-exponential", (500.0,)),
    ("shifted-power", (200.0, 1.0)),
    ("beta-like", (1.0001,)),
]


@pytest.mark.parametrize("name,params", PORT_MODELS)
def test_brent_matches_brentq_bitwise_on_catalog_cells(name, params):
    m = make_model(name, params)
    for k in (3, 10, 37):
        mesh = knot_mesh_convex(m, k)
        for j in range(1, k + 1):
            a, b = float(mesh.knots[j - 1]), float(mesh.knots[j])
            target = mesh.mass / mesh.k / (b - a)
            g = lambda t: float(m.f(t)) - target
            if g(a) * g(b) < 0:
                want = brentq(g, a, b, xtol=1e-14 * max(1.0, b))
                assert models._brent(g, a, b, 1e-14 * max(1.0, b)).hex() == want.hex()
            assert mean_value_knot(m, mesh, j) == mean_value_knot_with_brentq(m, mesh, j)


def mean_value_knot_with_brentq(model, mesh, j):
    """``mean_value_knot`` as written on ``scipy.optimize.brentq``."""
    a, b = float(mesh.knots[j - 1]), float(mesh.knots[j])
    target = mesh.mass / mesh.k / (b - a)
    g = lambda t: float(model.f(t)) - target
    ga, gb = g(a), g(b)
    if ga == 0.0:
        return a
    if gb == 0.0:
        return b
    if ga * gb > 0:
        return 0.5 * (a + b)
    return float(brentq(g, a, b, xtol=1e-14 * max(1.0, b)))


@settings(max_examples=300, deadline=None)
@given(st.floats(0.05, 20.0), st.floats(-2.5, 2.5), st.floats(-1.0, 1.0),
       st.floats(1e-15, 1e-3), st.floats(-3.0, -0.5), st.floats(0.5, 3.0))
@example(1.0, 0.0, 0.0, 1e-14, -1.0, 2.0)
@example(20.0, 2.4, 0.0, 1e-15, -3.0, 2.5)  # steep step near the right end
def test_brent_matches_brentq_bitwise_on_smooth_functions(k, c, d, xtol, a, b):
    f = lambda x: math.tanh(k * (x - c)) + d * x ** 3
    assume(f(a) * f(b) < 0)
    assert models._brent(f, a, b, xtol).hex() == brentq(f, a, b, xtol=xtol).hex()


def test_brent_raises_as_brentq_does():
    f = lambda x: x ** 3 - 2.0
    with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
        brentq(f, 0.0, 2.0, xtol=1e-300, maxiter=3)
    with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
        models._brent(f, 0.0, 2.0, 1e-300, maxiter=3)
    with pytest.raises(ValueError, match="different signs"):
        models._brent(f, 2.0, 3.0, 1e-12)
    with pytest.raises(ValueError, match="NaN"):
        models._brent(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 2.0, 1e-12)


def test_catalog_rejects_bad_input():
    with pytest.raises(ValueError):
        make_model("no-such-model", ())
    with pytest.raises(ValueError):
        make_model("truncated-exponential", (-1.0,))
    with pytest.raises(ValueError):
        make_model("shifted-power", (0.5, 1.0))  # needs p >= 1
    with pytest.raises(ValueError):
        make_model("beta-like", (0.5,))  # needs b >= 1
    with pytest.raises(ValueError):
        make_model("truncated-exponential", (1.0,), tau_quantile=1.0)
    with pytest.raises(ValueError):
        knot_mesh_convex(make_model("uniform", ()), 0)
    assert set(CATALOG) == {"truncated-exponential", "shifted-power", "beta-like", "uniform"}


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("name,params,message", [
    ("truncated-exponential", (NAN,), "rate must be positive and finite"),
    ("truncated-exponential", (INF,), "rate must be positive and finite"),
    ("truncated-exponential", (1.0, NAN), "truncation point must be positive"),
    ("truncated-exponential", (1.0, -INF), "truncation point must be positive"),
    ("shifted-power", (NAN, 1.0), "finite p >= 2"),
    ("shifted-power", (INF, 1.0), "finite p >= 2"),
    ("shifted-power", (2.0, NAN), "theta must be positive and finite"),
    ("shifted-power", (2.0, INF), "theta must be positive and finite"),
    ("beta-like", (NAN,), "finite b > 1"),
    ("beta-like", (INF,), "finite b > 1"),
    ("uniform", (NAN,), "width must be positive and finite"),
    ("uniform", (INF,), "width must be positive and finite"),
])
def test_catalog_rejects_non_finite_params(name, params, message):
    with pytest.raises(ValueError, match=message):
        make_model(name, params)


def test_truncated_exponential_allows_no_cutoff():
    # b = inf is the documented spelling of the untruncated exponential
    m = make_model("truncated-exponential", (1.0, INF))
    assert m.support_end == INF and m.tau == make_model("truncated-exponential", (1.0,)).tau


@pytest.mark.parametrize("name,params", ALL_MODELS)
def test_scalar_and_array_evaluation_agree_bitwise(name, params):
    # a numpy scalar and an array may take different power routines
    m = make_model(name, params)
    grid = np.linspace(0.0, m.tau, 2001)
    for fn, t in [(m.f, grid), (m.fprime, grid), (m.fsecond, grid), (m.F, grid),
                  (m.Fint, grid), (m.Finv, np.linspace(0.0, 1.0, 201, endpoint=False))]:
        scalars = np.array([fn(float(s)) for s in t])
        np.testing.assert_array_equal(scalars, fn(t))


# The inverse CDFs as they were before they were rewritten to work in place on
# one copy of u, kept verbatim as the reference they must match bit for bit.
def old_finv(name: str, params: tuple):
    if name == "truncated-exponential":
        rate = float(params[0])
        b = float(params[1]) if len(params) == 2 else INF
        Z = 1.0 - np.exp(-rate * b) if np.isfinite(b) else 1.0
        return lambda u: -np.log1p(-Z * np.asarray(u, dtype=float)) / rate
    if name == "shifted-power":
        p, theta = float(params[0]), float(params[1])
        return lambda u: theta * (1.0 - np.power(1.0 - np.asarray(u, dtype=float), 1.0 / (p + 1.0)))
    if name == "beta-like":
        F = make_model(name, params).F
        return lambda u: _bisect_80(F, u)
    w = float(params[0]) if params else 1.0
    return lambda u: np.asarray(u, dtype=float) * w


# one per family, and the exponential both with and without a cutoff
SAMPLING_MODELS = [
    ("truncated-exponential", (1.0,)),
    ("truncated-exponential", (2.0, 3.0)),
    ("shifted-power", (3.0, 1.5)),
    ("beta-like", (2.0,)),
    ("uniform", (2.0,)),
]


@pytest.mark.parametrize("name,params", SAMPLING_MODELS)
def test_inverse_cdf_keeps_its_bits_and_its_input(name, params):
    old = old_finv(name, params)
    for tau_quantile in (0.5, 0.75, 0.9):
        m = make_model(name, params, tau_quantile)
        assert m.tau == float(old(tau_quantile))
    u = philox(17).random(1000)
    u[:3] = (0.0, 0.5, np.nextafter(1.0, 0.0))
    kept = u.copy()
    np.testing.assert_array_equal(m.Finv(u), old(u))
    np.testing.assert_array_equal(u, kept)
    for s in u[:50]:
        got = m.Finv(float(s))
        assert isinstance(got, float)
        assert got == float(old(float(s)))


def _where_bisect(F, lo, hi, u):
    """The bisection with ``np.where`` selects and the early stop, as it was
    before its selects became bit masks, kept verbatim as the reference."""
    u = np.asarray(u, dtype=float)
    a = np.full(u.shape, lo)
    b = np.full(u.shape, hi)
    for _ in range(80):
        mid = 0.5 * (a + b)
        less = F(mid) < u
        a_next = np.where(less, mid, a)
        b_next = np.where(less, b, mid)
        if np.array_equal(a_next, a) and np.array_equal(b_next, b):
            break
        a, b = a_next, b_next
    out = 0.5 * (a + b)
    return out if out.ndim else float(out)


def _same_bits(got, want):
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert np.shape(got) == np.shape(want)


EDGES = [0.0, 5e-324, 1e-300, 1.0 - 2.0 ** -53, 1.0, 1.5, -0.5, INF, -INF]
BETA_B = [1.0001, 1.5, 2.0, 5.0, 100.0]
_BETA_F = make_model("beta-like", (2.0,)).F


@pytest.mark.parametrize("b", BETA_B)
def test_bisect_inverse_matches_the_where_loop_bit_for_bit(b):
    m = make_model("beta-like", (b,))
    F = m.F
    # the loop from [0, 1], and the model's inverse from its certified start
    for inverse in (lambda u: _bisect_inverse(F, 0.0, 1.0, u), m.Finv):
        for key in (1, 7, 2024):
            for n in (1, 2, 3, 64, 1000, 8192, 30000):
                u = philox(seed_for(key, n, 0)).random(n)
                _same_bits(inverse(u), _where_bisect(F, 0.0, 1.0, u))
        edges = np.array(EDGES)
        _same_bits(inverse(edges), _where_bisect(F, 0.0, 1.0, edges))
        # 0-d arrays and floats take the scalar path; 2-d arrays keep their shape
        for s in EDGES:
            _same_bits(inverse(s), _where_bisect(F, 0.0, 1.0, s))
            _same_bits(inverse(np.array(s)), _where_bisect(F, 0.0, 1.0, np.array(s)))
        grid = np.concatenate([edges, philox(5).random(91)]).reshape(10, 10)
        _same_bits(inverse(grid), _where_bisect(F, 0.0, 1.0, grid))
        _same_bits(inverse(grid.T), _where_bisect(F, 0.0, 1.0, grid.T))


def test_bisect_inverse_resumes_from_any_level():
    # a bracket that the loop from [0, 1] reaches after `level` steps, given
    # with its level, ends where the 80 steps from [0, 1] end; level 80
    # leaves no step, and draws near 0 run out of steps before they settle
    F = _BETA_F
    rng = philox(13)
    u = np.concatenate([rng.random(3000), 10.0 ** -rng.uniform(3, 40, 1000), [5e-324, 1e-300]])
    level = rng.integers(0, 81, u.size)
    lo, hi = np.zeros(u.shape), np.ones(u.shape)
    for step in range(80):
        at = level > step
        mid = 0.5 * (lo + hi)
        less = F(mid) < u
        lo = np.where(at & less, mid, lo)
        hi = np.where(at & ~less, mid, hi)
    _same_bits(_bisect_inverse(F, lo, hi, u, level), _bisect_80(F, u))
    _same_bits(_bisect_inverse(F, lo[:7], hi[:7], u[:7], 80), 0.5 * (lo[:7] + hi[:7]))


def test_bisect_inverse_matches_the_where_loop_on_any_interval():
    # a generic bracket and an F that is not monotone on it
    F = lambda x: np.sin(3.0 * np.asarray(x, dtype=float))
    u = np.concatenate([2.4 * philox(3).random(4000) - 1.2, EDGES])
    _same_bits(_bisect_inverse(F, -1.0, 3.0, u), _where_bisect(F, -1.0, 3.0, u))
    grid = u[:4000].reshape(40, 100)
    _same_bits(_bisect_inverse(F, -1.0, 3.0, grid), _where_bisect(F, -1.0, 3.0, grid))
    for s in EDGES + [0.3, -0.99]:
        _same_bits(_bisect_inverse(F, -1.0, 3.0, s), _where_bisect(F, -1.0, 3.0, s))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    u=arrays(np.float64, array_shapes(min_dims=0, max_dims=2, max_side=20),
             elements=st.floats(allow_nan=False, allow_subnormal=True)),
    ends=st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(allow_nan=False, allow_infinity=False)).filter(lambda e: e[0] != e[1]),
)
@example(u=np.array([-INF, 0.0, 1e-320, 1.0, INF]), ends=(5e-324, 1.5e-323))  # subnormal mids
@example(u=np.array([-INF, 0.0, 1.0, INF]), ends=(1e308, 1.7e308))  # a + b overflows
def test_bisect_inverse_keeps_the_where_bits_on_any_input(u, ends):
    # the cubic F is not monotone off [0, 1]; huge ends overflow mid to inf
    lo, hi = sorted(ends)
    with np.errstate(all="ignore"):
        got, want = _bisect_inverse(_BETA_F, lo, hi, u), _where_bisect(_BETA_F, lo, hi, u)
    _same_bits(got, want)


_ULP = Fraction(1, 2 ** 53)
_GAMMA10 = 10 * _ULP / (1 - 10 * _ULP)


def _exact_cubic(b, signs):
    """x -> c_b (b x + s1 (1 + b) x^2/2 + s2 x^3/3) in rationals, c_b = 6/(3b - 1)."""
    B = Fraction(b)
    cb = 6 / (3 * B - 1)
    return lambda x: cb * (B * x + signs[0] * (1 + B) * x * x / 2 + signs[1] * x ** 3 / 3)


@pytest.mark.parametrize("b", BETA_B)
def test_beta_like_error_bound_holds_exactly(b):
    # |F_float - F| <= e = gamma_10 S + 2^-1070 (the derivation in
    # _build_beta_like), and the float e the certificate reads is at least 2e/3
    m = make_model("beta-like", (b,))
    c = 6.0 / (3.0 * b - 1.0)
    F, S = _exact_cubic(b, (-1, 1)), _exact_cubic(b, (1, 1))
    e = lambda x: _GAMMA10 * S(x) + Fraction(2) ** -1070
    tiny = [2.0 ** -1074, 1e-300, 2.0 ** -360, 2.0 ** -520, 1e-20]
    x = np.concatenate([philox(seed_for(17, 10_000, 0)).random(10_000),
                        [0.0, 1.0 - 2.0 ** -53, 1.0, 0.5, 2.0 ** -53], tiny])
    for xi, Fi, ei in zip(x.tolist(), m.F(x).tolist(), models._beta_like_err(x, b, c).tolist()):
        X = Fraction(xi)
        assert abs(Fraction(Fi) - F(X)) <= e(X)
        assert 3 * Fraction(ei) >= 2 * e(X)
    # the cut on u is at most 1 - e(1)
    assert Fraction(1.0 - 3.0 * float(models._beta_like_err(1.0, b, c))) <= 1 - e(Fraction(1))
    # (F - e)' = c_b ((1 - g) x^2 - (1 + b)(1 + g) x + (1 - g) b) is convex, positive
    # at 0 and negative at 1: F - e increases on [0, x*] and decreases after
    B, g = Fraction(b), _GAMMA10
    slope = lambda t: (1 - g) * t * t - (1 + B) * (1 + g) * t + (1 - g) * B
    assert 1 - g > 0 and slope(Fraction(0)) > 0 and slope(Fraction(1)) < 0
    lo, hi = 0.0, 1.0  # floats around x*, by the sign of the exact slope
    while np.nextafter(lo, 1.0) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if slope(Fraction(mid)) > 0 else (lo, mid)
    for grid, sign in ((np.linspace(0.0, lo, 200), 1), (np.unique(np.linspace(hi, 1.0, 50)), -1)):
        vals = [F(X) - e(X) for X in map(Fraction, grid.tolist())]
        assert all(sign * (q - p) > 0 for p, q in zip(vals, vals[1:]))


def _neighbours(v, d):
    for _ in range(abs(d)):
        v = np.nextafter(v, np.sign(d) * INF)
    return float(v)


def _dyadic_root_u(F):
    """u = F(k / 2^j), a root on a dyadic point, and its float neighbours."""
    return st.builds(
        lambda j, k, d: _neighbours(float(F((2 * (k % 2 ** (j - 1)) + 1) / 2.0 ** j)), d),
        st.integers(1, 52), st.integers(0, 2 ** 52), st.integers(-3, 3))


def _oracle(F, u):
    """The loop from [0, 1] with its early stop; NaN maps to itself, bits and all."""
    want = _where_bisect(F, 0.0, 1.0, u)
    if isinstance(want, float):
        return float(u) if math.isnan(u) else want
    return np.where(np.isnan(u), u, want)


_BETA_MODELS = {b: make_model("beta-like", (b,)) for b in BETA_B}
_ANY_U = st.sampled_from(EDGES + [NAN, 2.0, 1e300, -1e-300, 1.0 - 2.0 ** -52])


@pytest.mark.parametrize("b", BETA_B)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_beta_like_inverse_keeps_the_bisection_bits_on_any_input(b, data):
    m = _BETA_MODELS[b]
    elements = st.one_of(_dyadic_root_u(m.F), st.floats(0.0, 1.0), _ANY_U, st.floats())
    u = data.draw(arrays(np.float64, array_shapes(min_dims=0, max_dims=2, max_side=20),
                         elements=elements), label="u")
    with np.errstate(all="ignore"):
        _same_bits(m.Finv(u), _oracle(m.F, u))
        for s in u.flat[:3]:
            _same_bits(m.Finv(float(s)), _oracle(m.F, float(s)))


@pytest.mark.parametrize("guess", [0.0, 0.3, 0.999, NAN])
def test_beta_like_inverse_bits_do_not_depend_on_the_guess(guess, monkeypatch):
    # the guess only picks the start cell; the certificate carries the bits
    F = _BETA_F
    u = np.concatenate([philox(3).random(2000), [float(F(0.3)), float(F(0.5))], EDGES])
    want = _where_bisect(F, 0.0, 1.0, u)
    monkeypatch.setattr(models, "_beta_like_guess", lambda u, b, c: np.full(np.shape(u), guess))
    m = make_model("beta-like", (2.0,), 0.9)
    _same_bits(m.Finv(u), want)
    _same_bits(m.Finv(u[:40].reshape(5, 8)), want[:40].reshape(5, 8))
    _same_bits(m.tau, _where_bisect(F, 0.0, 1.0, 0.9))


@pytest.mark.parametrize("name,params", SAMPLING_MODELS)
def test_inverse_cdf_maps_nan_to_nan(name, params):
    m = make_model(name, params)
    assert math.isnan(m.Finv(NAN))
    assert math.isnan(m.Finv(np.array(NAN)))
    u = philox(9).random(500)
    want = m.Finv(u)
    holes = [0, 7, 250, 499]
    u[holes] = NAN
    got = m.Finv(u)
    assert np.isnan(got[holes]).all()
    keep = np.ones(u.shape, dtype=bool)
    keep[holes] = False
    assert got[keep].tobytes() == want[keep].tobytes()
    grid = m.Finv(np.full((3, 2), NAN))
    assert grid.shape == (3, 2) and np.isnan(grid).all()


# The grid-scan-plus-Brent search that the endpoint rule of ``_extreme``
# replaced, kept verbatim as the reference that the rule must match bit for bit.
def _grid_extreme(fn, lo: float, hi: float, kind: str, ngrid: int = 2049) -> float:
    """Grid scan plus bounded local refinement for inf/sup of a ratio."""
    t = np.linspace(lo, hi, ngrid)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = np.asarray(fn(t), dtype=float)
    if kind == "sup":
        if np.any(np.isposinf(v)):
            return float("inf")
        i = int(np.nanargmax(v))
        obj = lambda s: -float(fn(s))
    else:
        if np.any(np.isneginf(v)):
            return float("-inf")
        i = int(np.nanargmin(v))
        obj = lambda s: float(fn(s))
    a = t[max(i - 1, 0)]
    b = t[min(i + 1, ngrid - 1)]
    best = float(v[i])
    if b > a:
        res = minimize_scalar(obj, bounds=(a, b), method="bounded",
                              options={"xatol": 1e-13 * max(1.0, hi)})
        refined = -res.fun if kind == "sup" else res.fun
        best = max(best, refined) if kind == "sup" else min(best, refined)
    return best


EXTREME_MODELS = [
    ("truncated-exponential", (1.0,)),
    ("truncated-exponential", (0.3,)),
    ("truncated-exponential", (1.0, 1.0)),
    ("truncated-exponential", (2.0, 3.0)),
    ("truncated-exponential", (5.0, 0.2)),
    ("shifted-power", (2.0, 1.0)),
    ("shifted-power", (3.0, 1.0)),
    ("shifted-power", (3.0, 1.5)),
    ("shifted-power", (4.5, 0.5)),
    ("beta-like", (1.5,)),
    ("beta-like", (2.0,)),
    ("beta-like", (4.0,)),
    ("uniform", (2.0,)),
]


def _fixed_extreme_calls(model):
    """Every ``(fn, lo, hi, kind)`` that ``constants`` and the bounds pass to ``_extreme``.

    ``trapezoid_remainder_bounds`` and ``slope_difference_bound`` pass
    ``f''`` on arrays of subintervals of ``[0, tau]``; the rest are recorded here.
    """
    calls = []

    def spy(fn, lo, hi, kind):
        calls.append((fn, lo, hi, kind))
        return _extreme(fn, lo, hi, kind)

    with pytest.MonkeyPatch.context() as mp:
        for module in (models, bounds, spline):
            mp.setattr(module, "_extreme", spy)
        constants(model)
        bounds.interp_gap_report(model)
        spline.smooth_interp_error_bounds(model, knot_mesh_convex(model, 2))
    return calls


@pytest.mark.parametrize("tau_quantile", [0.5, 0.75, 0.9])
@pytest.mark.parametrize("name,params", EXTREME_MODELS)
def test_endpoint_extreme_matches_grid_search_bitwise(name, params, tau_quantile):
    m = make_model(name, params, tau_quantile)
    calls = _fixed_extreme_calls(m)
    assert len(calls) == 9
    rng = np.random.default_rng(17)
    for _ in range(150):
        s, t = np.sort(rng.random(2)) * m.tau
        calls += [(m.fsecond, float(s), float(t), "inf"), (m.fsecond, float(s), float(t), "sup")]
    for fn, lo, hi, kind in calls:
        got, want = _extreme(fn, lo, hi, kind), _grid_extreme(fn, lo, hi, kind)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (lo, hi, kind, got, want)
    # arrays of interval ends give, element by element, the scalar call's bits
    lo, hi = (np.array([c[i] for c in calls[9::2]]) for i in (1, 2))
    for kind in ("inf", "sup"):
        want = [_extreme(m.fsecond, float(a), float(b), kind) for a, b in zip(lo, hi)]
        assert _extreme(m.fsecond, lo, hi, kind).tobytes() == np.array(want).tobytes()


def _is_monotone(v) -> bool:
    v = v[~np.isnan(v)]
    return bool(np.all(v[1:] >= v[:-1]) or np.all(v[1:] <= v[:-1]))


MONOTONE_SWEEP = (
    [("truncated-exponential", (r,)) for r in (0.1, 1.0, 10.0)]
    + [("truncated-exponential", (r, b)) for r in (0.1, 1.0, 10.0) for b in (0.05, 1.0, 20.0)]
    + [("shifted-power", (p, th)) for p in (2.0, 2.5, 3.0, 7.0) for th in (0.1, 1.0, 8.0)]
    + [("beta-like", (b,)) for b in (1.01, 1.5, 2.0, 10.0, 1e3)]
    + [("uniform", (w,)) for w in (0.5, 1.0, 3.0)]
)


@pytest.mark.parametrize("name,params", MONOTONE_SWEEP)
def test_every_extreme_target_is_monotone_on_its_interval(name, params):
    # _extreme reads only the two ends, which is exact for monotone targets:
    # f, -f', f'', |f''|, -f'/f^2 and f''/f^3 on [0, tau] or the full support
    for q in (0.5, 0.75, 0.9):
        m = make_model(name, params, q)
        calls = _fixed_extreme_calls(m) + [(m.fsecond, 0.0, m.tau, "inf")]
        for fn, lo, hi, _ in calls:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                v = np.asarray(fn(np.linspace(lo, hi, 4097)), dtype=float)
            assert _is_monotone(v), (q, lo, hi, fn)
